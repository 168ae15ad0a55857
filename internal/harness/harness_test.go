package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/metadata"
	"repro/internal/policy"
)

// baseSeed returns the seed for this test process. The CI matrix and the
// acceptance gate vary it: CYRUS_HARNESS_SEED=n go test ./internal/harness
func baseSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("CYRUS_HARNESS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CYRUS_HARNESS_SEED %q: %v", s, err)
		}
		return n
	}
	return 7
}

// runScenario executes one configured run and fails the test on any
// invariant violation. When a run fails and CYRUS_FLIGHT_OUT names a
// directory, the run's flight-recorder dumps are written there — CI
// uploads them as artifacts so anomalies stay diagnosable post-hoc.
func runScenario(t *testing.T, opts Options) *Report {
	t.Helper()
	_, rep := runHarness(t, opts)
	return rep
}

// runHarness is runScenario that also hands back the harness, for tests
// that read its clients after the run.
func runHarness(t *testing.T, opts Options) (*Harness, *Report) {
	t.Helper()
	h, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := h.Run(context.Background())
	t.Logf("seed=%d %s", opts.Seed, rep)
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			t.Errorf("[%s] %s", v.Invariant, v.Detail)
		}
		writeFlightDumps(t, rep)
	}
	if rep.Acked == 0 {
		t.Errorf("no Put was ever acknowledged — the scenario exercised nothing")
	}
	return h, rep
}

// writeFlightDumps exports a failed run's flight dumps to the directory
// named by CYRUS_FLIGHT_OUT (no-op when unset).
func writeFlightDumps(t *testing.T, rep *Report) {
	t.Helper()
	dir := os.Getenv("CYRUS_FLIGHT_OUT")
	if dir == "" || len(rep.FlightDumps) == 0 {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("flight dumps: mkdir %s: %v", dir, err)
		return
	}
	for _, d := range rep.FlightDumps {
		data, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			continue
		}
		name := fmt.Sprintf("%s-flight-%d.json", sanitizeName(t.Name()), d.Seq)
		if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
			t.Logf("flight dumps: write %s: %v", name, err)
			continue
		}
		t.Logf("flight dump written to %s", filepath.Join(dir, name))
	}
}

// sanitizeName flattens a subtest path into a file-name-safe token.
func sanitizeName(name string) string {
	return strings.NewReplacer("/", "_", " ", "_").Replace(name)
}

// TestScenarios is the chaos suite: every named fault pattern must leave
// all system-wide invariants intact.
func TestScenarios(t *testing.T) {
	seed := baseSeed(t)
	scenarios := []struct {
		name string
		opts Options
	}{
		{
			// No faults at all: the invariants hold trivially, and the
			// checker's own bookkeeping (oracle, share recomputation,
			// object classification) is validated against a clean world.
			name: "baseline-no-faults",
			opts: Options{},
		},
		{
			// One provider suffers a long hard outage and comes back.
			name: "single-crash-restart",
			opts: Options{
				Schedule: Schedule{
					{At: 20, Act: Crash, CSP: "cspb"},
					{At: 80, Act: Restart, CSP: "cspb"},
					{At: 80, Act: Checkpoint},
					{At: 100, Act: Crash, CSP: "cspd"},
					{At: 140, Act: Restart, CSP: "cspd"},
				},
			},
		},
		{
			// Every provider takes a turn being down; at most one is down
			// at a time, so all operations should keep succeeding.
			name: "rolling-outages",
			opts: Options{
				Schedule: Schedule{
					{At: 10, Act: Crash, CSP: "cspa"}, {At: 35, Act: Restart, CSP: "cspa"},
					{At: 40, Act: Crash, CSP: "cspb"}, {At: 65, Act: Restart, CSP: "cspb"},
					{At: 70, Act: Crash, CSP: "cspc"}, {At: 95, Act: Restart, CSP: "cspc"},
					{At: 100, Act: Crash, CSP: "cspd"}, {At: 125, Act: Restart, CSP: "cspd"},
					{At: 130, Act: Crash, CSP: "cspe"}, {At: 155, Act: Restart, CSP: "cspe"},
				},
			},
		},
		{
			// Short transient fault bursts on individual providers.
			name: "transient-faults",
			opts: Options{
				Schedule: Schedule{
					{At: 15, Act: FailNext, CSP: "cspa", Count: 3},
					{At: 40, Act: FailNext, CSP: "cspc", Count: 5},
					{At: 70, Act: FailNext, CSP: "cspe", Count: 2},
					{At: 90, Act: FailNext, CSP: "cspb", Count: 4},
					{At: 120, Act: FailNext, CSP: "cspd", Count: 3},
				},
			},
		},
		{
			// One provider runs out of space mid-run; uploads must fail
			// over without ever double-placing shares, and the capacity
			// comes back later (the provider kept its stored bytes).
			name: "capacity-exhaustion",
			opts: Options{
				Schedule: Schedule{
					{At: 30, Act: SetCapacity, CSP: "cspc", Bytes: 16 << 10},
					{At: 120, Act: SetCapacity, CSP: "cspc", Bytes: 0},
				},
			},
		},
		{
			// Metadata shares rot on a single provider. Each record keeps
			// every other replica, so reads and recovery must correct
			// through the damage (and log it), never serve bad metadata.
			name: "metadata-corruption",
			opts: Options{
				Schedule: Schedule{
					{At: 50, Act: CorruptMeta, CSP: "cspa", Count: 4},
					{At: 100, Act: CorruptMeta, CSP: "cspa", Count: 4},
				},
			},
		},
		{
			// Chunk shares rot. At n=4, t=2 a read recovers a chunk from
			// any two intact shares; CheckKills −1 keeps the durability
			// sweep from stacking two failed providers on top of the
			// corruption (which would leave fewer than t intact).
			name: "share-corruption",
			opts: Options{
				N:          4,
				CheckKills: -1,
				Schedule: Schedule{
					{At: 60, Act: CorruptShares, CSP: "cspb", Count: 3},
					{At: 110, Act: CorruptShares, CSP: "cspd", Count: 3},
				},
			},
		},
		{
			// Providers grouped two per platform: the placement constraint
			// tightens to one share per *cluster*, and the checker audits
			// exactly that.
			name: "clustered-platforms",
			opts: Options{
				Providers: 6,
				Clustered: true,
				Schedule: Schedule{
					{At: 25, Act: Crash, CSP: "cspe"},
					{At: 75, Act: Restart, CSP: "cspe"},
				},
			},
		},
		{
			// BlindSync makes every provider's next operation fail, so the
			// next writer uploads against a stale tree — manufacturing the
			// paper's divergent-edit conflicts. All replicas must still
			// converge and agree on the conflicts; Resolve ops settle them.
			name: "concurrent-divergence",
			opts: Options{
				Clients: 3,
				Files:   3,
				Schedule: Schedule{
					{At: 15, Act: BlindSync}, {At: 35, Act: BlindSync},
					{At: 55, Act: BlindSync}, {At: 75, Act: BlindSync},
					{At: 95, Act: BlindSync}, {At: 115, Act: BlindSync},
					{At: 135, Act: BlindSync},
				},
			},
		},
		{
			// A provider is gracefully retired; later downloads lazily
			// migrate its shares (draining the old copies), then the
			// provider rejoins. A second retirement exercises repeated
			// migration — the case where a past holder must never be
			// handed a second share of the same chunk.
			name: "churn-remove-reinstate",
			opts: Options{
				Schedule: Schedule{
					{At: 30, Act: RemoveCSP, CSP: "cspa", Client: 0},
					{At: 90, Act: Checkpoint},
					{At: 90, Act: ReinstateCSP, CSP: "cspa", Client: 1},
					{At: 110, Act: RemoveCSP, CSP: "cspc", Client: 1},
				},
			},
		},
		{
			// Convergent dedup mode under crash-and-restart chaos plus
			// blind-sync windows: content-addressed shares and refcounted
			// GC must uphold every invariant the legacy namespace does.
			// The workload's random GC ops land inside and outside the
			// outage windows, exercising the partial-view sweep gate.
			name: "dedup-crash-gc",
			opts: Options{
				Dedup:   true,
				Clients: 3,
				Schedule: Schedule{
					{At: 20, Act: Crash, CSP: "cspb"},
					{At: 45, Act: BlindSync},
					{At: 60, Act: Restart, CSP: "cspb"},
					{At: 80, Act: Checkpoint},
					{At: 100, Act: Crash, CSP: "cspd"},
					{At: 130, Act: Restart, CSP: "cspd"},
				},
			},
		},
		{
			// Sharded metadata plane under CSP churn: three clients route
			// metadata through a 3-of-6 hashring with the version-aware
			// cache on, while providers crash, are retired, and rejoin
			// mid-run. Oracles: per-shard meta-replication (every record
			// keeps >= MetaT intact shares on its shard), stale-ring
			// readability (fresh inspectors start on the pre-churn ring and
			// must still resolve everything), cache coherence (no client
			// serves a superseded version from cache), and garbage-freedom
			// (re-placed shares are accounted, nothing referenced is lost).
			name: "meta-shard-churn",
			opts: Options{
				Clients:          3,
				Providers:        6,
				MetaShards:       3,
				MetaCacheEntries: 64,
				Schedule: Schedule{
					{At: 25, Act: RemoveCSP, CSP: "cspb", Client: 0},
					{At: 45, Act: Crash, CSP: "cspe"},
					{At: 70, Act: Restart, CSP: "cspe"},
					{At: 80, Act: Checkpoint},
					{At: 80, Act: ReinstateCSP, CSP: "cspb", Client: 1},
					{At: 105, Act: RemoveCSP, CSP: "cspd", Client: 2},
					{At: 130, Act: FailNext, CSP: "cspa", Count: 3},
				},
			},
		},
		{
			// Storage classes under degradation: hot objects (2-of-3 on
			// cspa-c) are demoted by the lifecycle migrator to a cold class
			// (3-of-5 preferring cspd-f) while that cold subset crashes and
			// throws transient faults and the workload keeps reading. The
			// Demote runs are asynchronous under virtual time, so reads
			// genuinely interleave with in-flight re-encodes. Oracles: byte-
			// identical reads mid- and post-migration, per-class durability
			// and t-privacy (every encoding keeps its own n shares and t
			// threshold), source encodings survive demotion (no copy deleted
			// before the cold placement reached quorum — old versions still
			// reference them), and no torn class transitions (every version's
			// chunks carry one class). DemoteAfter of 1ns makes every idle
			// object eligible the moment a Demote step fires.
			name: "class-degrade-migrate",
			opts: Options{
				Virtual:   true,
				Providers: 6,
				Ops:       90,
				Classes: []policy.Class{
					{Name: "hot", Tier: policy.TierHot, T: 2, N: 3,
						CSPs:        []string{"cspa", "cspb", "cspc"},
						DemoteAfter: time.Nanosecond, DemoteTo: "cold"},
					{Name: "cold", Tier: policy.TierCold, T: 3, N: 5,
						CSPs: []string{"cspd", "cspe", "cspf"}},
				},
				DefaultClass: "hot",
				Schedule: Schedule{
					{At: 30, Act: Demote, Client: 0},
					{At: 32, Act: Crash, CSP: "cspd"},
					{At: 45, Act: FailNext, CSP: "cspe", Count: 3},
					{At: 50, Act: Demote, Client: 1},
					{At: 60, Act: Restart, CSP: "cspd"},
					{At: 62, Act: Checkpoint},
					{At: 75, Act: Demote, Client: 0},
				},
			},
		},
		{
			// Virtual time: each client reaches the providers over its own
			// netsim links; mid-run one provider's links collapse to 5% of
			// their bandwidth, then recover.
			name: "slow-links-netsim",
			opts: Options{
				Virtual: true,
				Ops:     90,
				Schedule: Schedule{
					{At: 20, Act: SlowLink, CSP: "cspb", Factor: 0.05},
					{At: 60, Act: RestoreLink, CSP: "cspb"},
					{At: 70, Act: Crash, CSP: "cspd"},
				},
			},
		},
		{
			// Streaming Put/Get chaos: the windowed pipeline under a crawling
			// link and a CSP killed mid-run, so in-flight streams must fail
			// over or abort cleanly. Larger files give each stream many
			// chunks, landing the faults mid-stream; the oracles are the same
			// as the batch plane's.
			name: "streaming-slow-link-crash",
			opts: Options{
				Virtual:   true,
				Streaming: true,
				Ops:       90,
				MaxBytes:  24 * 1024,
				Schedule: Schedule{
					{At: 15, Act: SlowLink, CSP: "cspb", Factor: 0.05},
					{At: 40, Act: Crash, CSP: "cspd"},
					{At: 55, Act: RestoreLink, CSP: "cspb"},
					{At: 70, Act: Restart, CSP: "cspd"},
				},
			},
		},
		{
			// Two users with distinct keys share the providers in dedup
			// mode under the dedup-crash-gc schedule: the workload's random
			// GCs run across both users' reference tokens inside and
			// outside the outage and blind-sync windows, and every oracle
			// runs per user, the refcount oracle included.
			name: "dedup-two-users-crash-gc",
			opts: Options{
				Users:   2,
				Clients: 4,
				Dedup:   true,
				Schedule: Schedule{
					{At: 20, Act: Crash, CSP: "cspb"},
					{At: 45, Act: BlindSync},
					{At: 60, Act: Restart, CSP: "cspb"},
					{At: 80, Act: Checkpoint},
					{At: 100, Act: Crash, CSP: "cspd"},
					{At: 130, Act: Restart, CSP: "cspd"},
				},
			},
		},
	}
	for i, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			sc.opts.Seed = seed + int64(i)*1000
			runScenario(t, sc.opts)
		})
	}
}

// TestSeededPlacementBugCaught proves the checker has teeth: a share
// deliberately copied onto a provider that already holds one (the state a
// reverted placement guard would produce) must trip the placement and
// privacy invariants.
func TestSeededPlacementBugCaught(t *testing.T) {
	t.Parallel()
	h, err := New(Options{Seed: baseSeed(t), Ops: 40, BreakPlacement: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := h.Run(context.Background())
	t.Logf("%s", rep)
	var placement, privacy bool
	for _, v := range rep.Violations {
		placement = placement || v.Invariant == "placement"
		privacy = privacy || v.Invariant == "privacy"
	}
	if !placement || !privacy {
		t.Fatalf("seeded placement bug not caught (placement=%v privacy=%v):\n%s", placement, privacy, rep)
	}
}

// TestSeededRefcountBugCaught proves the refcount oracle has teeth: after
// a clean two-user dedup run, dropping one referencing user's token from a
// shared CAS object and planting a CAS object with no token at all must
// each trip it.
func TestSeededRefcountBugCaught(t *testing.T) {
	t.Parallel()
	h, err := New(Options{Seed: baseSeed(t), Ops: 40, Users: 2, Dedup: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if rep := h.Run(context.Background()); len(rep.Violations) > 0 {
		t.Fatalf("clean run reported violations:\n%s", rep)
	}
	ctx := context.Background()
	shared := seqData(9, 200)
	for _, c := range h.clients[:2] {
		h.record(c, "shared", shared, c.Put(ctx, "shared", shared))
	}
	dropped := h.shareName(0, metadata.HashData(shared), 0, h.opts.T)
	for _, name := range h.names {
		if _, ok := h.backends[name].PeekObject(dropped); !ok {
			continue
		}
		raw := cloudsim.NewSimStore(h.backends[name])
		if err := raw.Authenticate(ctx, csp.Credentials{Token: "seeded"}); err != nil {
			t.Fatal(err)
		}
		if removed, err := raw.DelRef(ctx, dropped, h.naming[1].RefToken()); err != nil || removed {
			t.Fatalf("dropping user 1's token: removed=%v err=%v", removed, err)
		}
		break
	}
	planted := h.shareName(0, metadata.HashData(seqData(10, 200)), 0, h.opts.T)
	h.backends[h.names[0]].InjectObject(planted, seqData(10, 100), time.Now())

	h.report.Violations = nil
	h.checkpoint(ctx)
	t.Logf("%s", &h.report)
	caught := func(invariant, obj string) bool {
		return slices.ContainsFunc(h.report.Violations, func(v Violation) bool {
			return v.Invariant == invariant && strings.Contains(v.Detail, obj)
		})
	}
	if !caught("refcount", dropped) || !caught("refcount", planted) || !caught("garbage", planted) {
		t.Fatalf("seeded refcount bugs not caught (dropped token %v, zero-token object %v, its garbage %v)",
			caught("refcount", dropped), caught("refcount", planted), caught("garbage", planted))
	}
}

// TestSeededShareLossCaught proves the durability check has teeth: shares
// silently destroyed beyond the n−t budget must be reported.
func TestSeededShareLossCaught(t *testing.T) {
	t.Parallel()
	h, err := New(Options{Seed: baseSeed(t), Ops: 40, BreakDurability: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := h.Run(context.Background())
	t.Logf("%s", rep)
	for _, v := range rep.Violations {
		if v.Invariant == "durability" {
			return
		}
	}
	t.Fatalf("seeded share loss not caught:\n%s", rep)
}

// TestDeterminism re-runs a faulty scenario with the same seed and checks
// the acknowledged-version sequence is identical — the property that makes
// any harness failure reproducible from its seed.
func TestDeterminism(t *testing.T) {
	t.Parallel()
	opts := Options{
		Seed: baseSeed(t),
		Ops:  80,
		Schedule: Schedule{
			{At: 10, Act: Crash, CSP: "cspb"},
			{At: 50, Act: Restart, CSP: "cspb"},
		},
	}
	run := func() *Report {
		h, err := New(opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return h.Run(context.Background())
	}
	a, b := run(), run()
	if len(a.AckedVIDs) != len(b.AckedVIDs) {
		t.Fatalf("ack counts differ: %d vs %d", len(a.AckedVIDs), len(b.AckedVIDs))
	}
	for i := range a.AckedVIDs {
		if a.AckedVIDs[i] != b.AckedVIDs[i] {
			t.Fatalf("ack %d differs: %s vs %s", i, a.AckedVIDs[i], b.AckedVIDs[i])
		}
	}
}

// TestSoak is the long-running mode: several independent worlds with
// randomized (but seed-derived) fault schedules layered over a larger
// workload. Skipped under -short; CI runs the short suite, the soak runs
// locally or in scheduled jobs.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak mode disabled with -short")
	}
	seed := baseSeed(t)
	for round := 0; round < 3; round++ {
		round := round
		t.Run(strconv.Itoa(round), func(t *testing.T) {
			t.Parallel()
			opts := Options{
				Seed:      seed + int64(round)*7919,
				Clients:   3,
				Providers: 6,
				Ops:       400,
				Files:     8,
				Schedule:  soakSchedule(seed+int64(round), 400),
			}
			runScenario(t, opts)
		})
	}
}

// soakSchedule derives a random-but-reproducible fault schedule: rolling
// crash windows, transient fault bursts, and a capacity dip, plus a
// mid-run checkpoint.
func soakSchedule(seed int64, ops int) Schedule {
	names := []string{"cspa", "cspb", "cspc", "cspd", "cspe", "cspf"}
	var sch Schedule
	// Derive positions from the seed without pulling in the harness RNG:
	// a simple LCG is plenty and keeps the schedule independent of the
	// workload stream.
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for i := 0; i < 4; i++ {
		at := next(ops - 40)
		cspName := names[next(len(names))]
		sch = append(sch,
			Step{At: at, Act: Crash, CSP: cspName},
			Step{At: at + 20 + next(20), Act: Restart, CSP: cspName},
		)
	}
	for i := 0; i < 5; i++ {
		sch = append(sch, Step{At: next(ops), Act: FailNext, CSP: names[next(len(names))], Count: 1 + next(4)})
	}
	dip := names[next(len(names))]
	at := next(ops / 2)
	sch = append(sch,
		Step{At: at, Act: SetCapacity, CSP: dip, Bytes: 32 << 10},
		Step{At: at + ops/4, Act: SetCapacity, CSP: dip, Bytes: 0},
		Step{At: ops / 2, Act: Checkpoint},
	)
	return sch
}
