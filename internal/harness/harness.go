// Package harness is a seedable, deterministic multi-client chaos
// simulation for the whole CYRUS stack. It drives N concurrent
// core.Clients against shared cloudsim backends while a scripted fault
// schedule crashes and restarts providers, injects transient faults,
// exhausts capacity, corrupts stored shares, and throttles links under
// netsim virtual time. At every quiescent point it audits the system's
// global invariants by direct inspection of provider state and the
// clients' version trees:
//
//   - durability: every acknowledged write stays readable, byte-exact,
//     under any failure subset of up to n−t providers;
//   - placement: no provider (and, when clustering is on, no platform)
//     physically holds more than one share of a chunk;
//   - t-privacy: no platform holds enough shares to reconstruct a chunk;
//   - metadata replication: every version's record stays recoverable from
//     at least MetaT intact metadata shares;
//   - garbage-freedom: every object stored at any provider is accounted
//     for (a share of a referenced chunk, residue of a failed upload, a
//     metadata share of a known version, or the CSP status list), and
//     deletion never removes data that other versions still reference;
//   - convergence: after a full sync all clients agree on the version
//     tree, on every file's head, and on the detected conflicts.
//
// The driver is deterministic: the operation mix and the fault schedule
// derive only from the seed and the scripted Schedule, so a failing run
// reproduces from its seed. (Operation outcomes feed back into later
// driver choices only through client state, which is itself a function of
// the same seed and schedule.)
//
// The harness is the regression gate for the scaling work tracked in
// ROADMAP.md: any refactor or performance change must keep every named
// scenario in harness_test.go green.
package harness

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/erasure"
	"repro/internal/lifecycle"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/transfer"
	"repro/internal/vclock"
)

// Options configures one simulation run. Zero values take the documented
// defaults.
type Options struct {
	// Seed drives every random choice of the run. Runs with equal Options
	// are reproducible.
	Seed int64

	Clients   int // concurrent clients (default 2)
	Providers int // simulated CSPs (default 5)
	T         int // chunk privacy level (default 2)
	N         int // shares per chunk (default 3)
	MetaT     int // metadata privacy level (default 2)

	Ops      int // workload length (default 160)
	Files    int // distinct file names the workload touches (default 6)
	MaxBytes int // maximum file size per Put (default 4096)

	// Clustered groups providers two per platform cluster and enables the
	// at-most-one-share-per-platform placement constraint.
	Clustered bool

	// Virtual runs the clients under netsim virtual time, each on its own
	// node with per-provider links; the SlowLink/RestoreLink schedule
	// actions only work in this mode.
	Virtual bool

	// Schedule is the scripted fault sequence, applied by op index.
	Schedule Schedule

	// Transfer bounds every client's transfer engine (per-CSP and global
	// in-flight caps, retry policy). Zero values take core's defaults.
	Transfer transfer.Tunables

	// CheckKills controls the failure sweep of the durability check:
	// 0 (the default) fails every provider subset of size N−T, the
	// system's tolerance; −1 disables simulated failures (the fresh-client
	// recovery check still runs with everything up — scenarios that
	// deliberately corrupt chunk shares use this, since a corruption plus
	// a failure exceeds the correcting decoder's bound); k > 0 fails every
	// subset of exactly k providers.
	CheckKills int

	// BreakPlacement seeds a deliberate bug: after the first acknowledged
	// Put, one share of its first chunk is copied onto a provider that
	// already holds another share of the same chunk — the state a reverted
	// placement guard would produce. The placement/privacy invariants must
	// flag it (used by the harness's own self-test).
	BreakPlacement bool

	// BreakDurability seeds a deliberate bug: after the first acknowledged
	// Put, two share objects of its first chunk are silently removed from
	// the providers' durable state. The durability invariant must flag it.
	BreakDurability bool

	// Streaming routes the workload's Puts and Gets through the streaming
	// pipeline (PutReader fed via ragged reader fragments, GetTo into a
	// buffer) instead of the whole-buffer wrappers. The durability and
	// read-guarantee oracles are unchanged: both planes must satisfy the
	// same invariants under the same faults.
	Streaming bool

	// Dedup runs every client in convergent dedup mode (content-addressed
	// share objects, refcounted GC) with a run-wide deployment secret. All
	// invariants are checked unchanged — shared shares must not weaken
	// durability, placement, or t-privacy — and the expected share bytes
	// are recomputed with the content-derived coders.
	Dedup bool

	// MetaShards, when positive, enables hashring-sharded metadata
	// placement on every client (core.Config.MetaShards). The
	// meta-replication check is shard-aware for free: metadata shares are
	// prefix-stable in n, so a shard subset's shares byte-match the full
	// placement's prefix.
	MetaShards int

	// MetaCacheEntries enables the metadata freshness marks on every
	// client. The checkpoint adds a cache-coherence oracle: after quiesce,
	// no client may hold a mark that differs from its tree's live head
	// (i.e. no client would serve a superseded version off a mark). TreeRetention is deliberately NOT a harness knob: the
	// durability oracle re-reads every acknowledged historical version,
	// which compaction legitimately prunes.
	MetaCacheEntries int

	// Recorder, when set, tunes the shared observer's flight recorder
	// (trigger thresholds, ring capacity, dump retention). nil keeps the
	// observer defaults — the recorder itself is always attached.
	Recorder *obs.RecorderConfig

	// Classes, ClassRules, and DefaultClass configure storage classes on
	// every client (core.Config pass-through). Class scenarios must give
	// each class explicit T and N so the invariant checker can recompute
	// the expected share bytes of every encoding, and schedule Demote
	// steps to drive the lifecycle migrator. The oracles then tighten:
	// per-class durability and t-privacy, per-version class consistency
	// (no torn transitions), and source-encoding survival across
	// demotions.
	Classes      []policy.Class
	ClassRules   []policy.Rule
	DefaultClass string

	// FailureThreshold overrides every client's provider-failure estimator
	// window (core default 24h). Chaos scenarios that want csp.down
	// transitions — and the flight-recorder triggers hanging off them —
	// within a few virtual seconds must lower it.
	FailureThreshold time.Duration

	// SLOObjectives overrides per-op latency objectives on the shared
	// observer (netsim latencies sit far below the WAN defaults).
	SLOObjectives map[string]time.Duration
}

func (o Options) withDefaults() Options {
	if o.Clients == 0 {
		o.Clients = 2
	}
	if o.Providers == 0 {
		o.Providers = 5
	}
	if o.T == 0 {
		o.T = 2
	}
	if o.N == 0 {
		o.N = 3
	}
	if o.MetaT == 0 {
		o.MetaT = 2
	}
	if o.Ops == 0 {
		o.Ops = 160
	}
	if o.Files == 0 {
		o.Files = 6
	}
	if o.MaxBytes == 0 {
		o.MaxBytes = 4096
	}
	return o
}

// chunkingConfig is shared by every client and by the invariant checker
// (which re-chunks acknowledged contents to recompute expected share
// bytes). Rabin is pinned so a seed keeps replaying the universe it always
// has.
var chunkingConfig = chunker.Config{Algorithm: chunker.Rabin, AverageSize: 1024, MinSize: 256, MaxSize: 4096, Window: 48}

// sharedKey is the user key all clients of a run share.
const sharedKey = "harness-shared-user-key"

// harnessDedupSecret is the deployment secret of dedup-mode runs.
const harnessDedupSecret = "harness-deployment-secret"

// AckedWrite is one acknowledged Put: the durability oracle.
type AckedWrite struct {
	File      string
	VersionID string
	Client    string
	Data      []byte
}

// Violation is one invariant breach found by a checkpoint.
type Violation struct {
	Invariant string // durability | placement | privacy | meta-replication | garbage | convergence | read | cache
	Detail    string
}

// Report summarizes a run.
type Report struct {
	Ops         int
	Acked       int
	FailedPuts  int
	Reads       int
	Versions    int // version nodes in the converged tree
	Chunks      int // unique referenced chunks
	Checkpoints int
	AckedVIDs   []string // acknowledged version IDs in ack order
	Violations  []Violation

	// Metrics is the aggregate observability snapshot of all workload
	// clients, captured when the workload ends and before the checkpoint's
	// inspector traffic (inspectors carry no observer). Two runs of the same
	// scenario produce comparable snapshots.
	Metrics *obs.Snapshot

	// FlightDumps are the flight-recorder dumps retained at the end of the
	// run: anomaly-triggered dumps from the workload plus one dump per
	// invariant violation (violate() force-dumps so the event context of a
	// breach is preserved for post-hoc diagnosis).
	FlightDumps []obs.FlightDump
}

// String renders a one-line summary plus any violations.
func (r *Report) String() string {
	s := fmt.Sprintf("ops=%d acked=%d failedPuts=%d reads=%d versions=%d chunks=%d checkpoints=%d violations=%d",
		r.Ops, r.Acked, r.FailedPuts, r.Reads, r.Versions, r.Chunks, r.Checkpoints, len(r.Violations))
	for _, v := range r.Violations {
		s += fmt.Sprintf("\n  [%s] %s", v.Invariant, v.Detail)
	}
	return s
}

// Harness owns the simulated world of one run.
type Harness struct {
	opts     Options
	rng      *rand.Rand
	net      *netsim.Network // nil unless Virtual
	backends map[string]*cloudsim.Backend
	names    []string          // provider names, sorted
	clusters map[string]string // provider -> platform; nil unless Clustered
	clients  []*core.Client
	chunk    *chunker.Chunker
	coder    *erasure.Coder
	conv     *erasure.ConvergentCoder // nil unless Dedup
	obs      *obs.Observer            // shared by all workload clients

	acked      []AckedWrite
	ackedByVID map[string][]byte
	lastAcked  map[string][]byte // file -> last acknowledged content
	failedPuts [][]byte          // contents of failed Puts (expected residue)
	corrupted  map[string]bool   // csp + "/" + object: harness-injected rot
	sabotaged  bool              // Break* injection already performed

	migrators map[int]*lifecycle.Migrator // lazily built per client index
	lifeGroup vclock.Group                // joins in-flight Demote runs

	pending []Step // schedule sorted by At
	report  Report
}

// defaultLink is the virtual-time link every client gets to every provider
// until a SlowLink step degrades it.
var defaultLink = netsim.LinkConfig{RTT: 20 * time.Millisecond, UpBps: 4 << 20, DownBps: 8 << 20}

// New builds the simulated world: backends, clients, and (when Virtual)
// the netsim network.
func New(opts Options) (*Harness, error) {
	opts = opts.withDefaults()
	h := &Harness{
		opts:       opts,
		rng:        rand.New(rand.NewSource(opts.Seed)),
		backends:   make(map[string]*cloudsim.Backend),
		ackedByVID: make(map[string][]byte),
		lastAcked:  make(map[string][]byte),
		corrupted:  make(map[string]bool),
		coder:      erasure.NewCoder(sharedKey),
		migrators:  make(map[int]*lifecycle.Migrator),
	}
	oo := obs.Options{SLOObjectives: opts.SLOObjectives}
	if opts.Recorder != nil {
		oo.Recorder = *opts.Recorder
	}
	h.obs = obs.NewObserverWith(oo)
	if opts.Dedup {
		h.conv = erasure.NewConvergentCoder(harnessDedupSecret)
	}
	ch, err := chunker.New(chunkingConfig)
	if err != nil {
		return nil, err
	}
	h.chunk = ch

	if opts.Virtual {
		h.net = netsim.New(time.Date(2015, 4, 21, 0, 0, 0, 0, time.UTC))
	}
	for i := 0; i < opts.Providers; i++ {
		name := fmt.Sprintf("csp%c", 'a'+i)
		identity := csp.NameKeyed
		if i%2 == 1 {
			identity = csp.IDKeyed
		}
		h.backends[name] = cloudsim.NewBackend(name, identity, 0)
		h.names = append(h.names, name)
	}
	sort.Strings(h.names)
	if opts.Clustered {
		h.clusters = make(map[string]string, len(h.names))
		for i, name := range h.names {
			h.clusters[name] = fmt.Sprintf("platform%d", i/2)
		}
	}

	// Client construction authenticates every store, which in virtual mode
	// charges the network — so it must run inside the scheduler.
	var buildErr error
	build := func() {
		for i := 0; i < opts.Clients; i++ {
			id := fmt.Sprintf("client%d", i)
			var node string
			if h.net != nil {
				node = id
				h.net.AddNode(node, netsim.NodeConfig{})
				for _, cspName := range h.names {
					h.net.SetLink(node, cspName, defaultLink)
				}
			}
			c, err := h.buildClient(id, node, h.obs)
			if err != nil {
				buildErr = err
				return
			}
			h.clients = append(h.clients, c)
		}
	}
	if h.net != nil {
		h.net.Run(build)
	} else {
		build()
	}
	if buildErr != nil {
		return nil, buildErr
	}

	h.pending = append(h.pending, opts.Schedule...)
	for i := range h.pending {
		if h.pending[i].At > opts.Ops {
			h.pending[i].At = opts.Ops
		}
	}
	sort.SliceStable(h.pending, func(i, j int) bool { return h.pending[i].At < h.pending[j].At })
	return h, nil
}

// buildClient assembles one authenticated client. With node == "" the
// client's stores bypass the network (instant transfers, real clock);
// otherwise operations are charged to that netsim node's links. o is the
// observer to instrument with (nil disables instrumentation — inspector
// clients stay out of the workload's metrics).
func (h *Harness) buildClient(id, node string, o *obs.Observer) (*core.Client, error) {
	cfg := core.Config{
		ClientID:         id,
		Key:              sharedKey,
		T:                h.opts.T,
		N:                h.opts.N,
		MetaT:            h.opts.MetaT,
		MetaShards:       h.opts.MetaShards,
		MetaCacheEntries: h.opts.MetaCacheEntries,
		Chunking:         chunkingConfig,
		ClusterOf:        h.clusters,
		Obs:              o,
		Transfer:         h.opts.Transfer,
		FailureThreshold: h.opts.FailureThreshold,
		Classes:          h.opts.Classes,
		ClassRules:       h.opts.ClassRules,
		DefaultClass:     h.opts.DefaultClass,
	}
	if h.opts.Dedup {
		cfg.DedupMode = true
		cfg.DedupSecret = harnessDedupSecret
	}
	if node != "" {
		cfg.Runtime = h.net
	}
	var stores []csp.Store
	for _, name := range h.names {
		var sopts []cloudsim.Option
		if node != "" {
			sopts = append(sopts,
				cloudsim.WithTransport(cloudsim.NodeTransport{Net: h.net, Node: node}),
				cloudsim.WithClock(h.net.Now))
		}
		s := cloudsim.NewSimStore(h.backends[name], sopts...)
		if err := s.Authenticate(context.Background(), csp.Credentials{Token: "harness"}); err != nil {
			return nil, err
		}
		stores = append(stores, s)
	}
	return core.New(cfg, stores)
}

// inspector builds a fresh transport-less client used by the invariant
// checks — the paper's recover() device: only the key and the provider
// accounts, no local state.
func (h *Harness) inspector(id string) (*core.Client, error) {
	return h.buildClient(id, "", nil)
}

// now returns the run's notion of wall-clock time.
func (h *Harness) now() time.Time {
	if h.net != nil {
		return h.net.Now()
	}
	return time.Now()
}

// runtime returns the run's vclock.Runtime: the netsim scheduler when
// Virtual, the real clock otherwise.
func (h *Harness) runtime() vclock.Runtime {
	if h.net != nil {
		return h.net
	}
	return vclock.Real()
}

// runLifecycle fires one asynchronous scan-and-drain of client #i's
// lifecycle migrator (the Demote schedule action). The workload keeps
// running while the demotions are in flight — under netsim virtual time
// the interleaving with reads and faults is deterministic — and every
// checkpoint joins outstanding runs before auditing, so the checker never
// races a half-finished re-encode. The migrator only ever touches the
// client (which is safe for concurrent use); it must not touch the
// harness's oracle state from its goroutine.
func (h *Harness) runLifecycle(ctx context.Context, client int) {
	if client < 0 || client >= len(h.clients) {
		return
	}
	m := h.migrators[client]
	if m == nil {
		var err error
		m, err = lifecycle.New(lifecycle.Config{
			Client:  h.clients[client],
			Workers: 1,
			Runtime: h.runtime(),
		})
		if err != nil {
			h.violate("read", "building lifecycle migrator for client %d: %v", client, err)
			return
		}
		h.migrators[client] = m
	}
	if h.lifeGroup == nil {
		h.lifeGroup = h.runtime().NewGroup()
	}
	h.lifeGroup.Add(1)
	h.runtime().Go(func() {
		defer h.lifeGroup.Done()
		if _, err := m.Scan(ctx); err != nil {
			return
		}
		m.Run(ctx)
	})
}

// joinLifecycle blocks until every in-flight Demote run has finished.
func (h *Harness) joinLifecycle() {
	if h.lifeGroup != nil {
		h.lifeGroup.Wait()
	}
}

// Run executes the workload under the schedule, finishes with a quiescent
// checkpoint, and returns the report. It may be called once.
func (h *Harness) Run(ctx context.Context) *Report {
	body := func() {
		next := 0
		for i := 0; i < h.opts.Ops; i++ {
			next = h.applySchedule(ctx, i, next)
			h.step(ctx, i)
			h.report.Ops++
		}
		h.applySchedule(ctx, h.opts.Ops, next)
		h.joinLifecycle()
		snap := h.obs.Registry().Snapshot()
		h.report.Metrics = &snap
		h.checkpoint(ctx)
		h.report.FlightDumps = h.obs.FlightDumps()
	}
	if h.net != nil {
		h.net.Run(body)
	} else {
		body()
	}
	return &h.report
}

// violate records one invariant breach and force-dumps the flight
// recorder, so the event context leading up to the breach survives for
// post-hoc diagnosis (CI uploads the dumps as artifacts on failure).
func (h *Harness) violate(invariant, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	h.report.Violations = append(h.report.Violations, Violation{Invariant: invariant, Detail: detail})
	h.obs.FlightDump(obs.TriggerInvariant, invariant+": "+detail)
}

// randBytes draws n deterministic pseudo-random bytes.
func (h *Harness) randBytes(n int) []byte {
	b := make([]byte, n)
	h.rng.Read(b)
	return b
}

func short(id string) string {
	if len(id) > 8 {
		return id[:8]
	}
	return id
}
