package lifecycle

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/vclock"
)

var bg = context.Background()

// shiftedRuntime is the real runtime with Now() offset into the future, so
// tests can age objects past a class TTL without sleeping.
type shiftedRuntime struct {
	vclock.Runtime
	offset time.Duration
}

func (s shiftedRuntime) Now() time.Time { return s.Runtime.Now().Add(s.offset) }

// later is the real runtime two hours ahead: past the hot class's TTL.
var later = shiftedRuntime{vclock.Real(), 2 * time.Hour}

// world is six shared provider backends plus per-device clients configured
// with a hot class that demotes to cold after one hour idle.
type world struct {
	t        *testing.T
	names    []string
	backends map[string]*cloudsim.Backend
}

func newWorld(t *testing.T) *world {
	t.Helper()
	w := &world{t: t, backends: make(map[string]*cloudsim.Backend)}
	w.names = []string{"cspa", "cspb", "cspc", "cspd", "cspe", "cspf"}
	for i, n := range w.names {
		id := csp.NameKeyed
		if i%2 == 1 {
			id = csp.IDKeyed
		}
		w.backends[n] = cloudsim.NewBackend(n, id, 0)
	}
	return w
}

func (w *world) client(id string) *core.Client {
	w.t.Helper()
	var stores []csp.Store
	for _, n := range w.names {
		s := cloudsim.NewSimStore(w.backends[n])
		if err := s.Authenticate(bg, csp.Credentials{Token: id}); err != nil {
			w.t.Fatal(err)
		}
		stores = append(stores, s)
	}
	c, err := core.New(core.Config{
		ClientID: id, Key: "shared-user-key", T: 2, N: 3,
		Chunking: chunker.Config{AverageSize: 1024, MinSize: 256, MaxSize: 4096, Window: 48},
		Classes: []policy.Class{
			{Name: "hot", Tier: policy.TierHot, T: 2, N: 3,
				CSPs:        []string{"cspa", "cspb", "cspc"},
				DemoteAfter: time.Hour, DemoteTo: "cold"},
			{Name: "cold", Tier: policy.TierCold, T: 3, N: 3,
				CSPs: []string{"cspd", "cspe", "cspf"}},
		},
		ClassRules:   []policy.Rule{{Prefix: "archive/", Class: "cold"}},
		DefaultClass: "hot",
	}, stores)
	if err != nil {
		w.t.Fatal(err)
	}
	return c
}

func randData(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

func classOf(t *testing.T, c *core.Client, name string) string {
	t.Helper()
	fi, err := c.StatLocal(name)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Class
}

// putAll stores every payload under its name.
func putAll(t *testing.T, c *core.Client, payload map[string][]byte) {
	t.Helper()
	for name, data := range payload {
		if err := c.Put(bg, name, data); err != nil {
			t.Fatal(err)
		}
	}
}

// checkClassAndBytes asserts that every named object reads back its payload
// byte-identically and that its head is in class want.
func checkClassAndBytes(t *testing.T, c *core.Client, payload map[string][]byte, want string) {
	t.Helper()
	for name, data := range payload {
		if got := classOf(t, c, name); got != want {
			t.Fatalf("%s class = %q, want %q", name, got, want)
		}
		got, _, err := c.Get(bg, name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: read bytes differ from the payload", name)
		}
	}
}

// run makes one pass and fails the test unless it returns (migrated,
// failed, nil).
func run(t *testing.T, cfg Config, migrated, failed int) {
	t.Helper()
	m, f, err := Run(bg, cfg)
	if err != nil || m != migrated || f != failed {
		t.Fatalf("Run = (%d, %d, %v), want (%d, %d, nil)", m, f, err, migrated, failed)
	}
}

// TestScanEnqueuesOnlyEligible: a pass demotes exactly the heads whose class
// has a rule and whose TTL has passed; a class without a rule and a head
// younger than the TTL are left alone.
func TestScanEnqueuesOnlyEligible(t *testing.T) {
	t.Parallel()
	w := newWorld(t)
	c := w.client("alice")
	hot := map[string][]byte{"docs/a": randData(1, 6_000), "docs/b": randData(2, 6_000)}
	putAll(t, c, hot)
	// Already cold: no lifecycle rule applies.
	cold := map[string][]byte{"archive/old": randData(3, 6_000)}
	putAll(t, c, cold)

	// Before the TTL elapses nothing is due.
	run(t, Config{Client: c}, 0, 0)
	checkClassAndBytes(t, c, hot, "hot")

	// Two hours later both hot objects are, the cold one still is not.
	run(t, Config{Client: c, Runtime: later}, 2, 0)
	checkClassAndBytes(t, c, hot, "cold")
	checkClassAndBytes(t, c, cold, "cold")
	// A demoted object is no longer due: the cold class has no rule.
	run(t, Config{Client: c, Runtime: later}, 0, 0)
}

func TestRunDemotesAndClears(t *testing.T) {
	t.Parallel()
	w := newWorld(t)
	c := w.client("alice")
	payload := map[string][]byte{
		"docs/a": randData(10, 20_000),
		"docs/b": randData(11, 9_000),
		"docs/c": randData(12, 2_000),
	}
	putAll(t, c, payload)
	o := obs.NewObserver()
	cfg := Config{Client: c, Workers: 2, Runtime: later, Obs: o}
	run(t, cfg, 3, 0)
	checkClassAndBytes(t, c, payload, "cold")
	run(t, cfg, 0, 0)
	s := o.Registry().Snapshot()
	if p, _ := s.Find(obs.MetricLifecycleMigrations, nil); p.Value != 3 {
		t.Fatalf("%s = %v, want 3", obs.MetricLifecycleMigrations, p.Value)
	}
	if p, _ := s.Find(obs.MetricLifecycleBytes, nil); p.Value != 31_000 {
		t.Fatalf("%s = %v, want 31000", obs.MetricLifecycleBytes, p.Value)
	}
}

// TestFailedJobsStayQueued: a demotion that fails leaves its head in the
// source class, so the next pass finds it again and completes it.
func TestFailedJobsStayQueued(t *testing.T) {
	t.Parallel()
	w := newWorld(t)
	c := w.client("alice")
	payload := map[string][]byte{"docs/stuck": randData(20, 15_000)}
	putAll(t, c, payload)
	o := obs.NewObserver()
	cfg := Config{Client: c, Runtime: later, Obs: o}
	// Every provider down: the re-encode cannot gather and must fail.
	for _, n := range w.names {
		w.backends[n].SetAvailable(false)
	}
	run(t, cfg, 0, 1)
	if got := classOf(t, c, "docs/stuck"); got != "hot" {
		t.Fatalf("class after the failed pass = %q, want hot", got)
	}
	if p, _ := o.Registry().Snapshot().Find(obs.MetricLifecycleFailures, nil); p.Value != 1 {
		t.Fatalf("%s = %v, want 1", obs.MetricLifecycleFailures, p.Value)
	}
	// Providers recover; the next pass completes the demotion.
	for _, n := range w.names {
		w.backends[n].SetAvailable(true)
	}
	run(t, cfg, 1, 0)
	checkClassAndBytes(t, c, payload, "cold")
}

// cancelAfterWave is a runtime whose groups cancel a context once their
// first Wait returns: a lifecycle pass with one worker is cut right after
// its first demotion published.
type cancelAfterWave struct {
	vclock.Runtime
	cancel context.CancelFunc
}

func (r cancelAfterWave) NewGroup() vclock.Group {
	return cancelGroup{r.Runtime.NewGroup(), r.cancel}
}

type cancelGroup struct {
	vclock.Group
	cancel context.CancelFunc
}

func (g cancelGroup) Wait() {
	g.Group.Wait()
	g.cancel()
}

// TestCrashResume: a pass cut short after its first published demotion
// leaves the other names hot and readable; the next pass demotes exactly
// those, and a further pass finds nothing to do and uploads nothing.
func TestCrashResume(t *testing.T) {
	t.Parallel()
	w := newWorld(t)
	c := w.client("alice")
	first := map[string][]byte{"docs/x": randData(30, 18_000)}
	rest := map[string][]byte{
		"docs/y": randData(31, 7_000),
		"docs/z": randData(32, 11_000),
	}
	putAll(t, c, first)
	putAll(t, c, rest)

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	cut := Config{Client: c, Workers: 1, Runtime: cancelAfterWave{later, cancel}}
	migrated, failed, err := Run(ctx, cut)
	if migrated != 1 || failed != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("cut pass = (%d, %d, %v), want (1, 0, context.Canceled)", migrated, failed, err)
	}
	checkClassAndBytes(t, c, first, "cold")
	checkClassAndBytes(t, c, rest, "hot")
	demoted, err := c.StatLocal("docs/x")
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{Client: c, Workers: 1, Runtime: later}
	run(t, cfg, 2, 0)
	checkClassAndBytes(t, c, first, "cold")
	checkClassAndBytes(t, c, rest, "cold")
	if fi, _ := c.StatLocal("docs/x"); fi.VersionID != demoted.VersionID {
		t.Fatalf("the second pass re-published docs/x: %s over %s", fi.VersionID, demoted.VersionID)
	}

	for _, n := range w.names {
		w.backends[n].ResetStats()
	}
	run(t, cfg, 0, 0)
	for _, n := range w.names {
		if up := w.backends[n].Stats().Uploads; up != 0 {
			t.Fatalf("%s: %d uploads by a pass with nothing due", n, up)
		}
	}
}
