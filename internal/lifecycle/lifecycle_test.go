package lifecycle

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"path/filepath"
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

func TestScanEnqueuesOnlyEligible(t *testing.T) {
	t.Parallel()
	w := newWorld(t)
	c := w.client("alice")
	for name, seed := range map[string]int64{"docs/a": 1, "docs/b": 2} {
		if err := c.Put(bg, name, randData(seed, 6_000)); err != nil {
			t.Fatal(err)
		}
	}
	// Already cold: no lifecycle rule applies.
	if err := c.Put(bg, "archive/old", randData(3, 6_000)); err != nil {
		t.Fatal(err)
	}

	// Before the TTL elapses nothing is eligible.
	young, err := New(Config{Client: c})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := young.Scan(bg); err != nil || n != 0 {
		t.Fatalf("young scan = (%d, %v)", n, err)
	}

	// Two hours later both hot objects are, the cold one still is not.
	m, err := New(Config{Client: c, Runtime: shiftedRuntime{vclock.Real(), 2 * time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.Scan(bg)
	if err != nil || n != 2 {
		t.Fatalf("scan = (%d, %v)", n, err)
	}
	for _, j := range m.Pending() {
		if j.From != "hot" || j.Target != "cold" {
			t.Fatalf("job = %+v", j)
		}
	}
	// Re-scanning does not duplicate queued jobs.
	if n, err := m.Scan(bg); err != nil || n != 0 {
		t.Fatalf("rescan = (%d, %v)", n, err)
	}
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
	for name, data := range payload {
		if err := c.Put(bg, name, data); err != nil {
			t.Fatal(err)
		}
	}
	st := NewMemState()
	m, err := New(Config{Client: c, State: st, Workers: 2,
		Runtime: shiftedRuntime{vclock.Real(), 2 * time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := m.Scan(bg); err != nil || n != 3 {
		t.Fatalf("scan = (%d, %v)", n, err)
	}
	migrated, failed := m.Run(bg)
	if migrated != 3 || failed != 0 {
		t.Fatalf("run = (%d, %d)", migrated, failed)
	}
	for name, data := range payload {
		if got := classOf(t, c, name); got != "cold" {
			t.Fatalf("%s class = %q", name, got)
		}
		got, _, err := c.Get(bg, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s mismatch post-demotion", name)
		}
	}
	if len(m.Pending()) != 0 {
		t.Fatalf("pending = %+v", m.Pending())
	}
	if jobs, _ := st.Load(); len(jobs) != 0 {
		t.Fatalf("checkpoints not cleared: %+v", jobs)
	}
	// A demoted object is no longer eligible: the cold class has no rule.
	if n, err := m.Scan(bg); err != nil || n != 0 {
		t.Fatalf("post-demotion scan = (%d, %v)", n, err)
	}
}

func TestFailedJobsStayQueued(t *testing.T) {
	t.Parallel()
	w := newWorld(t)
	c := w.client("alice")
	data := randData(20, 15_000)
	if err := c.Put(bg, "docs/stuck", data); err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Client: c, Runtime: shiftedRuntime{vclock.Real(), 2 * time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Scan(bg); err != nil {
		t.Fatal(err)
	}
	// Every provider down: the re-encode cannot gather and must fail
	// without dequeuing the job.
	for _, n := range w.names {
		w.backends[n].SetAvailable(false)
	}
	migrated, failed := m.Run(bg)
	if migrated != 0 || failed != 1 {
		t.Fatalf("degraded run = (%d, %d)", migrated, failed)
	}
	if len(m.Pending()) != 1 {
		t.Fatalf("pending = %+v", m.Pending())
	}
	// Providers recover; the queued job completes on the next Run.
	for _, n := range w.names {
		w.backends[n].SetAvailable(true)
	}
	migrated, failed = m.Run(bg)
	if migrated != 1 || failed != 0 {
		t.Fatalf("recovered run = (%d, %d)", migrated, failed)
	}
	got, _, err := c.Get(bg, "docs/stuck")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch after recovery")
	}
}

// clearFailsOnce is a State whose first Clear fails.
type clearFailsOnce struct {
	*MemState
	failed bool
}

func (s *clearFailsOnce) Clear(name string) error {
	if !s.failed {
		s.failed = true
		return errors.New("checkpoint store unavailable")
	}
	return s.MemState.Clear(name)
}

// TestClearFailureKeepsJobQueued: a demotion whose checkpoint cannot be
// cleared is a failed job — it stays pending and checkpointed, and counts
// in cyrus_lifecycle_failures_total. The next Run finds the head already
// in the target class, publishes nothing, and clears the checkpoint.
func TestClearFailureKeepsJobQueued(t *testing.T) {
	t.Parallel()
	w := newWorld(t)
	c := w.client("alice")
	if err := c.Put(bg, "docs/a", randData(40, 12_000)); err != nil {
		t.Fatal(err)
	}
	st := &clearFailsOnce{MemState: NewMemState()}
	o := obs.NewObserver()
	m, err := New(Config{Client: c, State: st, Obs: o,
		Runtime: shiftedRuntime{vclock.Real(), 2 * time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := m.Scan(bg); err != nil || n != 1 {
		t.Fatalf("scan = (%d, %v)", n, err)
	}
	counts := func() (migrations, failures float64) {
		s := o.Registry().Snapshot()
		mp, _ := s.Find(obs.MetricLifecycleMigrations, nil)
		fp, _ := s.Find(obs.MetricLifecycleFailures, nil)
		return mp.Value, fp.Value
	}

	if migrated, failed := m.Run(bg); migrated != 0 || failed != 1 {
		t.Fatalf("run with a failing clear = (%d, %d), want (0, 1)", migrated, failed)
	}
	if got := classOf(t, c, "docs/a"); got != "cold" {
		t.Fatalf("class after the re-encode = %q", got)
	}
	if len(m.Pending()) != 1 {
		t.Fatalf("pending = %+v, want the job kept", m.Pending())
	}
	if jobs, _ := st.Load(); len(jobs) != 1 {
		t.Fatalf("checkpoints = %+v, want the job kept", jobs)
	}
	if mig, fail := counts(); mig != 1 || fail != 1 {
		t.Fatalf("migrations, failures = %v, %v; want 1, 1", mig, fail)
	}
	before, err := c.StatLocal("docs/a")
	if err != nil {
		t.Fatal(err)
	}

	if migrated, failed := m.Run(bg); migrated != 1 || failed != 0 {
		t.Fatalf("retry run = (%d, %d), want (1, 0)", migrated, failed)
	}
	if len(m.Pending()) != 0 {
		t.Fatalf("pending = %+v after the retry", m.Pending())
	}
	if jobs, _ := st.Load(); len(jobs) != 0 {
		t.Fatalf("checkpoints not cleared by the retry: %+v", jobs)
	}
	if after, _ := c.StatLocal("docs/a"); after.VersionID != before.VersionID {
		t.Fatalf("the retry published version %s over %s: the re-encode was not a no-op", after.VersionID, before.VersionID)
	}
	if mig, fail := counts(); mig != 1 || fail != 1 {
		t.Fatalf("migrations, failures = %v, %v after the retry; want 1, 1", mig, fail)
	}
}

// TestCrashResume is the acceptance scenario: a migrator checkpoints its
// queue to disk, "crashes" before finishing, and a fresh migrator over the
// same state file picks the demotions back up; reads stay byte-identical
// throughout.
func TestCrashResume(t *testing.T) {
	t.Parallel()
	w := newWorld(t)
	c := w.client("alice")
	payload := map[string][]byte{
		"docs/x": randData(30, 18_000),
		"docs/y": randData(31, 7_000),
	}
	for name, data := range payload {
		if err := c.Put(bg, name, data); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "lifecycle.json")
	rt := shiftedRuntime{vclock.Real(), 2 * time.Hour}

	st1, err := NewFileState(path)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := New(Config{Client: c, State: st1, Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := m1.Scan(bg); err != nil || n != 2 {
		t.Fatalf("scan = (%d, %v)", n, err)
	}
	// Crash before Run: m1 is abandoned with both jobs checkpointed. The
	// objects still read back — nothing has been touched yet.
	for name, data := range payload {
		if got, _, err := c.Get(bg, name); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("mid-queue read %s: %v", name, err)
		}
	}

	st2, err := NewFileState(path)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(Config{Client: c, State: st2, Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m2.Pending()); got != 2 {
		t.Fatalf("resumed queue depth = %d", got)
	}
	migrated, failed := m2.Run(bg)
	if migrated != 2 || failed != 0 {
		t.Fatalf("resumed run = (%d, %d)", migrated, failed)
	}
	for name, data := range payload {
		if got := classOf(t, c, name); got != "cold" {
			t.Fatalf("%s class = %q", name, got)
		}
		got, _, err := c.Get(bg, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s mismatch after resume", name)
		}
	}
	if jobs, _ := st2.Load(); len(jobs) != 0 {
		t.Fatalf("state file not drained: %+v", jobs)
	}

	// Resuming a queue whose jobs already completed is a clean no-op:
	// ReencodeClass sees the cold head and reports no change.
	st3, err := NewFileState(path)
	if err != nil {
		t.Fatal(err)
	}
	for name := range payload {
		if err := st3.Save(Job{Name: name, From: "hot", Target: "cold"}); err != nil {
			t.Fatal(err)
		}
	}
	m3, err := New(Config{Client: c, State: st3, Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	migrated, failed = m3.Run(bg)
	if migrated != 2 || failed != 0 {
		t.Fatalf("replayed run = (%d, %d)", migrated, failed)
	}
}
