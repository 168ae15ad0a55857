package core

import (
	"context"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/chunker"
	"repro/internal/csp"
	"repro/internal/obs"
)

// transferRec is one object transfer a recordingStore served.
type transferRec struct {
	CSP   string
	Name  string // "" for a batch
	Up    bool   // an upload; otherwise a download
	Bytes int64  // payload moved
	Err   error
}

// recordingStore hands rec every object upload and download it serves — a
// batch is one download of its summed bytes — after the wrapped store
// answered. It keeps the streaming and batch reads of the store it wraps
// (RefStore is not forwarded: dedup falls back to plain uploads).
type recordingStore struct {
	csp.Store
	rec func(transferRec)
}

// recording wraps stores for wrappedClient.
func recording(rec func(transferRec)) func(csp.Store) csp.Store {
	return func(s csp.Store) csp.Store { return &recordingStore{Store: s, rec: rec} }
}

func (s *recordingStore) Upload(ctx context.Context, name string, data []byte) error {
	err := s.Store.Upload(ctx, name, data)
	s.rec(transferRec{CSP: s.Name(), Name: name, Up: true, Bytes: int64(len(data)), Err: err})
	return err
}

func (s *recordingStore) Download(ctx context.Context, name string) ([]byte, error) {
	data, err := s.Store.Download(ctx, name)
	s.rec(transferRec{CSP: s.Name(), Name: name, Bytes: int64(len(data)), Err: err})
	return data, err
}

func (s *recordingStore) DownloadTo(ctx context.Context, name string, w io.Writer) (int64, error) {
	n, err := csp.DownloadTo(ctx, s.Store, name, w)
	s.rec(transferRec{CSP: s.Name(), Name: name, Bytes: n, Err: err})
	return n, err
}

func (s *recordingStore) DownloadBatch(ctx context.Context, names []string) (map[string][]byte, error) {
	out, err := csp.DownloadBatch(ctx, s.Store, names)
	var n int64
	for _, d := range out {
		n += int64(len(d))
	}
	s.rec(transferRec{CSP: s.Name(), Bytes: n, Err: err})
	return out, err
}

// isShareGet reports a chunk-share download.
func (r transferRec) isShareGet() bool { return !r.Up && strings.HasPrefix(r.Name, SharePrefix) }

// TestObserverBridge drives a real Put/Get through a client wired to an
// Observer and checks that the op spans, the recordResult path and the
// transfer byte counters agree with what the providers actually served.
func TestObserverBridge(t *testing.T) {
	env := newEnv(t, 5)
	o := obs.NewObserver()
	// Independent tally of the payload the stores moved, successes only.
	var mu sync.Mutex
	served := map[string]int64{} // csp+"/"+dir
	c := wrappedClient(t, env, func(cfg *Config) { cfg.Obs = o }, recording(func(r transferRec) {
		if r.Err != nil || r.Bytes == 0 {
			return
		}
		dir := "/down"
		if r.Up {
			dir = "/up"
		}
		mu.Lock()
		served[r.CSP+dir] += r.Bytes
		mu.Unlock()
	}))

	ctx := context.Background()
	data := randData(7, 8192)
	if err := c.Put(ctx, "f.bin", data); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Get(ctx, "f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("roundtrip mismatch")
	}

	s := o.Registry().Snapshot()

	// Op counts: exactly one put and one get, both ok; sync spans ran
	// inside both (best-effort sync) plus by themselves never here.
	for _, op := range []string{"put", "get"} {
		p, ok := s.Find(obs.MetricOpDuration, map[string]string{"op": op, "result": "ok"})
		if !ok || p.Count != 1 {
			t.Errorf("op_duration_seconds_count{op=%s,result=ok} = %v (found=%v), want 1", op, p.Count, ok)
		}
	}

	// Transfer byte counters must equal the stores' per-csp/dir sums, both
	// ways round.
	mu.Lock()
	defer mu.Unlock()
	if len(served) == 0 {
		t.Fatal("the stores served no payload")
	}
	for key, want := range served {
		cspName, dir, _ := strings.Cut(key, "/")
		p, ok := s.Find(obs.MetricTransferBytes, map[string]string{"csp": cspName, "dir": dir})
		if !ok || int64(p.Value) != want {
			t.Errorf("transfer_bytes{csp=%s,dir=%s} = %v (found=%v), want %d", cspName, dir, p.Value, ok, want)
		}
	}
	for _, p := range s.Metrics {
		if key := p.Labels["csp"] + "/" + p.Labels["dir"]; p.Name == obs.MetricTransferBytes && served[key] == 0 {
			t.Errorf("transfer_bytes{csp=%s,dir=%s} = %v, but the store moved nothing", p.Labels["csp"], p.Labels["dir"], p.Value)
		}
	}

	// The CSP request path recorded every contact: some provider has
	// successes, and no provider is marked down in a healthy run.
	okPoints := 0
	for _, p := range s.Metrics {
		switch {
		case p.Name == obs.MetricCSPRequestDuration && p.Labels["result"] == "ok" && p.Count > 0:
			okPoints++
		case p.Name == obs.MetricCSPDown && p.Value != 0:
			t.Errorf("csp_down{csp=%s} = %v in a healthy run", p.Labels["csp"], p.Value)
		}
	}
	if okPoints == 0 {
		t.Error("csp_request_duration_seconds{result=ok} recorded nothing after Put/Get")
	}

	// Selector decisions were counted.
	var picks float64
	for _, p := range s.Metrics {
		if p.Name == obs.MetricSelectorPicks {
			picks += p.Value
		}
	}
	if picks == 0 {
		t.Error("selector_picks_total never incremented during Get")
	}
}

// TestOneRecordPerTry: the observer records each provider try exactly once,
// as one attempt.start and one attempt.end flight event stamped with the
// enclosing span — there is no per-try span — so a small Put's flight
// events are its spans' open/close pairs plus one pair per try.
func TestOneRecordPerTry(t *testing.T) {
	env := newEnv(t, 4)
	o := obs.NewObserver()
	c := env.client("c1", func(cfg *Config) {
		cfg.Obs = o
		cfg.Chunking = chunker.Config{AverageSize: 64 << 10} // one chunk
	})
	if err := c.Put(context.Background(), "f", randData(3, 16<<10)); err != nil {
		t.Fatal(err)
	}
	tries := histCount(o.Registry().Snapshot(), obs.MetricCSPRequestDuration)
	kinds := map[string]int{}
	for _, ev := range o.FlightEvents() {
		kinds[ev.Kind]++
		switch {
		case ev.Kind == obs.FlightSpanOpen && strings.HasPrefix(ev.Name, "csp."):
			t.Errorf("a per-try span %q was opened", ev.Name)
		case ev.Kind == obs.FlightAttemptEnd && (ev.Span == 0 || ev.Duration < 0):
			t.Errorf("attempt.end %+v lacks its enclosing span or a duration", ev)
		}
	}
	t.Logf("%d tries, flight events %v", tries, kinds)
	if tries == 0 {
		t.Fatal("the Put made no provider contact")
	}
	for _, k := range []string{obs.FlightAttemptStart, obs.FlightAttemptEnd} {
		if kinds[k] != tries {
			t.Errorf("%d %s events for %d tries, want one per try", kinds[k], k, tries)
		}
	}
	if kinds[obs.FlightSpanOpen] != kinds[obs.FlightSpanClose] {
		t.Errorf("%d span.open vs %d span.close", kinds[obs.FlightSpanOpen], kinds[obs.FlightSpanClose])
	}
	if other := len(o.FlightEvents()) - 2*tries - 2*kinds[obs.FlightSpanClose]; other != 0 {
		t.Errorf("%d flight events beyond the span pairs and one pair per try: %v", other, kinds)
	}
}

// histCount sums the _count of every series of one histogram family.
func histCount(s obs.Snapshot, name string) int {
	n := 0
	for _, p := range s.Metrics {
		if p.Name == name {
			n += int(p.Count)
		}
	}
	return n
}

// TestOneRecordPerFact: each fact the client observes lands in one series.
// An op finish is one cyrus_op_duration_seconds{op,result} sample (op spans
// stay out of the child-span histogram), and a provider try is one
// cyrus_csp_request_duration_seconds sample, failed tries included, next to
// its one attempt.end flight event.
func TestOneRecordPerFact(t *testing.T) {
	env := newEnv(t, 4)
	o := obs.NewObserver()
	c := env.client("c1", func(cfg *Config) { cfg.Obs = o })
	ctx := context.Background()
	if err := c.Put(ctx, "f", randData(5, 16<<10)); err != nil {
		t.Fatal(err)
	}
	env.backends[env.names[0]].FailNext(1) // one failed try, which the engine retries
	if _, _, err := c.Get(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(ctx, "missing"); err == nil {
		t.Fatal("Get of a missing name succeeded")
	}
	s := o.Registry().Snapshot()

	for _, p := range s.Metrics {
		if p.Name == obs.MetricSpanDuration && strings.HasPrefix(p.Labels["span"], "core.") {
			t.Errorf("op span %s is also in %s", p.Labels["span"], obs.MetricSpanDuration)
		}
	}

	// The ops run are the op spans that closed: the put, both gets, and
	// the best-effort syncs inside them.
	ran := map[[2]string]uint64{}
	tries, failed := 0, 0
	for _, ev := range o.FlightEvents() {
		switch {
		case ev.Kind == obs.FlightSpanClose && strings.HasPrefix(ev.Name, "core."):
			result := "ok"
			if ev.Err != "" {
				result = "error"
			}
			ran[[2]string{ev.Op, result}]++
		case ev.Kind == obs.FlightAttemptEnd:
			tries++
			if ev.Err != "" {
				failed++
			}
		}
	}
	for _, want := range [][2]string{{"put", "ok"}, {"get", "ok"}, {"get", "error"}} {
		if ran[want] != 1 {
			t.Errorf("%d %s ops closed with result %s, want 1", ran[want], want[0], want[1])
		}
	}
	ops := 0
	for key, n := range ran {
		ops += int(n)
		p, ok := s.Find(obs.MetricOpDuration, map[string]string{"op": key[0], "result": key[1]})
		if !ok || p.Count != n {
			t.Errorf("%s_count{op=%s,result=%s} = %d (found %v), want %d", obs.MetricOpDuration, key[0], key[1], p.Count, ok, n)
		}
	}
	if got := histCount(s, obs.MetricOpDuration); got != ops {
		t.Errorf("%s counts %d ops, %d ran", obs.MetricOpDuration, got, ops)
	}

	if failed == 0 {
		t.Fatal("no provider try failed: the injected fault never hit")
	}
	if got := histCount(s, obs.MetricCSPRequestDuration); got != tries {
		t.Errorf("%s counts %d tries, %d attempt.end events", obs.MetricCSPRequestDuration, got, tries)
	}
}

// TestGetRangeIsSLOClassified: a range read is checked against the
// get_range objective, under the op name the client opens its span with.
func TestGetRangeIsSLOClassified(t *testing.T) {
	env := newEnv(t, 4)
	o := obs.NewObserver()
	c := env.client("c1", func(cfg *Config) { cfg.Obs = o })
	ctx := context.Background()
	if err := c.Put(ctx, "f", randData(4, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetRange(ctx, "f", 100, 200); err != nil {
		t.Fatal(err)
	}
	if p, ok := o.Registry().Snapshot().Find(obs.MetricSLOOK, map[string]string{"op": "get_range"}); !ok || p.Value != 1 {
		t.Errorf("%s{op=get_range} = %v (present %v), want 1", obs.MetricSLOOK, p.Value, ok)
	}
}

// TestObserverDisabled: a client without Config.Obs runs exactly as before
// with a nil observer.
func TestObserverDisabled(t *testing.T) {
	env := newEnv(t, 5)
	c := env.client("c1", nil)
	if c.obs != nil {
		t.Fatal("observer set without Config.Obs")
	}
	ctx := context.Background()
	if err := c.Put(ctx, "f", randData(1, 2048)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(ctx, "f"); err != nil {
		t.Fatal(err)
	}
}
