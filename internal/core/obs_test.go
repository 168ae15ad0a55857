package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestObserverBridge drives a real Put/Get through a client wired to an
// Observer and checks that the event→metric bridge, the op spans, and the
// recordResult path all agree with an independent event subscription.
func TestObserverBridge(t *testing.T) {
	env := newEnv(t, 5)
	o := obs.NewObserver()
	c := env.client("c1", func(cfg *Config) { cfg.Obs = o })

	// Independent tally of the same event stream the bridge consumes.
	var mu sync.Mutex
	evCount := map[string]int{}
	evBytes := map[string]int64{} // csp+dir payload bytes, successes only
	c.Subscribe(func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		evCount[ev.Type.String()]++
		if ev.Err == nil && ev.CSP != "" && ev.Bytes > 0 {
			switch ev.Type {
			case EvSharePut, EvMetaPut:
				evBytes[ev.CSP+"/up"] += ev.Bytes
			case EvShareGet, EvMetaGet:
				evBytes[ev.CSP+"/down"] += ev.Bytes
			}
		}
	})

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

	// Op counters: exactly one put and one get, both ok; sync spans ran
	// inside both (best-effort sync) plus by themselves never here.
	for _, op := range []string{"put", "get"} {
		p, ok := s.Find(obs.MetricOpsTotal, map[string]string{"op": op, "result": "ok"})
		if !ok || p.Value != 1 {
			t.Errorf("ops_total{op=%s,result=ok} = %v (found=%v), want 1", op, p.Value, ok)
		}
	}

	// Event counters must equal the independent subscriber's tally.
	mu.Lock()
	defer mu.Unlock()
	for typ, n := range evCount {
		p, ok := s.Find(obs.MetricEventsTotal, map[string]string{"type": typ})
		if !ok || int(p.Value) != n {
			t.Errorf("events_total{type=%q} = %v (found=%v), want %d", typ, p.Value, ok, n)
		}
	}

	// Transfer byte counters must match the subscriber's per-csp/dir sums.
	for key, want := range evBytes {
		cspName, dir, _ := strings.Cut(key, "/")
		p, ok := s.Find(obs.MetricTransferBytes, map[string]string{"csp": cspName, "dir": dir})
		if !ok || int64(p.Value) != want {
			t.Errorf("transfer_bytes{csp=%s,dir=%s} = %v (found=%v), want %d", cspName, dir, p.Value, ok, want)
		}
	}

	// The CSP request path recorded every contact: some provider has
	// successes, and no provider is marked down in a healthy run.
	okPoints := 0
	for _, p := range s.Metrics {
		switch {
		case p.Name == obs.MetricCSPRequests && p.Labels["result"] == "ok" && p.Value > 0:
			okPoints++
		case p.Name == obs.MetricCSPDown && p.Value != 0:
			t.Errorf("csp_down{csp=%s} = %v in a healthy run", p.Labels["csp"], p.Value)
		}
	}
	if okPoints == 0 {
		t.Error("csp_requests_total{result=ok} recorded nothing after Put/Get")
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

// TestEventDurations: share/meta/chunk/file events carry durations from the
// client's runtime clock (zero under the instant test stores is fine for
// share events, but FileComplete wraps the whole op and must be set when a
// virtual clock advances — here we only assert the field is populated
// without error, i.e. non-negative).
func TestEventDurations(t *testing.T) {
	env := newEnv(t, 5)
	c := env.client("c1", func(cfg *Config) { cfg.Obs = obs.NewObserver() })
	var mu sync.Mutex
	sawFileComplete := false
	c.Subscribe(func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Duration < 0 {
			t.Errorf("event %s has negative duration %v", ev.Type, ev.Duration)
		}
		if ev.Type == EvFileComplete {
			sawFileComplete = true
		}
	})
	if err := c.Put(context.Background(), "f", randData(3, 4096)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !sawFileComplete {
		t.Error("no FileComplete event observed")
	}
}
