package core

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestLinkModel: the per-CSP link model folds latencies and rates into
// 0.3-weight EWMAs, counts a zero-latency success without folding it in,
// and answers the downlink from its seed (or the default) until a download
// is observed.
func TestLinkModel(t *testing.T) {
	type contact struct {
		op      string
		bytes   int64
		elapsed time.Duration
	}
	cases := []struct {
		name     string
		seeds    map[string]float64
		contacts []contact
		latency  float64 // seconds
		samples  int64
		down, up float64
	}{
		{name: "untouched default", down: defaultSeedBps},
		{name: "untouched seed", seeds: map[string]float64{"a": 5 << 20}, down: 5 << 20},
		{
			// 0.1 seeds the EWMA, then 0.7 x 0.1 + 0.3 x 0.2 = 0.13.
			name:     "latency folds",
			contacts: []contact{{opList, 0, 100 * time.Millisecond}, {opDelete, 0, 200 * time.Millisecond}},
			latency:  0.13, samples: 2, down: defaultSeedBps,
		},
		{
			name:     "zero latency counted, not folded",
			contacts: []contact{{opList, 0, 100 * time.Millisecond}, {opDownload, 1 << 20, 0}},
			latency:  0.1, samples: 2, down: defaultSeedBps,
		},
		{
			// 2 MB/s seeds the downlink over the configured seed, then
			// 0.7 x 2 + 0.3 x 4 = 2.6 MB/s; the upload moves only the uplink.
			name:  "rates fold per direction",
			seeds: map[string]float64{"a": 5 << 20},
			contacts: []contact{
				{opDownload, 2 << 20, time.Second},
				{opDownload, 4 << 20, time.Second},
				{opUpload, 1 << 20, time.Second},
			},
			latency: 1, samples: 3, down: 2.6 * (1 << 20), up: 1 << 20,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newLinkModel(tc.seeds)
			for _, c := range tc.contacts {
				m.success("a", c.op, c.bytes, c.elapsed)
			}
			lat, samples := m.latency("a")
			if math.Abs(lat.Seconds()-tc.latency) > 1e-9 || samples != tc.samples {
				t.Errorf("latency = %v over %d samples, want %vs over %d", lat, samples, tc.latency, tc.samples)
			}
			if got := m.estimate("a"); math.Abs(got-tc.down) > 1e-6 {
				t.Errorf("downlink estimate = %v, want %v", got, tc.down)
			}
			var up float64
			if l := m.links["a"]; l != nil {
				up = l.upBps
			}
			if math.Abs(up-tc.up) > 1e-6 {
				t.Errorf("uplink estimate = %v, want %v", up, tc.up)
			}
		})
	}
}

// TestSharedObserverDoesNotSteer: clients may share one observer, but each
// arms hedging and sets its deadline from its own samples alone. Client A
// is armed at 100 ms; client B, on the same observer with one sample of its
// own, stays cold, and once armed takes its deadline from its own 20 ms
// EWMA — while A's deadline stays where A's samples put it.
func TestSharedObserverDoesNotSteer(t *testing.T) {
	env := newEnv(t, 5)
	o := obs.NewObserver()
	a := env.client("a", func(cfg *Config) { cfg.Obs = o })
	b := env.client("b", func(cfg *Config) { cfg.Obs = o })
	ctx := context.Background()
	feed := func(c *Client, n int, latency time.Duration) {
		for i := 0; i < n; i++ {
			c.recordResult("cspa", opList, nil, 0, latency)
		}
	}
	feed(a, 8, 100*time.Millisecond)
	feed(b, 1, 20*time.Millisecond)

	if got := b.hedgeAfter(ctx, "cspa", 0); got != 0 {
		t.Fatalf("client B with one sample armed off the shared observer: deadline %v", got)
	}
	if p, _ := o.Registry().Snapshot().Find(obs.MetricHedgeSuppressed, map[string]string{"csp": "cspa", "reason": "cold"}); p.Value != 1 {
		t.Errorf("hedge_suppressed{cspa,cold} = %v, want B's one cold suppression", p.Value)
	}

	feed(b, 7, 20*time.Millisecond)
	for _, c := range []*Client{a, b} {
		lat, _ := c.links.latency("cspa")
		if got, want := c.hedgeAfter(ctx, "cspa", 0), 3*lat; got != want {
			t.Errorf("client %s deadline %v, want 3 x its own EWMA %v = %v", c.cfg.ClientID, got, lat, want)
		}
	}
	if la, lb := a.hedgeAfter(ctx, "cspa", 0), b.hedgeAfter(ctx, "cspa", 0); la <= lb {
		t.Errorf("deadlines A %v, B %v: want A's (100 ms samples) above B's (20 ms samples)", la, lb)
	}
}
