package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/transfer"
)

// sumMetric totals a counter across all label sets.
func sumMetric(s obs.Snapshot, name string) float64 {
	var total float64
	for _, p := range s.Metrics {
		if p.Name == name {
			total += p.Value
		}
	}
	return total
}

// raceReads is the HedgePolicy of a k-out-of-n race read: every hedged
// gather launches its redundant lanes at once.
func raceReads(string, time.Duration) time.Duration { return time.Nanosecond }

// TestRaceReadGolden is the race-read correctness gate: under a hedge policy
// that fires at once, Get launches redundant share lanes (counted in
// cyrus_transfer_hedges_total) and the returned bytes are identical to what
// Put stored — surplus or late shares must never change the decode.
func TestRaceReadGolden(t *testing.T) {
	t.Parallel()
	const MB = 1 << 20
	net := netsim.New(time.Time{})
	net.AddNode("client", netsim.NodeConfig{})
	names := []string{"w", "x", "y", "z"}
	var stores []csp.Store
	for i, name := range names {
		// Asymmetric links so the race has winners to pick and losers to
		// cancel.
		down := float64(2+6*i) * MB
		net.SetLink("client", name, netsim.LinkConfig{RTT: 20 * time.Millisecond, UpBps: 4 * MB, DownBps: down})
		b := cloudsim.NewBackend(name, csp.NameKeyed, 0)
		stores = append(stores, cloudsim.NewSimStore(b,
			cloudsim.WithTransport(cloudsim.NodeTransport{Net: net, Node: "client"}),
			cloudsim.WithClock(net.Now)))
	}
	o := obs.NewObserver()
	cfg := Config{
		ClientID: "alice", Key: "k", T: 2, N: 3,
		Chunking: chunker.Config{AverageSize: 256 << 10, MinSize: 64 << 10, MaxSize: 512 << 10},
		Runtime:  net,
		Obs:      o,
		Transfer: transfer.Tunables{MaxInFlight: 16, HedgePolicy: raceReads},
	}
	c, err := New(cfg, stores)
	if err != nil {
		t.Fatal(err)
	}

	data := randData(94, 3*MB)
	var got []byte
	net.Run(func() {
		for _, s := range stores {
			if err := s.Authenticate(bg, csp.Credentials{Token: "t"}); err != nil {
				t.Error(err)
				return
			}
		}
		if err := c.Put(bg, "golden.bin", data); err != nil {
			t.Error(err)
			return
		}
		// Two reads: the first with a cold link model, the second with
		// it warmed — both must be byte-exact.
		for i := 0; i < 2; i++ {
			var err error
			got, _, err = c.Get(bg, "golden.bin")
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, data) {
				t.Errorf("read %d: race read returned different bytes (%d vs %d)", i, len(got), len(data))
				return
			}
		}
	})
	if t.Failed() {
		return
	}

	s := o.Registry().Snapshot()
	if launched := sumMetric(s, obs.MetricTransferHedges); launched == 0 {
		t.Error("cyrus_transfer_hedges_total = 0: no redundant lane ever launched, the race read exercised nothing")
	}
}

// TestColdProviderReachesHedgePolicy: an injected hedge policy decides even
// for a provider this client holds no latency sample for (expected 0,
// "unknown"). After its Put the client forgets every sample, as a fresh
// device has none; its first Get meets a primary held up at its provider,
// and the policy's fixed deadline launches the backup that rescues the read.
func TestColdProviderReachesHedgePolicy(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 3)
	o := obs.NewObserver()
	h := &holdFirst{release: make(chan struct{})}
	var once sync.Once
	free := func() { once.Do(func() { close(h.release) }) }
	defer free()
	c := wrappedClient(t, env, func(cfg *Config) {
		cfg.Obs = o
		// The Put marks "doc" fresh, so the Get contacts no provider
		// before its gather.
		cfg.MetaCacheEntries = 8
		cfg.Transfer.HedgePolicy = func(string, time.Duration) time.Duration { return 10 * time.Millisecond }
	}, func(s csp.Store) csp.Store { return &holdingStore{Store: s, h: h} })
	data := randData(76, 200) // one chunk
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	c.links = newLinkModel(nil)
	// Without a backup the read waits for the held provider; bound that.
	defer time.AfterFunc(3*time.Second, free).Stop()
	got, _, err := c.Get(bg, "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get with a held provider: %v", err)
	}
	if n := sumMetric(o.Registry().Snapshot(), obs.MetricTransferHedges); n == 0 {
		t.Error("no backup launched against a cold provider: the hedge policy was never asked")
	}
}
