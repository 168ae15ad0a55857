package core

import (
	"bytes"
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

// TestRaceReadGolden is the race-read correctness gate: with RaceReads on,
// Get launches redundant share lanes (counted in cyrus_race_launched_total)
// and the returned bytes are identical to what Put stored — surplus or
// late shares must never change the decode.
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
		Chunking:  chunker.Config{AverageSize: 256 << 10, MinSize: 64 << 10, MaxSize: 512 << 10},
		Runtime:   net,
		Obs:       o,
		RaceReads: 1,
		Transfer:  transfer.Tunables{MaxInFlight: 16},
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
	if launched := sumMetric(s, obs.MetricRaceLaunched); launched == 0 {
		t.Error("cyrus_race_launched_total = 0: no redundant lane ever launched, race mode exercised nothing")
	}
}
