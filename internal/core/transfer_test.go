package core

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/transfer"
)

// clientReplacing builds a client like testEnv.client but substituting the
// given stores for their same-named providers (wrappers for fault
// injection).
func (e *testEnv) clientReplacing(id string, tweak func(*Config), replace map[string]csp.Store) *Client {
	e.t.Helper()
	cfg := Config{
		ClientID: id,
		Key:      "shared-user-key",
		T:        2,
		N:        3,
		Chunking: chunker.Config{AverageSize: 1024, MinSize: 256, MaxSize: 4096, Window: 48},
	}
	if tweak != nil {
		tweak(&cfg)
	}
	var stores []csp.Store
	for _, name := range e.names {
		var s csp.Store
		if r, ok := replace[name]; ok {
			s = r
		} else {
			s = cloudsim.NewSimStore(e.backends[name])
		}
		if err := s.Authenticate(context.Background(), csp.Credentials{Token: "t"}); err != nil {
			e.t.Fatal(err)
		}
		stores = append(stores, s)
	}
	c, err := New(cfg, stores)
	if err != nil {
		e.t.Fatal(err)
	}
	return c
}

// wedgedStore wraps a Store so Upload blocks until the request context is
// cancelled — a provider that accepts the connection and then hangs, the
// worst case for the old fan-out (which had no way to abandon it).
type wedgedStore struct {
	csp.Store
	entered atomic.Int32
}

func (w *wedgedStore) Upload(ctx context.Context, name string, data []byte) error {
	w.entered.Add(1)
	<-ctx.Done()
	return ctx.Err()
}

// TestPutCancelsWedgedSiblingUploads is the regression test for the
// wasted-work bug: when one chunk fails fatally (a provider rejects every
// candidate), Put must cancel the operation context so sibling share
// uploads stuck on a wedged provider return instead of hanging. Before the
// engine refactor this test hung until the test binary timeout.
func TestPutCancelsWedgedSiblingUploads(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 3) // N = 3 over 3 providers: no fallback slack
	// cspa kills every chunk that targets it; cspb wedges every upload.
	env.backends["cspa"].SetAvailable(false)
	wedged := &wedgedStore{Store: cloudsim.NewSimStore(env.backends["cspb"])}
	c := env.clientReplacing("alice", nil, map[string]csp.Store{"cspb": wedged})

	done := make(chan error, 1)
	go func() { done <- c.Put(bg, "doomed.bin", randData(91, 10_000)) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Put succeeded although a provider was down and N == provider count")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Put did not return: sibling uploads were not cancelled after the first fatal error")
	}
	if w := wedged.entered.Load(); w == 0 {
		t.Log("note: no upload reached the wedged provider before cancellation")
	}
}

// countingStore counts Upload calls to one provider.
type countingStore struct {
	csp.Store
	uploads atomic.Int32
}

func (s *countingStore) Upload(ctx context.Context, name string, data []byte) error {
	s.uploads.Add(1)
	return s.Store.Upload(ctx, name, data)
}

// TestFailedProviderProbedOncePerOperation is the regression test for the
// redundant-probing bug: within one Put, a provider whose attempt failed for
// good must be skipped by every subsequent share's fallback walk (and by the
// metadata scatter), not re-probed from scratch per share. The provider is
// full, a definite fault: its first attempt is final, so the count does not
// depend on the engine's retry policy. (A transient fault is retried after a
// backoff, and siblings may probe the provider during it: it is not failed
// yet. The engine's own tests pin that side.)
func TestFailedProviderProbedOncePerOperation(t *testing.T) {
	t.Parallel()
	env := newEnvWithCapacity(t, map[string]int64{"cspa": 1})
	counting := &countingStore{Store: cloudsim.NewSimStore(env.backends["cspa"])}
	// MaxInFlight 1 serializes every attempt: the first share to touch the
	// full provider marks it failed, and any further probe in the same Put is
	// provably redundant.
	c := env.clientReplacing("alice", func(cfg *Config) {
		cfg.Transfer = transfer.Tunables{MaxInFlight: 1}
	}, map[string]csp.Store{"cspa": counting})

	// ~20 chunks x 3 shares over 5 providers: many shares would walk to
	// cspa without the shared failed set.
	if err := c.Put(bg, "big.bin", randData(92, 20_000)); err != nil {
		t.Fatal(err)
	}
	if got := int(counting.uploads.Load()); got != 1 {
		t.Fatalf("full provider probed %d times in one Put, want exactly 1 (then skipped via the failed set)", got)
	}
}

// TestPerCSPInFlightCapUnderNetsim drives the full client stack under
// deterministic virtual time and verifies the engine's per-CSP high-water
// mark reached its cap and never exceeded it on any provider — the
// straggler-isolation property the paper's §4.3 scheduling depends on.
func TestPerCSPInFlightCapUnderNetsim(t *testing.T) {
	t.Parallel()
	const MB = 1 << 20
	const perCSP = 4 // the engine's per-provider cap
	net := netsim.New(time.Time{})
	net.AddNode("client", netsim.NodeConfig{})
	names := []string{"w", "x", "y", "z"}
	var stores []csp.Store
	for _, name := range names {
		net.SetLink("client", name, netsim.LinkConfig{RTT: 20 * time.Millisecond, UpBps: 4 * MB, DownBps: 8 * MB})
		b := cloudsim.NewBackend(name, csp.NameKeyed, 0)
		stores = append(stores, cloudsim.NewSimStore(b,
			cloudsim.WithTransport(cloudsim.NodeTransport{Net: net, Node: "client"}),
			cloudsim.WithClock(net.Now)))
	}
	cfg := Config{
		ClientID: "alice", Key: "k", T: 2, N: 3,
		Chunking: chunker.Config{AverageSize: 256 << 10, MinSize: 64 << 10, MaxSize: 512 << 10},
		Runtime:  net,
		Transfer: transfer.Tunables{MaxInFlight: 16},
	}
	c, err := New(cfg, stores)
	if err != nil {
		t.Fatal(err)
	}

	data := randData(93, 4*MB) // many chunks -> far more shares than slots
	net.Run(func() {
		for _, s := range stores {
			if err := s.Authenticate(bg, csp.Credentials{Token: "t"}); err != nil {
				t.Error(err)
				return
			}
		}
		if err := c.Put(bg, "big.bin", data); err != nil {
			t.Error(err)
			return
		}
		if _, _, err := c.Get(bg, "big.bin"); err != nil {
			t.Error(err)
		}
	})

	sawLoad := false
	for _, name := range names {
		p := c.Engine().PeakInFlight(name)
		if p > perCSP {
			t.Errorf("provider %s peak in-flight %d exceeds the cap %d", name, p, perCSP)
		}
		if p == perCSP {
			sawLoad = true
		}
	}
	if !sawLoad {
		t.Error("no provider ever reached the cap — scenario exercised nothing")
	}
}

// testbedNet builds the paper's §7.2 emulation on a virtual-time network:
// four fast providers at 15 MB/s and three slow ones at 2 MB/s, 1 ms RTT.
// stores gives one client its own authenticated views of the providers; call
// it inside net.Run. linkBps is the download-rate table to seed a selector.
func testbedNet(t *testing.T) (net *netsim.Network, stores func() []csp.Store, linkBps map[string]float64) {
	t.Helper()
	const MB = 1 << 20
	net = netsim.New(time.Time{})
	net.AddNode("client", netsim.NodeConfig{})
	backends := make(map[string]*cloudsim.Backend)
	linkBps = make(map[string]float64)
	var names []string
	for i, name := range []string{"fast1", "fast2", "fast3", "fast4", "slow1", "slow2", "slow3"} {
		bps := float64(15 * MB)
		if i >= 4 {
			bps = 2 * MB
		}
		net.SetLink("client", name, netsim.LinkConfig{RTT: time.Millisecond, UpBps: bps, DownBps: bps})
		backends[name] = cloudsim.NewBackend(name, csp.NameKeyed, 0)
		linkBps[name] = bps
		names = append(names, name)
	}
	stores = func() []csp.Store {
		var out []csp.Store
		for _, name := range names {
			s := cloudsim.NewSimStore(backends[name],
				cloudsim.WithTransport(cloudsim.NodeTransport{Net: net, Node: "client"}),
				cloudsim.WithClock(net.Now))
			if err := s.Authenticate(bg, csp.Credentials{Token: "t"}); err != nil {
				t.Error(err)
			}
			out = append(out, s)
		}
		return out
	}
	return net, stores, linkBps
}

// TestHedgingBeatsStraggler: a straggler is a provider that keeps answering,
// but at a crawl, so retry and failover never fire and only a hedge helps.
// A warm pass teaches the downloader's selector and latency EWMAs that fast1
// is fast; then fast1's downlink collapses to 0.05 MB/s, and the first Get
// after the collapse still routes shares through it. With the closed-loop
// hedge that Get is at least 1.5x faster than under a policy that never
// hedges, and at least one backup lane wins.
func TestHedgingBeatsStraggler(t *testing.T) {
	t.Parallel()
	plain, _ := stragglerGet(t, func(cfg *Config) {
		cfg.Transfer.HedgePolicy = func(string, time.Duration) time.Duration { return 0 }
	})
	o := obs.NewObserver()
	hedged, _ := stragglerGet(t, func(cfg *Config) { cfg.Obs = o })
	if t.Failed() {
		return
	}
	var wins float64
	for _, p := range o.Registry().Snapshot().Metrics {
		if p.Name == obs.MetricHedgeWins {
			wins += p.Value
		}
	}
	t.Logf("first Get after the collapse: unhedged %v, hedged %v, %v hedge wins", plain, hedged, wins)
	if hedged*3 > plain*2 {
		t.Errorf("hedging did not help: unhedged %v vs hedged %v", plain, hedged)
	}
	if wins == 0 {
		t.Error("no hedge backup lane ever won despite a straggling provider")
	}
}

// TestObserverDoesNotChangeTransfers: attaching an observer changes nothing
// the client does. The straggler workload — sequential Gets, one provider
// collapsing — makes the same transfers against every provider with Obs nil
// as with Obs set, and the observed run did hedge, so the comparison covers
// the hedge gate.
func TestObserverDoesNotChangeTransfers(t *testing.T) {
	t.Parallel()
	_, bare := stragglerGet(t, nil)
	o := obs.NewObserver()
	_, observed := stragglerGet(t, func(cfg *Config) { cfg.Obs = o })
	if t.Failed() {
		return
	}
	if !maps.Equal(bare, observed) {
		t.Errorf("transfers per provider: Obs nil %v, Obs set %v", bare, observed)
	}
	if p, _ := o.Registry().Snapshot().Find(obs.MetricTransferHedges, nil); p.Value == 0 {
		t.Error("no hedge launched in the observed run: the comparison exercised no hedge gate")
	}
}

// stragglerGet runs TestHedgingBeatsStraggler's scenario in a fresh world,
// with the downloader's Config adjusted by tweak. It returns the virtual
// duration of the first Get after fast1 collapses and how many object
// transfers (uploads and downloads; listings aside) the downloader's stores
// served per provider, losers included.
func stragglerGet(t *testing.T, tweak func(*Config)) (time.Duration, map[string]int) {
	t.Helper()
	const MB = 1 << 20
	net, stores, linkBps := testbedNet(t)
	chunking := chunker.Config{AverageSize: 64 << 10, MinSize: 16 << 10, MaxSize: 256 << 10}
	sizes := []int{2 * MB, 768 << 10, 512 << 10, 384 << 10, 256 << 10, 128 << 10}
	var mu sync.Mutex
	calls := map[string]int{}
	var took time.Duration
	net.Run(func() {
		up, err := New(Config{ClientID: "uploader", Key: "k", T: 2, N: 3, Chunking: chunking, Runtime: net, LinkBps: linkBps}, stores())
		if err != nil {
			t.Error(err)
			return
		}
		for i, n := range sizes {
			if err := up.Put(bg, fmt.Sprintf("f%d", i), randData(int64(200+i), n)); err != nil {
				t.Error(err)
				return
			}
		}
		cfg := Config{ClientID: "downloader", Key: "k", T: 2, N: 3, Chunking: chunking, Runtime: net, LinkBps: linkBps}
		if tweak != nil {
			tweak(&cfg)
		}
		var dlStores []csp.Store
		for _, s := range stores() {
			dlStores = append(dlStores, recording(func(r transferRec) {
				mu.Lock()
				calls[r.CSP]++
				mu.Unlock()
			})(s))
		}
		dl, err := New(cfg, dlStores)
		if err != nil {
			t.Error(err)
			return
		}
		if err := dl.Recover(bg); err != nil {
			t.Error(err)
			return
		}
		for i := range sizes {
			if _, _, err := dl.Get(bg, fmt.Sprintf("f%d", i)); err != nil {
				t.Error(err)
				return
			}
		}
		net.SetLink("client", "fast1", netsim.LinkConfig{RTT: time.Millisecond, UpBps: 15 * MB, DownBps: 0.05 * MB})
		start := net.Now()
		if _, _, err := dl.Get(bg, "f0"); err != nil {
			t.Error(err)
			return
		}
		took = net.Now().Sub(start)
		// Let losers still on the slow link drain into the count.
		net.Sleep(time.Minute)
	})
	mu.Lock()
	defer mu.Unlock()
	return took, maps.Clone(calls)
}
