package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/metadata"
	"repro/internal/netsim"
)

func TestUploadFallsBackOnFailedCSP(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5) // 5 CSPs, n=3: fallback room
	c := env.client("alice", nil)
	// Every op on cspa fails for a while.
	env.backends["cspa"].SetAvailable(false)
	data := randData(20, 6000)
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Get(bg, "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip with failed CSP: %v", err)
	}
	// No share may have landed on the dead CSP.
	if st := env.backends["cspa"].Stats(); st.Objects != 0 {
		t.Fatalf("dead CSP holds %d objects", st.Objects)
	}
}

func TestUploadFailsWhenTooFewCSPs(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 3) // exactly n=3 providers
	c := env.client("alice", nil)
	env.backends["cspb"].SetAvailable(false)
	err := c.Put(bg, "doc", randData(21, 3000))
	if err == nil {
		t.Fatal("Put succeeded with only 2 of 3 required providers")
	}
}

func TestDownloadToleratesFailuresUpToNMinusT(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil) // t=2, n=3
	data := randData(22, 5000)
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	// Find a CSP holding shares and kill it: n-t = 1 failure tolerated.
	var victim string
	for name, b := range env.backends {
		if b.Stats().Objects > 0 {
			victim = name
			break
		}
	}
	env.backends[victim].SetAvailable(false)
	got, _, err := c.Get(bg, "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download with one failed CSP: %v", err)
	}
}

func TestTransientFaultRetriesOtherSource(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	data := randData(23, 4000)
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	// Inject a couple of transient failures; gather must fall back.
	for _, b := range env.backends {
		b.FailNext(1)
	}
	got, _, err := c.Get(bg, "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download with transient faults: %v", err)
	}
}

func TestRemoveCSPAndLazyMigration(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	c := env.client("alice", nil)
	data := randData(24, 6000)
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	// Pick a provider holding chunk shares and remove it.
	var victim string
	for name := range env.backends {
		if len(c.ChunkTable().SharesOn(name)) > 0 {
			victim = name
			break
		}
	}
	if victim == "" {
		t.Fatal("no provider holds shares")
	}
	if err := c.RemoveCSP(bg, victim); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveCSP(bg, victim); err != nil {
		t.Fatal("second RemoveCSP should be a no-op")
	}
	if err := c.RemoveCSP(bg, "ghost"); err == nil {
		t.Fatal("removing unknown CSP succeeded")
	}

	// Download triggers lazy migration: shares move off the removed CSP.
	got, _, err := c.Get(bg, "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download after removal: %v", err)
	}
	if left := c.ChunkTable().SharesOn(victim); len(left) != 0 {
		t.Fatalf("%d chunks still have shares on removed CSP after download", len(left))
	}
	// All chunks still have full n shares on live CSPs.
	for _, m := range c.Tree().All() {
		for _, ref := range m.Chunks {
			info, ok := c.ChunkTable().LookupEnc(ref.ID, "")
			if !ok {
				continue
			}
			if len(info.Shares) != ref.N {
				t.Fatalf("chunk %s has %d shares after migration, want %d", ref.ID[:8], len(info.Shares), ref.N)
			}
			for _, loc := range info.Shares {
				if loc.CSP == victim {
					t.Fatalf("chunk %s still mapped to removed CSP", ref.ID[:8])
				}
			}
		}
	}
	// And the file is still downloadable.
	got2, _, err := c.Get(bg, "doc")
	if err != nil || !bytes.Equal(got2, data) {
		t.Fatalf("download after migration: %v", err)
	}
}

func TestAddCSPExpandsPlacement(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 3)
	c := env.client("alice", nil)
	if err := c.Put(bg, "doc1", randData(25, 2000)); err != nil {
		t.Fatal(err)
	}
	// Add a fourth provider.
	nb := cloudsim.NewBackend("cspz", csp.NameKeyed, 0)
	env.backends["cspz"] = nb
	s := cloudsim.NewSimStore(nb)
	if err := s.Authenticate(bg, csp.Credentials{Token: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddCSP(s); err != nil {
		t.Fatal(err)
	}
	if err := c.AddCSP(s); err == nil {
		t.Fatal("duplicate AddCSP accepted")
	}
	if got := len(c.activeCSPs()); got != 4 {
		t.Fatalf("activeCSPs() = %d", got)
	}
	// New uploads may now use cspz; upload several files and expect some
	// shares (or metadata) to land there.
	for i := 0; i < 8; i++ {
		if err := c.Put(bg, "fill", randData(int64(30+i), 3000)); err != nil {
			t.Fatal(err)
		}
	}
	if nb.Stats().Objects == 0 {
		t.Fatal("new provider received nothing")
	}
}

func TestRecoverFreshClient(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	alice := env.client("alice", nil)
	data1 := randData(26, 5000)
	data2 := randData(27, 3000)
	if err := alice.Put(bg, "a", data1); err != nil {
		t.Fatal(err)
	}
	if err := alice.Put(bg, "b", data2); err != nil {
		t.Fatal(err)
	}
	_ = alice.Delete(bg, "b")

	// A brand-new device with only the key and accounts recovers all
	// state: s' = recover(s).
	fresh := env.client("new-device", nil)
	if err := fresh.Recover(bg); err != nil {
		t.Fatal(err)
	}
	got, _, err := fresh.Get(bg, "a")
	if err != nil || !bytes.Equal(got, data1) {
		t.Fatalf("recovered client Get(a): %v", err)
	}
	if _, _, err := fresh.Get(bg, "b"); !errors.Is(err, ErrFileDeleted) {
		t.Fatalf("recovered client Get(b) err = %v", err)
	}
	if fresh.ChunkTable().Len() == 0 {
		t.Fatal("chunk table not rebuilt")
	}
	// Rebuilt refcounts allow dedup immediately.
	before := fresh.ChunkTable().Len()
	if err := fresh.Put(bg, "a-copy", data1); err != nil {
		t.Fatal(err)
	}
	if fresh.ChunkTable().Len() != before {
		t.Fatal("recovered client re-uploaded known chunks")
	}
}

func TestWrongKeyClientCannotRead(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	alice := env.client("alice", nil)
	data := randData(28, 4000)
	if err := alice.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	eve := env.client("eve", func(c *Config) { c.Key = "wrong-key" })
	// Eve cannot even decode the metadata (different dispersal matrix and
	// share names).
	if err := eve.Recover(bg); err == nil {
		if _, _, err := eve.Get(bg, "doc"); err == nil {
			t.Fatal("wrong-key client read the file")
		}
	}
}

func TestClusterConstraintRespected(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 6)
	clusters := map[string]string{
		"cspa": "amazon", "cspb": "amazon", "cspc": "amazon",
		// cspd, cspe, cspf independent
	}
	c := env.client("alice", func(cfg *Config) {
		cfg.ClusterOf = clusters
		cfg.N = 3
	})
	if err := c.Put(bg, "doc", randData(29, 6000)); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Tree().All() {
		for _, ref := range m.Chunks {
			info, _ := c.ChunkTable().LookupEnc(ref.ID, "")
			amazon := 0
			for _, loc := range info.Shares {
				if clusters[loc.CSP] == "amazon" {
					amazon++
				}
			}
			if amazon > 1 {
				t.Fatalf("chunk %s has %d shares on the amazon platform", ref.ID[:8], amazon)
			}
		}
	}
}

func TestClusterConstraintLimitsN(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	clusters := map[string]string{
		"cspa": "p1", "cspb": "p1", "cspc": "p1", "cspd": "p1",
	}
	c := env.client("alice", func(cfg *Config) {
		cfg.ClusterOf = clusters
		cfg.N = 3 // only 1 cluster available
	})
	if err := c.Put(bg, "doc", randData(30, 1000)); !errors.Is(err, ErrNotEnoughCSP) {
		t.Fatalf("err = %v, want ErrNotEnoughCSP", err)
	}
}

func TestAutomaticNFromEpsilon(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 6)
	c := env.client("alice", func(cfg *Config) {
		cfg.N = 0
		cfg.Epsilon = 1e-6
	})
	// t=2 at the prior p=0.002 (no provider has failed a contact):
	// F(3) = p^3 + 3(1-p)p^2 ≈ 1.2e-5 > 1e-6, F(4) ≈ 4p^3 ≈ 3.2e-8 <= 1e-6
	// -> n=4.
	if err := c.Put(bg, "doc", randData(31, 1000)); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Tree().All() {
		for _, ref := range m.Chunks {
			if ref.N != 4 {
				t.Fatalf("derived n = %d, want 4", ref.N)
			}
		}
	}
}

func TestEstimatorMarksRepeatedFailures(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	c := env.client("alice", func(cfg *Config) {
		cfg.FailureThreshold = time.Nanosecond // immediate outage counting
	})
	env.backends["cspa"].SetAvailable(false)
	_ = c.Put(bg, "doc", randData(33, 2000))
	_ = c.Put(bg, "doc2", randData(34, 2000))
	if !c.est.Down("cspa") {
		t.Fatal("estimator did not mark failing CSP down")
	}
	// Recovery: the paper periodically re-checks; a later success clears.
	env.backends["cspa"].SetAvailable(true)
	c.est.RecordSuccess("cspa", time.Now())
	if c.est.Down("cspa") {
		t.Fatal("estimator did not clear after success")
	}
}

// TestClientUnderVirtualTime runs the full client stack inside netsim: the
// same code path the latency experiments use. It checks that virtual time
// advances plausibly (RTTs + bandwidth) and the data survives.
func TestClientUnderVirtualTime(t *testing.T) {
	t.Parallel()
	const MB = 1 << 20
	net := netsim.New(time.Time{})
	net.AddNode("client", netsim.NodeConfig{})
	backends := map[string]*cloudsim.Backend{}
	var stores []csp.Store
	for _, name := range []string{"w", "x", "y", "z"} {
		net.SetLink("client", name, netsim.LinkConfig{RTT: 100 * time.Millisecond, UpBps: 2 * MB, DownBps: 4 * MB})
		b := cloudsim.NewBackend(name, csp.NameKeyed, 0)
		backends[name] = b
		s := cloudsim.NewSimStore(b,
			cloudsim.WithTransport(cloudsim.NodeTransport{Net: net, Node: "client"}),
			cloudsim.WithClock(net.Now))
		stores = append(stores, s)
	}
	cfg := Config{
		ClientID: "alice", Key: "k", T: 2, N: 3,
		Chunking: chunker.Config{AverageSize: 1 << 20},
		Runtime:  net,
		LinkBps:  map[string]float64{"w": 4 * MB, "x": 4 * MB, "y": 4 * MB, "z": 4 * MB},
	}
	c, err := New(cfg, stores)
	if err != nil {
		t.Fatal(err)
	}

	data := randData(35, 2*MB)
	var upElapsed, downElapsed float64
	net.Run(func() {
		// Authentication also costs virtual round trips, so it runs inside
		// the simulation.
		for _, s := range stores {
			if err := s.Authenticate(bg, csp.Credentials{Token: "t"}); err != nil {
				t.Error(err)
				return
			}
		}
		start := net.VirtualNow()
		if err := c.Put(bg, "big.bin", data); err != nil {
			t.Error(err)
			return
		}
		upElapsed = net.VirtualNow() - start
		start = net.VirtualNow()
		got, _, err := c.Get(bg, "big.bin")
		if err != nil {
			t.Error(err)
			return
		}
		downElapsed = net.VirtualNow() - start
		if !bytes.Equal(got, data) {
			t.Error("virtual-time round trip mismatch")
		}
	})
	// Upload: 2MB -> 2 chunks x 3 shares x ~0.5MB = ~3MB spread over 4
	// links at 2MB/s up; plus metadata and RTTs. Must be neither instant
	// nor absurd.
	if upElapsed <= 0.3 || upElapsed > 30 {
		t.Fatalf("upload took %.2f virtual seconds", upElapsed)
	}
	if downElapsed <= 0.2 || downElapsed > 30 {
		t.Fatalf("download took %.2f virtual seconds", downElapsed)
	}
	t.Logf("virtual upload %.2fs download %.2fs", upElapsed, downElapsed)
}

// TestGatherErrorNamesEveryCause: two of a chunk's three holders fail, for
// different reasons — one provider is down, the other lost the share — so the
// read cannot hold t=2 shares. The error is one GatherError that matches
// ErrDamaged and both causes, and its message names both providers.
func TestGatherErrorNamesEveryCause(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 3)
	c := env.client("alice", nil) // t=2, n=3
	if err := c.Put(bg, "doc", randData(24, 3000)); err != nil {
		t.Fatal(err)
	}
	head, _, err := c.tree.Head("doc")
	if err != nil || len(head.Chunks) == 0 {
		t.Fatalf("head: %v", err)
	}
	ref := head.Chunks[0]
	locs := head.SharesOf(ref.ID)
	down, lost := locs[0], locs[1]
	lostName, _ := c.names.Share(ref, lost.Index)
	if !env.backends[lost.CSP].RemoveObject(lostName) {
		t.Fatalf("%s holds no %s", lost.CSP, lostName)
	}
	env.backends[down.CSP].SetAvailable(false)

	_, _, err = c.Get(bg, "doc")
	var ge *GatherError
	if !errors.As(err, &ge) {
		t.Fatalf("Get with two failed holders: %v, want a *GatherError", err)
	}
	if !errors.Is(err, ErrDamaged) || !errors.Is(err, csp.ErrUnavailable) || !errors.Is(err, csp.ErrNotFound) {
		t.Errorf("error %q does not match ErrDamaged and both causes", err)
	}
	if ge.Held != 1 || ge.Need != 2 {
		t.Errorf("held %d of %d shares, want 1 of 2", ge.Held, ge.Need)
	}
	for _, l := range []metadata.ShareLoc{down, lost} {
		if !strings.Contains(err.Error(), fmt.Sprintf("%s share %d: ", l.CSP, l.Index)) {
			t.Errorf("error %q does not name %s share %d", err, l.CSP, l.Index)
		}
	}
}
