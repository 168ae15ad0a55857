package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/metadata"
	"repro/internal/netsim"
)

// corruptOneShare flips a byte in one stored chunk-share object at the
// given provider and returns the object name, or "" if none found. A
// non-nil of restricts the choice to the object names it holds.
func corruptOneShare(t *testing.T, b *cloudsim.Backend, of map[string]bool) string {
	t.Helper()
	s := cloudsim.NewSimStore(b)
	if err := s.Authenticate(context.Background(), csp.Credentials{Token: "t"}); err != nil {
		t.Fatal(err)
	}
	infos, err := s.List(bg, SharePrefix)
	if err != nil {
		return ""
	}
	infos = slices.DeleteFunc(infos, func(info csp.ObjectInfo) bool { return of != nil && !of[info.Name] })
	if len(infos) == 0 {
		return ""
	}
	name := infos[0].Name
	data, err := s.Download(bg, name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x5A // payload byte (header is at the front)
	if err := s.Upload(bg, name, data); err != nil {
		t.Fatal(err)
	}
	return name
}

// shareNamesOf returns the object names of the chunk's n shares, as a set.
func shareNamesOf(t *testing.T, c *Client, ref metadata.ChunkRef) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	for i := 0; i < ref.N; i++ {
		name, err := c.shareNameFor(ref, i)
		if err != nil {
			t.Fatal(err)
		}
		names[name] = true
	}
	return names
}

func TestDownloadCorrectsCorruptShare(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	// (2,4): every chunk has two surplus shares, enough to correct one
	// corruption (e < (k-t+1)/2 with k=4, t=2).
	c := env.client("alice", func(cfg *Config) { cfg.N = 4 })
	data := randData(70, 5_000)
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}

	// Corrupt one share object in place at some provider.
	var corruptedAt string
	for name, b := range env.backends {
		if obj := corruptOneShare(t, b, nil); obj != "" {
			corruptedAt = name
			break
		}
	}
	if corruptedAt == "" {
		t.Fatal("no share found to corrupt")
	}

	got, _, err := c.Get(bg, "doc")
	if err != nil {
		t.Fatalf("download with corrupt share: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrected download returned wrong bytes")
	}

	// The widened gather launches its lanes in share-index order, so the
	// same corrupted read replays to the same share-download sequence in
	// virtual time (the map-ordered sequential walk it replaced did not).
	first, again := correctingReplay(t), correctingReplay(t)
	if len(first) <= 2 {
		t.Fatalf("corrupted (2,5) read fetched %v: the gather never widened", first)
	}
	if !slices.Equal(first, again) {
		t.Errorf("widened gather replay diverged:\n %v\n %v", first, again)
	}
}

// correctingReplay builds a fresh five-provider netsim world with distinct
// links, stores one (2,5) chunk, corrupts a share the reader is known to
// fetch, and returns the EvShareGet sequence ("index@csp") of the read that
// has to widen and correct.
func correctingReplay(t *testing.T) []string {
	t.Helper()
	const MB = 1 << 20
	net := netsim.New(time.Time{})
	net.AddNode("client", netsim.NodeConfig{})
	backends := make(map[string]*cloudsim.Backend)
	var stores []csp.Store
	for i, name := range []string{"v", "w", "x", "y", "z"} {
		net.SetLink("client", name, netsim.LinkConfig{
			RTT: time.Duration(5+5*i) * time.Millisecond, UpBps: 4 * MB, DownBps: float64(2+3*i) * MB,
		})
		backends[name] = cloudsim.NewBackend(name, csp.NameKeyed, 0)
		stores = append(stores, cloudsim.NewSimStore(backends[name],
			cloudsim.WithTransport(cloudsim.NodeTransport{Net: net, Node: "client"}),
			cloudsim.WithClock(net.Now)))
	}
	c, err := New(Config{
		ClientID: "alice", Key: "k", T: 2, N: 5, Runtime: net,
		Chunking: chunker.Config{AverageSize: 256 << 10, MinSize: 64 << 10, MaxSize: 512 << 10},
	}, stores)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var gets []Event
	c.Subscribe(func(ev Event) {
		if ev.Type == EvShareGet {
			mu.Lock()
			gets = append(gets, ev)
			mu.Unlock()
		}
	})
	data := randData(73, 64<<10) // below MinSize: one chunk
	net.Run(func() {
		for _, s := range stores {
			if err := s.Authenticate(bg, csp.Credentials{Token: "t"}); err != nil {
				t.Error(err)
				return
			}
		}
		if err := c.Put(bg, "doc", data); err != nil {
			t.Error(err)
			return
		}
		// Learn a share this reader fetches, corrupt it, read again.
		if _, _, err := c.Get(bg, "doc"); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		target := gets[0]
		gets = nil
		mu.Unlock()
		obj := c.ShareObjectName(target.ChunkID, target.Index, 2)
		if !backends[target.CSP].MutateObject(obj, func(d []byte) []byte {
			d[len(d)-1] ^= 0x5A
			return d
		}) {
			t.Errorf("share object %s not found on %s", obj, target.CSP)
			return
		}
		got, _, err := c.Get(bg, "doc")
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("corrected read: %v", err)
		}
	})
	mu.Lock()
	defer mu.Unlock()
	var seq []string
	for _, ev := range gets {
		seq = append(seq, fmt.Sprintf("%d@%s", ev.Index, ev.CSP))
	}
	return seq
}

func TestDownloadSelfHealsCorruptShare(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", func(cfg *Config) { cfg.N = 4 })
	data := randData(71, 200) // single chunk: one (share, provider) pick to reason about
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}

	// The downloader fetches only T of the N shares, and which T is the
	// selector's choice — corrupting an arbitrary share may corrupt one
	// that is never fetched (and so, correctly, never healed). Learn an
	// actually-fetched share from the event stream and corrupt that.
	var mu sync.Mutex
	type fetchedShare struct {
		chunk string
		index int
		csp   string
	}
	var fetched []fetchedShare
	c.Subscribe(func(ev Event) {
		if ev.Type == EvShareGet && ev.Err == nil {
			mu.Lock()
			fetched = append(fetched, fetchedShare{ev.ChunkID, ev.Index, ev.CSP})
			mu.Unlock()
		}
	})
	if _, _, err := c.Get(bg, "doc"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(fetched) == 0 {
		mu.Unlock()
		t.Fatal("no share downloads observed")
	}
	target := fetched[0]
	mu.Unlock()

	victim := env.backends[target.csp]
	objName := c.ShareObjectName(target.chunk, target.index, 2)
	if !victim.MutateObject(objName, func(d []byte) []byte {
		d[len(d)-1] ^= 0x5A
		return d
	}) {
		t.Fatalf("share object %s not found on %s", objName, target.csp)
	}
	before := snapshotObject(t, victim, objName)

	// The provider that served this share has the only observed bandwidth
	// estimate, so the selector keeps picking it; a couple of reads bound
	// the rare case where a skewed first measurement diverts the pick.
	healed := false
	for i := 0; i < 8 && !healed; i++ {
		if _, _, err := c.Get(bg, "doc"); err != nil {
			t.Fatal(err)
		}
		healed = !bytes.Equal(before, snapshotObject(t, victim, objName))
	}
	if !healed {
		t.Fatal("corrupt share was not healed in place")
	}
	// Once healed, a plain decode path works again.
	got, _, err := c.Get(bg, "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-heal read: %v", err)
	}
}

func snapshotObject(t *testing.T, b *cloudsim.Backend, name string) []byte {
	t.Helper()
	s := cloudsim.NewSimStore(b)
	if err := s.Authenticate(bg, csp.Credentials{Token: "t"}); err != nil {
		t.Fatal(err)
	}
	data, err := s.Download(bg, name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDownloadFailsCleanlyWhenUncorrectable(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 3)
	// (2,3): one surplus share — a single corruption is detectable but not
	// correctable (e < (3-2+1)/2 = 1), and decoding from the clean pair
	// still succeeds, so corrupt TWO shares of a chunk: any t-subset now
	// contains a bad share and no unambiguous majority exists.
	c := env.client("alice", nil)
	data := randData(72, 3_000)
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	// The document is about three chunks: both bad shares must belong to the
	// same one, or each chunk still decodes from its clean pair.
	head, _, err := c.Tree().Head("doc")
	if err != nil {
		t.Fatal(err)
	}
	ref := head.Chunks[0]
	ofChunk := shareNamesOf(t, c, ref)
	corrupted := 0
	for _, name := range env.names { // sorted: the same two providers every run
		if corrupted < 2 && corruptOneShare(t, env.backends[name], ofChunk) != "" {
			corrupted++
		}
	}
	if corrupted < 2 {
		t.Fatalf("corrupted %d shares of chunk %s, want 2", corrupted, ref.ID)
	}
	_, _, err = c.Get(bg, "doc")
	if err == nil {
		t.Fatal("uncorrectable corruption returned data")
	}
	if !errors.Is(err, ErrDamaged) {
		t.Fatalf("err = %v, want ErrDamaged", err)
	}
}
