package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/metadata"
	"repro/internal/netsim"
	"repro/internal/obs"
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
		name, err := c.names.Share(ref, i)
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
// fetch, and returns the share-download sequence ("index@csp") of the read
// that has to widen and correct.
func correctingReplay(t *testing.T) []string {
	t.Helper()
	const MB = 1 << 20
	net := netsim.New(time.Time{})
	net.AddNode("client", netsim.NodeConfig{})
	backends := make(map[string]*cloudsim.Backend)
	var stores []csp.Store
	var mu sync.Mutex
	var gets []transferRec
	for i, name := range []string{"v", "w", "x", "y", "z"} {
		net.SetLink("client", name, netsim.LinkConfig{
			RTT: time.Duration(5+5*i) * time.Millisecond, UpBps: 4 * MB, DownBps: float64(2+3*i) * MB,
		})
		backends[name] = cloudsim.NewBackend(name, csp.NameKeyed, 0)
		stores = append(stores, recording(func(r transferRec) {
			if r.isShareGet() {
				mu.Lock()
				gets = append(gets, r)
				mu.Unlock()
			}
		})(cloudsim.NewSimStore(backends[name],
			cloudsim.WithTransport(cloudsim.NodeTransport{Net: net, Node: "client"}),
			cloudsim.WithClock(net.Now))))
	}
	c, err := New(Config{
		ClientID: "alice", Key: "k", T: 2, N: 5, Runtime: net,
		Chunking: chunker.Config{AverageSize: 256 << 10, MinSize: 64 << 10, MaxSize: 512 << 10},
	}, stores)
	if err != nil {
		t.Fatal(err)
	}
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
		if !backends[target.CSP].MutateObject(target.Name, func(d []byte) []byte {
			d[len(d)-1] ^= 0x5A
			return d
		}) {
			t.Errorf("share object %s not found on %s", target.Name, target.CSP)
			return
		}
		got, _, err := c.Get(bg, "doc")
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("corrected read: %v", err)
		}
	})
	head, _, err := c.Tree().Head("doc")
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[string]int)
	for i := 0; i < head.Chunks[0].N; i++ {
		name, _ := c.names.Share(head.Chunks[0], i)
		index[name] = i
	}
	mu.Lock()
	defer mu.Unlock()
	var seq []string
	for _, r := range gets {
		seq = append(seq, fmt.Sprintf("%d@%s", index[r.Name], r.CSP))
	}
	return seq
}

func TestDownloadSelfHealsCorruptShare(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	// The downloader fetches only T of the N shares, and which T is the
	// selector's choice — corrupting an arbitrary share may corrupt one
	// that is never fetched (and so, correctly, never healed). Corrupt at
	// rest, just before it is served, the first share the read asks for.
	var armed atomic.Bool
	var mu sync.Mutex
	var target transferRec // the share corrupted, once served
	var before []byte      // its corrupt bytes at rest
	o := obs.NewObserver()
	c := wrappedClient(t, env, func(cfg *Config) { cfg.N = 4; cfg.Obs = o }, func(s csp.Store) csp.Store {
		return &onServeStore{Store: s, onServe: func(name string) {
			if !strings.HasPrefix(name, SharePrefix) || !armed.CompareAndSwap(true, false) {
				return
			}
			victim := env.backends[s.Name()]
			if !victim.MutateObject(name, func(d []byte) []byte {
				d[len(d)-1] ^= 0x5A
				return d
			}) {
				t.Errorf("share object %s not found on %s", name, s.Name())
			}
			mu.Lock()
			target, before = transferRec{CSP: s.Name(), Name: name}, snapshotObject(t, victim, name)
			mu.Unlock()
		}}
	})
	data := randData(71, 200) // single chunk: one (share, provider) pick to reason about
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(bg, "doc"); err != nil {
		t.Fatal(err)
	}

	// A read that races a redundant lane may settle without the corrupted
	// share; a couple of reads bound that rare case.
	armed.Store(true)
	healed := false
	for i := 0; i < 8 && !healed; i++ {
		if _, _, err := c.Get(bg, "doc"); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		tgt, corrupt := target, before
		mu.Unlock()
		if tgt.Name == "" {
			t.Fatal("no share downloads observed")
		}
		healed = !bytes.Equal(corrupt, snapshotObject(t, env.backends[tgt.CSP], tgt.Name))
	}
	if !healed {
		t.Fatal("corrupt share was not healed in place")
	}
	// The correction is on record: a shares.corrected flight note.
	if !slices.ContainsFunc(o.FlightEvents(), func(ev obs.FlightEvent) bool {
		return ev.Kind == obs.FlightNote && ev.Name == "shares.corrected"
	}) {
		t.Error("the correction left no shares.corrected flight note")
	}
	// Once healed, a plain decode path works again.
	got, _, err := c.Get(bg, "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-heal read: %v", err)
	}
}

// onServeStore calls onServe with the name of every object it is asked for,
// before serving it.
type onServeStore struct {
	csp.Store
	onServe func(name string)
}

func (s *onServeStore) Download(ctx context.Context, name string) ([]byte, error) {
	s.onServe(name)
	return s.Store.Download(ctx, name)
}

func (s *onServeStore) DownloadTo(ctx context.Context, name string, w io.Writer) (int64, error) {
	s.onServe(name)
	return csp.DownloadTo(ctx, s.Store, name, w)
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
	// (2,3): a read recovers a chunk from any t intact shares, so one
	// corrupt share is corrected. Corrupt TWO shares of a chunk: one intact
	// share is fewer than t, every t-subset holds a bad share, and no
	// decoding carries the chunk ID.
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

// TestReadPastOneCorruptShare: at (2,3) one corrupt share of a chunk still
// leaves t intact ones, so a fresh device reads the file whichever provider
// holds the rotten share — also when its first gather draws that share and
// has to widen.
func TestReadPastOneCorruptShare(t *testing.T) {
	t.Parallel()
	for _, at := range []string{"cspa", "cspb", "cspc"} {
		readPastCorruptShares(t, 3, at)
	}
}

// TestReadPastTwoCorruptShares: at (2,4) two corrupt shares of a chunk, one
// rotten in its header and one in its payload, leave t intact ones, for
// every pair of providers. A read that draws a rotten share widens to every
// location and rewrites both rotten objects with the writer's bytes.
func TestReadPastTwoCorruptShares(t *testing.T) {
	t.Parallel()
	names := []string{"cspa", "cspb", "cspc", "cspd"}
	healed := 0
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if readPastCorruptShares(t, 4, names[i], names[j]) {
				healed++
			}
		}
	}
	if healed == 0 {
		t.Fatal("no read drew a rotten share: nothing was healed")
	}
	t.Logf("%d of 6 pairs were drawn by the read and healed", healed)
}

// readPastCorruptShares stores a one-chunk file at (2,n) over n providers,
// corrupts the chunk's share on each provider in rot (the last in its
// payload, the others in their header), and reads the file on a fresh device,
// which must return the bytes. If the read fetched any rotten share, every
// rotten object must hold the writer's bytes again afterwards; healed says
// whether that was the case.
func readPastCorruptShares(t *testing.T, n int, rot ...string) (healed bool) {
	t.Helper()
	env := newEnv(t, n)
	w := env.client("writer", func(cfg *Config) { cfg.N = n })
	data := randData(76, 200) // one chunk
	if err := w.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	head, _, err := w.Tree().Head("doc")
	if err != nil {
		t.Fatal(err)
	}
	written := make(map[transferRec][]byte) // rotten object -> its bytes as written
	for k, at := range rot {
		for name := range shareNamesOf(t, w, head.Chunks[0]) {
			env.backends[at].MutateObject(name, func(d []byte) []byte {
				written[transferRec{CSP: at, Name: name}] = bytes.Clone(d)
				if k < len(rot)-1 {
					d[1] ^= 0x5A // the header's t
				} else {
					d[len(d)-1] ^= 0x5A
				}
				return d
			})
		}
	}
	if len(written) != len(rot) {
		t.Fatalf("corrupted %d shares of the chunk, want %d", len(written), len(rot))
	}

	var mu sync.Mutex
	fetched := false
	r := wrappedClient(t, env, func(cfg *Config) { cfg.N = n }, recording(func(rec transferRec) {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := written[transferRec{CSP: rec.CSP, Name: rec.Name}]; ok && !rec.Up {
			fetched = true
		}
	}))
	got, _, err := r.Get(bg, "doc")
	if err != nil {
		t.Fatalf("(2,%d) read with rotten shares on %v: %v", n, rot, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("(2,%d) read with rotten shares on %v returned wrong bytes", n, rot)
	}
	mu.Lock()
	defer mu.Unlock()
	if !fetched {
		return false
	}
	for obj, want := range written {
		if after, _ := env.backends[obj.CSP].PeekObject(obj.Name); !bytes.Equal(after, want) {
			t.Errorf("(2,%d) rotten share %s on %s (rotten: %v) was not healed", n, obj.Name, obj.CSP, rot)
		}
	}
	return true
}

// wrappedClient builds a (2,3) client over the env's providers, each behind
// wrap.
func wrappedClient(t *testing.T, env *testEnv, tweak func(*Config), wrap func(csp.Store) csp.Store) *Client {
	t.Helper()
	var stores []csp.Store
	for _, name := range env.names {
		s := cloudsim.NewSimStore(env.backends[name])
		if err := s.Authenticate(bg, csp.Credentials{Token: "t"}); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, wrap(s))
	}
	cfg := Config{ClientID: "alice", Key: "shared-user-key", T: 2, N: 3,
		Chunking: chunker.Config{AverageSize: 1024, MinSize: 256, MaxSize: 4096}}
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := New(cfg, stores)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// longBodyStore appends tail to every chunk-share body it serves once it is
// its group's victim: a provider handing back more bytes than the share holds.
type longBodyStore struct {
	csp.Store
	tail []byte
	arm  *armOnce

	mu     sync.Mutex
	served []string // share names served as the victim
}

// armOnce picks one victim among a group of longBodyStores: once armed, the
// first of them to serve a chunk share.
type armOnce struct {
	armed  atomic.Bool
	victim atomic.Pointer[longBodyStore]
}

func (s *longBodyStore) DownloadTo(ctx context.Context, name string, w io.Writer) (int64, error) {
	n, err := csp.DownloadTo(ctx, s.Store, name, w)
	if err != nil || !s.arm.armed.Load() || !strings.HasPrefix(name, SharePrefix) {
		return n, err
	}
	if !s.arm.victim.CompareAndSwap(nil, s) && s.arm.victim.Load() != s {
		return n, err
	}
	s.mu.Lock()
	s.served = append(s.served, name)
	s.mu.Unlock()
	m, err := w.Write(s.tail)
	return n + int64(m), err
}

// TestOverlongShareBodyFailsThatShareOnly: a share body with 1 MiB of
// garbage behind it fails its download as a damaged share — once, with no
// retry against the same provider — and the read completes from the other
// locations. The client never takes in the garbage: the read allocates far
// less than the 1 MiB it was sent, and every pooled buffer comes back.
// Not parallel: it measures the process's allocations.
func TestOverlongShareBodyFailsThatShareOnly(t *testing.T) {
	env := newEnv(t, 3)
	// The victim is whichever provider serves the measured read's first
	// share, so it is one the read fetches from whatever the selector picks.
	arm := &armOnce{}
	c := wrappedClient(t, env, nil, func(s csp.Store) csp.Store {
		return &longBodyStore{Store: s, tail: make([]byte, 1<<20), arm: arm}
	})
	data := randData(74, 3_000)
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(bg, "doc"); err != nil {
		t.Fatal(err)
	}
	arm.armed.Store(true)

	base := bufpool.Live()
	var out bytes.Buffer
	out.Grow(len(data))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.GetTo(bg, "doc", &out)
	runtime.ReadMemStats(&after)
	if err != nil || !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("GetTo with an overlong share body: %v (%d of %d bytes)", err, out.Len(), len(data))
	}
	victim := arm.victim.Load()
	if victim == nil {
		t.Fatal("no provider served a share once armed: nothing was tested")
	}
	victim.mu.Lock()
	served := slices.Clone(victim.served)
	victim.mu.Unlock()
	if len(served) == 0 {
		t.Fatalf("%s served no share once armed: nothing was tested", victim.Name())
	}
	n := len(served)
	slices.Sort(served)
	if distinct := len(slices.Compact(served)); distinct != n {
		t.Errorf("an overlong share was fetched again from the same provider (%d downloads of %d shares)", n, distinct)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 512<<10 {
		t.Errorf("the read allocated %d bytes with a 1 MiB tail behind a share", alloc)
	}
	if got := bufpool.Live(); got != base {
		t.Errorf("live pooled buffers = %d, want %d", got, base)
	}
}

// holdFirst holds the first chunk-share download its stores serve, after
// the body has landed in the client's sink, until release closes: a
// provider slow enough that the read completes without it.
type holdFirst struct {
	once    sync.Once
	release chan struct{}
}

type holdingStore struct {
	csp.Store
	h *holdFirst
}

func (s *holdingStore) DownloadTo(ctx context.Context, name string, w io.Writer) (int64, error) {
	n, err := csp.DownloadTo(ctx, s.Store, name, w)
	first := false
	if strings.HasPrefix(name, SharePrefix) {
		s.h.once.Do(func() { first = true })
	}
	if first {
		<-s.h.release
	}
	return n, err
}

// TestRaceLoserGivesItsShareBufferBack: with a racing read (a hedge policy
// that fires at 1 ns), the lane held up at a slow provider loses; its share
// lands after GetTo has returned and the gather has given its own buffers
// back, and it gives its buffer back too. Not parallel: the live-buffer
// counter is process-global.
func TestRaceLoserGivesItsShareBufferBack(t *testing.T) {
	env := newEnv(t, 3)
	h := &holdFirst{release: make(chan struct{})}
	gets := make(chan transferRec, 8)
	record := recording(func(r transferRec) {
		if r.isShareGet() {
			gets <- r
		}
	})
	c := wrappedClient(t, env, func(cfg *Config) { cfg.Transfer.HedgePolicy = raceReads }, func(s csp.Store) csp.Store {
		return record(&holdingStore{Store: s, h: h})
	})
	data := randData(75, 200) // one chunk
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	base := bufpool.Live()
	var out bytes.Buffer
	if _, err := c.GetTo(bg, "doc", &out); err != nil || !bytes.Equal(out.Bytes(), data) {
		close(h.release)
		t.Fatalf("GetTo with a held provider: %v", err)
	}
	if got := bufpool.Live(); got != base+1 {
		t.Errorf("live pooled buffers while the loser is held = %d, want %d", got, base+1)
	}
	for len(gets) > 0 {
		<-gets // the winners'
	}
	close(h.release)
	select {
	case <-gets:
	case <-time.After(10 * time.Second):
		t.Fatal("the held download never finished")
	}
	// The store answered; the attempt hands its sink back right after.
	for deadline := time.Now().Add(10 * time.Second); bufpool.Live() != base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := bufpool.Live(); got != base {
		t.Fatalf("live pooled buffers after the loser landed = %d, want %d", got, base)
	}
}
