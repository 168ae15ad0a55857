package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/erasure"
	"repro/internal/metadata"
	"repro/internal/vclock"
)

// fixedNow is a real runtime with a pinned clock, so two universes produce
// byte-identical metadata records (Modified is part of the serialized
// record, though not of the version identity).
type fixedNow struct {
	vclock.Runtime
	at time.Time
}

func (f fixedNow) Now() time.Time { return f.at }

// stutterReader serves data through a cycle of awkward fragment sizes so
// the scanner's fill loop sees short reads, huge reads, and 1-byte reads.
type stutterReader struct {
	data  []byte
	sizes []int
	i     int
	off   int
}

func (r *stutterReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	want := r.sizes[r.i%len(r.sizes)]
	r.i++
	if want > len(p) {
		want = len(p)
	}
	n := copy(p[:want], r.data[r.off:])
	r.off += n
	return n, nil
}

// goldenChunking gives the 64 MiB golden input about a thousand chunks.
var goldenChunking = chunker.Config{AverageSize: 64 * 1024, MinSize: 16 * 1024, MaxSize: 256 * 1024, Window: 48}

// TestStreamingGoldenEquivalence is the acceptance pin for the streaming
// data plane: for a seeded 64 MiB input, PutReader (fed through ragged
// reader fragments) in one universe and batch Put in an identical second
// universe must leave byte-for-byte identical provider state — same object
// names, same share bytes, same metadata records — and GetTo, Get, and
// GetRange must all reproduce the input exactly.
func TestStreamingGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("64 MiB golden input")
	}
	t.Parallel()
	const size = 64 << 20
	data := randData(42, size)
	pinned := fixedNow{vclock.Real(), time.Date(2015, 4, 21, 12, 0, 0, 0, time.UTC)}
	tweak := func(cfg *Config) {
		cfg.Chunking = goldenChunking
		cfg.Runtime = pinned
	}

	envStream := newEnv(t, 5)
	envBatch := newEnv(t, 5)
	cs := envStream.client("alice", tweak)
	cb := envBatch.client("alice", tweak)

	r := &stutterReader{data: data, sizes: []int{65537, 13, 1 << 20, 4097, 255, 1}}
	if err := cs.PutReader(bg, "golden/big.bin", r); err != nil {
		t.Fatal(err)
	}
	if err := cb.Put(bg, "golden/big.bin", data); err != nil {
		t.Fatal(err)
	}

	// Identical stored state, provider by provider, object by object: this
	// covers shares (same cut points, same codewords) and metadata records
	// (same version identity, chunk tables, and share maps).
	for _, name := range envStream.names {
		sNames := envStream.backends[name].ObjectNames("")
		bNames := envBatch.backends[name].ObjectNames("")
		if len(sNames) != len(bNames) {
			t.Fatalf("%s: %d objects streamed vs %d batch", name, len(sNames), len(bNames))
		}
		for i, obj := range sNames {
			if obj != bNames[i] {
				t.Fatalf("%s: object %d: %q vs %q", name, i, obj, bNames[i])
			}
			sData, _ := envStream.backends[name].PeekObject(obj)
			bData, _ := envBatch.backends[name].PeekObject(obj)
			if !bytes.Equal(sData, bData) {
				t.Fatalf("%s: object %q differs between streamed and batch upload", name, obj)
			}
		}
	}

	// Read-back equivalence through both planes.
	var streamed bytes.Buffer
	streamed.Grow(size)
	info, err := cs.GetTo(bg, "golden/big.bin", &streamed)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != size {
		t.Fatalf("GetTo info.Size = %d, want %d", info.Size, size)
	}
	if !bytes.Equal(streamed.Bytes(), data) {
		t.Fatal("GetTo bytes differ from input")
	}
	got, _, err := cb.Get(bg, "golden/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("batch Get bytes differ from input")
	}
	// A mid-file range through the windowed fetch path.
	const off, ln = size/2 - 12345, 777_777
	part, _, err := cs.GetRange(bg, "golden/big.bin", off, ln)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part, data[off:off+ln]) {
		t.Fatal("GetRange bytes differ from input slice")
	}
}

// TestPutReaderMemoryBounded pins the window invariant: streaming a file
// many times larger than the window keeps the accounted data-plane memory
// at O(pipelineDepth × MaxSize), not O(file).
func TestPutReaderMemoryBounded(t *testing.T) {
	env := newEnv(t, 5)
	const depth = 2
	c := env.client("alice", nil)
	c.depth = depth
	// Default test chunking: MaxSize 4096. 2 MiB => ~2k chunks.
	const size = 2 << 20
	data := randData(3, size)

	c.resetBufferPeak()
	if err := c.PutReader(bg, "stream/mem.bin", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	cur, peak := c.BufferBytes()
	if cur != 0 {
		t.Fatalf("accounted bytes after PutReader = %d, want 0", cur)
	}
	maxChunk := int64(4096)
	// Window chunks + the scanner ring + one chunk being admitted.
	bound := (depth + 2) * maxChunk
	if peak > bound {
		t.Fatalf("PutReader peak accounted bytes = %d, want <= %d (window bound)", peak, bound)
	}
	if peak*8 > size {
		t.Fatalf("PutReader peak %d not far below file size %d", peak, size)
	}

	c.resetBufferPeak()
	if _, err := c.GetTo(bg, "stream/mem.bin", io.Discard); err != nil {
		t.Fatal(err)
	}
	cur, peak = c.BufferBytes()
	if cur != 0 {
		t.Fatalf("accounted bytes after GetTo = %d, want 0", cur)
	}
	if peak > bound {
		t.Fatalf("GetTo peak accounted bytes = %d, want <= %d (window bound)", peak, bound)
	}

	// The batch wrappers account the whole-file buffer: their peak is the
	// contrast the streaming experiment measures.
	c.resetBufferPeak()
	gotAll, _, err := c.Get(bg, "stream/mem.bin")
	if err != nil || !bytes.Equal(gotAll, data) {
		t.Fatalf("Get: %v", err)
	}
	if _, peak = c.BufferBytes(); peak < size {
		t.Fatalf("batch Get peak %d, want >= file size %d", peak, size)
	}
}

// TestStreamingFaultInjectionReleasesBuffers hammers the streaming paths
// with injected provider faults and pins two invariants: the erasure pool's
// live-buffer counter returns to its baseline (no silent pool growth on
// error paths) and the client's accounted data-plane bytes drain to zero.
// Not parallel: the live-buffer counter is process-global.
func TestStreamingFaultInjectionReleasesBuffers(t *testing.T) {
	env := newEnv(t, 5)
	c := env.client("alice", nil)
	c.depth = 3
	rng := rand.New(rand.NewSource(99))
	base := bufpool.Live()

	for round := 0; round < 25; round++ {
		name := fmt.Sprintf("chaos/f%d", round%6)
		data := randData(int64(round), 8_000+rng.Intn(30_000))

		// Fault mix: transient failures, and sometimes a provider fully down
		// for the round.
		env.backends[env.names[rng.Intn(len(env.names))]].FailNext(1 + rng.Intn(3))
		var down string
		if round%4 == 3 {
			down = env.names[rng.Intn(len(env.names))]
			env.backends[down].SetAvailable(false)
		}

		// Both ops may fail — that is the point; they must not leak.
		_ = c.PutReader(bg, name, bytes.NewReader(data))
		_, _ = c.GetTo(bg, name, io.Discard)

		if down != "" {
			env.backends[down].SetAvailable(true)
		}
	}
	// Clear any pending fault injections and verify a clean pass still works.
	for _, n := range env.names {
		env.backends[n].FailNext(0)
		env.backends[n].SetAvailable(true)
	}
	data := randData(1234, 20_000)
	if err := c.PutReader(bg, "chaos/final", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := c.GetTo(bg, "chaos/final", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("post-chaos round trip mismatch")
	}

	settled := func(what string, clients ...*Client) {
		t.Helper()
		if got := bufpool.Live(); got != base {
			t.Fatalf("%s: live pooled buffers = %d, want %d (a pooled buffer was not returned)", what, got, base)
		}
		for _, cl := range clients {
			if cur, _ := cl.BufferBytes(); cur != 0 {
				t.Fatalf("%s: accounted data-plane bytes = %d, want 0", what, cur)
			}
		}
	}
	settled("fault injection", c)

	// The read window decodes every chunk into a pooled buffer it owns until
	// the chunk's last occurrence is delivered. Each way out of a read has
	// to give those back.
	rep := repeatingData(7)
	if err := c.PutReader(bg, "chaos/repeats", bytes.NewReader(rep)); err != nil {
		t.Fatal(err)
	}
	if n := maxChunkRepeats(t, c, "chaos/repeats"); n < 2 {
		t.Fatalf("repeating input: no chunk occurs twice (max %d)", n)
	}
	out.Reset()
	if _, err := c.GetTo(bg, "chaos/repeats", &out); err != nil || !bytes.Equal(out.Bytes(), rep) {
		t.Fatalf("GetTo of repeating chunks: err %v, %d of %d bytes", err, out.Len(), len(rep))
	}
	settled("repeated chunks", c)

	part, _, err := c.GetRange(bg, "chaos/repeats", 5_000, 30_000)
	if err != nil || !bytes.Equal(part, rep[5_000:35_000]) {
		t.Fatalf("GetRange: %v", err)
	}
	settled("GetRange", c)

	// A writer that fails, and a caller that gives up, while chunks are
	// resident in the window.
	if _, err := c.GetTo(bg, "chaos/repeats", &failingWriter{after: 9_000}); err == nil {
		t.Fatal("GetTo into a failing writer succeeded")
	}
	settled("failing writer", c)
	ctx, cancel := context.WithCancel(bg)
	_, err = c.GetTo(ctx, "chaos/repeats", &failingWriter{after: 9_000, onFail: cancel})
	cancel()
	if err == nil {
		t.Fatal("GetTo under a cancelled context succeeded")
	}
	settled("cancellation", c)

	// A corrupt share: the first decode fails its verify (its buffer goes
	// back before the read widens) and the verified search takes over — at
	// (2,4) it reads past one bad share, at (2,3) with two bad shares of a
	// chunk the read fails.
	for _, n := range []int{4, 3} {
		cenv := newEnv(t, 4)
		cc := cenv.client("alice", func(cfg *Config) { cfg.N = n })
		cdata := randData(70, 5_000)
		if err := cc.Put(bg, "doc", cdata); err != nil {
			t.Fatal(err)
		}
		corruptShareOfEveryChunk(t, cenv, cc, "doc", 5-n)
		got, _, err := cc.Get(bg, "doc")
		if n == 4 && (err != nil || !bytes.Equal(got, cdata)) {
			t.Fatalf("(2,4) read through a corrupt share: %v", err)
		}
		if n == 3 && err == nil {
			t.Fatal("(2,3) read through two corrupt shares of a chunk returned data")
		}
		settled(fmt.Sprintf("corrupt share at n=%d", n), cc)
	}

	// ReencodeClass owns each gathered chunk until its scatter has joined,
	// and gives it back when the scatter fails too: the cold class wants
	// three providers and only the two that serve the read are up.
	renv := newEnv(t, 6)
	rc := renv.client("alice", classConfig)
	if err := rc.Put(bg, "docs/aging.bin", randData(5, 20_000)); err != nil {
		t.Fatal(err)
	}
	for _, name := range renv.names[2:] {
		renv.backends[name].SetAvailable(false)
	}
	if _, err := rc.ReencodeClass(bg, "docs/aging.bin", "cold"); err == nil {
		t.Fatal("ReencodeClass with two providers up succeeded")
	}
	settled("ReencodeClass, scatter failed", rc)
	for _, name := range renv.names {
		renv.backends[name].SetAvailable(true)
	}
	if changed, err := rc.ReencodeClass(bg, "docs/aging.bin", "cold"); err != nil || !changed {
		t.Fatalf("ReencodeClass: changed %v, err %v", changed, err)
	}
	settled("ReencodeClass", rc)
}

// repeatingData is content whose chunks repeat, close enough together that
// a repeat finds its chunk still resident in the read window (gatherRes.uses
// above 1): runs of one byte cut into identical maximum-size chunks, with
// unique content between them.
func repeatingData(seed int64) []byte {
	var b []byte
	for i := 0; i < 3; i++ {
		b = append(b, make([]byte, 24<<10)...)
		b = append(b, randData(seed+int64(i), 6<<10)...)
	}
	return b
}

// maxChunkRepeats returns how often the most frequent chunk of the file's
// head version occurs in it.
func maxChunkRepeats(t *testing.T, c *Client, name string) int {
	t.Helper()
	count := make(map[string]int)
	most := 0
	for _, ref := range headOf(t, c, name).Chunks {
		count[ref.ID]++
		most = max(most, count[ref.ID])
	}
	return most
}

// failingWriter accepts after bytes and then fails every Write, calling
// onFail (if set) first.
type failingWriter struct {
	after  int
	onFail func()
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after -= len(p); w.after < 0 {
		if w.onFail != nil {
			w.onFail()
		}
		return 0, errors.New("writer full")
	}
	return len(p), nil
}

// corruptShareOfEveryChunk flips a byte in k stored shares of every chunk of
// the file's head version.
func corruptShareOfEveryChunk(t *testing.T, env *testEnv, c *Client, file string, k int) {
	t.Helper()
	for _, ref := range headOf(t, c, file).Chunks {
		ofChunk := shareNamesOf(t, c, ref)
		done := 0
		for _, name := range env.names {
			if done < k && corruptOneShare(t, env.backends[name], ofChunk) != "" {
				done++
			}
		}
		if done < k {
			t.Fatalf("corrupted %d shares of chunk %s, want %d", done, ref.ID[:8], k)
		}
	}
}

// TestPooledPlaintextOutlivesItsReaders is the use-after-release check the
// leak counter cannot make. With the pool scribbling over every buffer the
// moment it is returned, a read window of 1 and of 3 delivers a file whose
// chunks repeat, while one provider is stale — so lazy migration re-encodes
// each chunk's plaintext after delivery, the last reader there is. The output
// must be byte-exact and every migrated share consistent with its siblings:
// a share encoded from a buffer already released would carry the scribble.
// Not parallel: the poison switch is process-global.
func TestPooledPlaintextOutlivesItsReaders(t *testing.T) {
	bufpool.PoisonOnRelease.Store(true)
	defer bufpool.PoisonOnRelease.Store(false)
	base := bufpool.Live()

	for _, depth := range []int{1, 3} {
		env := newEnv(t, 5)
		c := env.client("alice", nil)
		c.depth = depth
		data := repeatingData(int64(depth))
		if err := c.PutReader(bg, "doc", bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if n := maxChunkRepeats(t, c, "doc"); n < 2 {
			t.Fatalf("repeating input: no chunk occurs twice (max %d)", n)
		}
		var victim string
		for _, name := range env.names {
			if len(c.ChunkTable().SharesOn(name)) > 0 {
				victim = name
				break
			}
		}
		if err := c.RemoveCSP(bg, victim); err != nil {
			t.Fatal(err)
		}

		var out bytes.Buffer
		if _, err := c.GetTo(bg, "doc", &out); err != nil {
			t.Fatalf("depth %d: GetTo: %v", depth, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("depth %d: GetTo delivered bytes that differ from the input", depth)
		}
		if left := c.ChunkTable().SharesOn(victim); len(left) != 0 {
			t.Fatalf("depth %d: %d chunks still on the removed provider: nothing migrated", depth, len(left))
		}

		// Every chunk's n shares, where the table now says they are, decode
		// together (surplus shares are checked against the reconstruction) to
		// the chunk's identity.
		for _, ref := range headOf(t, c, "doc").Chunks {
			info, ok := c.ChunkTable().LookupEnc(ref.ID, ref.Class)
			if !ok {
				t.Fatalf("chunk %s not in the table", ref.ID[:8])
			}
			b, err := c.chunkBlob(ref)
			if err != nil {
				t.Fatal(err)
			}
			var shares []erasure.Share
			for _, loc := range info.Shares {
				shares = append(shares, erasure.Share{Index: loc.Index, Data: snapshotObject(t, env.backends[loc.CSP], b.name(loc.Index))})
			}
			plain, err := b.coder.Decode(shares, erasure.MaxN)
			if err == nil {
				err = b.verify(plain)
			}
			if len(shares) != ref.N || err != nil {
				t.Fatalf("depth %d: chunk %s after migration: %d shares, %v", depth, ref.ID[:8], len(shares), err)
			}
		}

		// A range read and a second full read, now with nothing to migrate.
		part, _, err := c.GetRange(bg, "doc", 3_000, 40_000)
		if err != nil || !bytes.Equal(part, data[3_000:43_000]) {
			t.Fatalf("depth %d: GetRange: %v", depth, err)
		}
		got, _, err := c.Get(bg, "doc")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("depth %d: Get after migration: %v", depth, err)
		}
	}
	if got := bufpool.Live(); got != base {
		t.Fatalf("live pooled buffers = %d, want %d", got, base)
	}
}

// firstByteWriter stamps the clock reading at the first byte written through
// it.
type firstByteWriter struct {
	now  func() time.Time
	at   time.Time
	seen bool
}

func (f *firstByteWriter) Write(p []byte) (int, error) {
	if !f.seen && len(p) > 0 {
		f.seen, f.at = true, f.now()
	}
	return len(p), nil
}

// TestGetToFirstByteBeforeWholeFileGet: GetTo hands chunk 0 to the writer as
// soon as it is gathered, while a whole-file Get cannot release any byte
// before its last chunk lands. On the testbed links, in virtual time, the
// first byte of a 4 MiB GetTo (64 KiB average chunks) arrives in under half
// the time a Get of the same file takes (the Get runs second, with the
// warmer estimates).
func TestGetToFirstByteBeforeWholeFileGet(t *testing.T) {
	t.Parallel()
	net, stores, linkBps := testbedNet(t)
	data := randData(7, 4<<20)
	var ttfb, whole time.Duration
	net.Run(func() {
		c, err := New(Config{
			ClientID: "alice", Key: "k", T: 2, N: 3, Runtime: net, LinkBps: linkBps,
			Chunking: chunker.Config{AverageSize: 64 << 10, MinSize: 16 << 10, MaxSize: 256 << 10},
		}, stores())
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.PutReader(bg, "big.bin", bytes.NewReader(data)); err != nil {
			t.Error(err)
			return
		}
		start := net.Now()
		fw := &firstByteWriter{now: net.Now}
		if _, err := c.GetTo(bg, "big.bin", fw); err != nil {
			t.Error(err)
			return
		}
		ttfb = fw.at.Sub(start)
		start = net.Now()
		got, _, err := c.Get(bg, "big.bin")
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("Get: %v", err)
			return
		}
		whole = net.Now().Sub(start)
	})
	if t.Failed() {
		return
	}
	t.Logf("GetTo first byte after %v, whole-file Get %v", ttfb, whole)
	if ttfb <= 0 || ttfb*2 > whole {
		t.Fatalf("GetTo first byte after %v, whole-file Get %v: want under half", ttfb, whole)
	}
}

// shareHold holds every chunk-share upload to the providers it fronts
// (holdShares), so a Put's scatter window stays full while later chunks are
// scanned and hashed. Metadata uploads pass at once.
type shareHold struct {
	hold    time.Duration // how long each share upload waits
	gate    chan struct{} // when non-nil, share uploads also wait for it to close
	entered chan struct{} // closed when the first share upload arrives
	once    sync.Once
}

type heldStore struct {
	csp.Store
	*shareHold
}

func (h heldStore) Upload(ctx context.Context, name string, data []byte) error {
	if strings.HasPrefix(name, SharePrefix) {
		h.once.Do(func() { close(h.entered) })
		if h.gate != nil {
			select {
			case <-h.gate:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		time.Sleep(h.hold)
	}
	return h.Store.Upload(ctx, name, data)
}

// holdShares fronts every provider of env with h.
func holdShares(env *testEnv, h *shareHold) map[string]csp.Store {
	h.entered = make(chan struct{})
	replace := make(map[string]csp.Store)
	for _, name := range env.names {
		replace[name] = heldStore{Store: cloudsim.NewSimStore(env.backends[name]), shareHold: h}
	}
	return replace
}

// TestPutReaderWindowBoundWhileUploadsHeld pins the window invariant while
// the hash runs ahead of admission: with every share upload held, the
// scatter window stays full while later chunks are scanned and hashed, and
// the Put still holds at most depth + 2 chunk buffers. The record it
// publishes is the one a sequential pass builds: chunks in chunker.Split
// order, and the file ID of that list.
func TestPutReaderWindowBoundWhileUploadsHeld(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	// Twice the average chunk is MaxSize, so every chunk buffer is drawn
	// at MaxSize and the peak counts buffers exactly.
	maxChunk := func(cfg *Config) { cfg.Chunking = chunker.Config{AverageSize: 2048, MinSize: 512, MaxSize: 4096} }
	c := env.clientReplacing("alice", maxChunk, holdShares(env, &shareHold{hold: 500 * time.Microsecond}))
	const depth = 3
	c.depth = depth
	data := randData(17, 256<<10) // over a hundred chunks

	c.resetBufferPeak()
	if err := c.PutReader(bg, "held/doc.bin", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	cur, peak := c.BufferBytes()
	if cur != 0 {
		t.Fatalf("accounted bytes after PutReader = %d, want 0", cur)
	}
	if bound := int64((depth + 2) * 4096); peak > bound {
		t.Fatalf("peak accounted bytes = %d, want <= %d ((depth+2) x MaxSize)", peak, bound)
	}

	head := headOf(t, c, "held/doc.bin")
	split := c.chunkerFor("").Split(data)
	if len(head.Chunks) != len(split) {
		t.Fatalf("record has %d chunks, Split gives %d", len(head.Chunks), len(split))
	}
	want := make([]metadata.ChunkRef, len(split))
	for i, ch := range split {
		want[i] = metadata.ChunkRef{ID: metadata.HashData(ch.Data), Offset: ch.Offset, Size: int64(len(ch.Data))}
		got := head.Chunks[i]
		if got.ID != want[i].ID || got.Offset != want[i].Offset || got.Size != want[i].Size {
			t.Fatalf("chunk %d: record has (%s, %d, %d), Split gives (%s, %d, %d)",
				i, got.ID[:8], got.Offset, got.Size, want[i].ID[:8], want[i].Offset, want[i].Size)
		}
	}
	if id := metadata.FileID(want); head.File.ID != id {
		t.Fatalf("file ID %s, sequential chunk list gives %s", head.File.ID[:8], id[:8])
	}
}

// errReader serves data and then fails with err. Before failing it waits
// for ready (for at most ten seconds), so the failure lands while the Put
// has work in flight, and then closes release.
type errReader struct {
	data    []byte
	err     error
	ready   <-chan struct{}
	release chan struct{}
}

func (r *errReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		select {
		case <-r.ready:
		case <-time.After(10 * time.Second):
		}
		closeOnce(r.release)
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// closeOnce closes ch unless it is already closed; one goroutine calls it.
func closeOnce(ch chan struct{}) {
	select {
	case <-ch:
	default:
		close(ch)
	}
}

// TestPutReaderFailsMidStream: a reader that fails partway through a
// multi-chunk stream — a chunk hashing ahead, shares in flight — fails the
// Put with the reader's error, publishes no record, and gives every buffer
// back, with every released buffer poisoned so a late reader of one shows.
// Not parallel: the poison switch and the live-buffer counter are
// process-global.
func TestPutReaderFailsMidStream(t *testing.T) {
	bufpool.PoisonOnRelease.Store(true)
	defer bufpool.PoisonOnRelease.Store(false)
	base := bufpool.Live()

	env := newEnv(t, 5)
	hold := &shareHold{gate: make(chan struct{})}
	c := env.clientReplacing("alice", nil, holdShares(env, hold))
	// 8 KiB is 2 to 32 chunks at the test chunking (MinSize 256, MaxSize
	// 4096), so a window of 32 admits them all with every upload held.
	c.depth = 32
	boom := errors.New("disk read failed")
	// Shares are held until the reader fails, and the reader fails only
	// once a share upload has arrived: the scatters are in flight.
	r := &errReader{data: randData(23, 8<<10), err: boom, ready: hold.entered, release: hold.gate}
	err := c.PutReader(bg, "broken/doc.bin", r)
	closeOnce(hold.gate)
	select {
	case <-hold.entered:
	default:
		t.Fatal("the reader failed before any share upload was in flight")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("PutReader = %v, want an error wrapping the reader's", err)
	}
	for _, name := range env.names {
		if recs := env.backends[name].ObjectNames(metadata.MetaPrefix); len(recs) != 0 {
			t.Fatalf("%s holds metadata %v after a failed Put", name, recs)
		}
	}
	if _, err := c.Stat(bg, "broken/doc.bin"); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("Stat after a failed Put = %v, want ErrNoSuchFile", err)
	}
	if cur, _ := c.BufferBytes(); cur != 0 {
		t.Fatalf("accounted bytes after a failed Put = %d, want 0", cur)
	}
	if got := bufpool.Live(); got != base {
		t.Fatalf("live pooled buffers = %d, want %d", got, base)
	}
}
