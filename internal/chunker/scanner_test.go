package chunker

import (
	"bytes"
	"crypto/sha1"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bufpool"
)

// fragmentReader feeds its payload in adversarially sized fragments: every
// Read returns at most the next scripted size (1-byte reads, short reads,
// exact-boundary reads), modeling a slow or bursty network source.
type fragmentReader struct {
	data  []byte
	sizes []int // cycled; each entry caps one Read
	i     int
}

func (f *fragmentReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, io.EOF
	}
	n := f.sizes[f.i%len(f.sizes)]
	f.i++
	if n > len(p) {
		n = len(p)
	}
	if n > len(f.data) {
		n = len(f.data)
	}
	if n == 0 {
		n = 1
	}
	copied := copy(p[:n], f.data)
	f.data = f.data[copied:]
	return copied, nil
}

// collect drains a scanner, copying each chunk (streaming-mode Data is only
// valid until the next call).
func collect(t *testing.T, s *Scanner) []Chunk {
	t.Helper()
	var out []Chunk
	for {
		ch, err := s.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, Chunk{Offset: ch.Offset, Data: append([]byte(nil), ch.Data...)})
	}
}

// requireSameChunks asserts identical cut points, offsets, and content
// hashes between two chunkings of the same input.
func requireSameChunks(t *testing.T, want, got []Chunk) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("chunk count mismatch: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Offset != got[i].Offset {
			t.Fatalf("chunk %d: offset %d, want %d", i, got[i].Offset, want[i].Offset)
		}
		if sha1.Sum(want[i].Data) != sha1.Sum(got[i].Data) {
			t.Fatalf("chunk %d: content hash mismatch at offset %d", i, want[i].Offset)
		}
	}
}

// TestScannerMatchesSplit is the core equivalence property: for both Rabin
// and FastCDC, a Scanner fed arbitrary reader fragmentations produces
// exactly the cut points Split produces on the whole buffer.
func TestScannerMatchesSplit(t *testing.T) {
	fragmentations := map[string][]int{
		"one-byte":       {1},
		"short-reads":    {7, 13, 1, 64, 3},
		"exact-boundary": {4096}, // == MaxSize of the test configs
		"large-reads":    {1 << 16},
		"mixed":          {1, 4096, 2, 1000, 4095, 4097},
	}
	eachAlgo(t, func(t *testing.T, c *Chunker) {
		data := randomBytes(31, 300_000)
		want := c.Split(data)
		for name, sizes := range fragmentations {
			got := collect(t, c.Scan(&fragmentReader{data: data, sizes: sizes}))
			t.Run(name, func(t *testing.T) { requireSameChunks(t, want, got) })
		}
	})
}

// TestScannerRandomFragments drives the equivalence property across many
// random fragmentations and input sizes, including sizes that land exactly
// on Min/Average/MaxSize multiples.
func TestScannerRandomFragments(t *testing.T) {
	eachAlgo(t, func(t *testing.T, c *Chunker) {
		rng := rand.New(rand.NewSource(77))
		lengths := []int{0, 1, 255, 256, 257, 1024, 4095, 4096, 4097, 50_000, 123_457}
		for _, n := range lengths {
			data := randomBytes(int64(n)+5, n)
			want := c.Split(data)
			for trial := 0; trial < 4; trial++ {
				sizes := make([]int, 1+rng.Intn(8))
				for i := range sizes {
					sizes[i] = 1 + rng.Intn(5000)
				}
				got := collect(t, c.Scan(&fragmentReader{data: data, sizes: sizes}))
				requireSameChunks(t, want, got)
			}
		}
	})
}

func TestScanBytesMatchesSplitAndAliases(t *testing.T) {
	eachAlgo(t, func(t *testing.T, c *Chunker) {
		data := randomBytes(33, 100_000)
		want := c.Split(data)
		s := c.ScanBytes(data)
		var got []Chunk
		for {
			ch, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			// ScanBytes chunks must alias the input, exactly like Split.
			if len(ch.Data) > 0 && &ch.Data[0] != &data[ch.Offset] {
				t.Fatalf("chunk at offset %d does not alias the input", ch.Offset)
			}
			got = append(got, ch)
		}
		requireSameChunks(t, want, got)
	})
}

func TestScannerEmptyInput(t *testing.T) {
	eachAlgo(t, func(t *testing.T, c *Chunker) {
		s := c.Scan(bytes.NewReader(nil))
		if _, err := s.Next(); err != io.EOF {
			t.Fatalf("want io.EOF on empty input, got %v", err)
		}
		// io.EOF is sticky.
		if _, err := s.Next(); err != io.EOF {
			t.Fatalf("want sticky io.EOF, got %v", err)
		}
	})
}

// errAfterReader yields its payload, then a non-EOF error: the scanner must
// surface the error instead of finalizing the buffered partial window as a
// bogus tail chunk.
type errAfterReader struct {
	data []byte
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestScannerSurfacesReadError(t *testing.T) {
	boom := errors.New("link reset")
	eachAlgo(t, func(t *testing.T, c *Chunker) {
		// 100 bytes buffered (< MinSize, so no chunk can be cut before the
		// error): Next must fail, not emit a truncated tail.
		s := c.Scan(&errAfterReader{data: randomBytes(9, 100), err: boom})
		if _, err := s.Next(); !errors.Is(err, boom) {
			t.Fatalf("want read error, got %v", err)
		}
		if _, err := s.Next(); !errors.Is(err, boom) {
			t.Fatalf("want sticky read error, got %v", err)
		}
	})
}

func TestScannerStuckReaderErrNoProgress(t *testing.T) {
	eachAlgo(t, func(t *testing.T, c *Chunker) {
		s := c.Scan(stuckReader{})
		if _, err := s.Next(); !errors.Is(err, io.ErrNoProgress) {
			t.Fatalf("want io.ErrNoProgress, got %v", err)
		}
	})
}

type stuckReader struct{}

func (stuckReader) Read(p []byte) (int, error) { return 0, nil }

// FuzzScannerMatchesSplit fuzzes both the payload and the fragmentation
// schedule, asserting scanner/split cut-point and hash equivalence for both
// algorithms. It keeps every chunk whose buffer it takes (which of the first
// eight, the fuzzer picks) to the end of the scan, with the pool poisoning
// each buffer the scanner gives back, so a chunk sharing bytes with a released
// buffer, or a read-ahead carried from one after its release, shows up as a
// mismatch.
func FuzzScannerMatchesSplit(f *testing.F) {
	f.Add([]byte(nil), uint8(1), uint8(0xFF))
	f.Add([]byte("hello world"), uint8(3), uint8(0))
	f.Add(bytes.Repeat([]byte{0xAB}, 9000), uint8(0), uint8(0x55))
	f.Add(randomBytes(28, 20_000), uint8(200), uint8(0xA3))
	chunkers := make(map[string]*Chunker)
	for name, cfg := range algoConfigs() {
		c, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		chunkers[name] = c
	}
	f.Fuzz(func(t *testing.T, data []byte, frag, keep uint8) {
		bufpool.PoisonOnRelease.Store(true)
		defer bufpool.PoisonOnRelease.Store(false)
		base := bufpool.Live()
		// Derive a fragmentation schedule from the fuzzed byte: 0 means
		// 1-byte reads; otherwise a small cycle seeded by frag.
		sizes := []int{1}
		if frag > 0 {
			sizes = []int{int(frag), 1, int(frag) * 16, 3}
		}
		for name, c := range chunkers {
			want := c.Split(data)
			var got []Chunk
			var bufs []*[]byte
			s := c.Scan(&fragmentReader{data: append([]byte(nil), data...), sizes: sizes})
			for i := 0; ; i++ {
				ch, err := s.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s: Next: %v", name, err)
				}
				if i < 8 && keep>>i&1 == 1 {
					bufs = append(bufs, s.Take())
				} else {
					ch.Data = append([]byte(nil), ch.Data...)
				}
				got = append(got, ch)
			}
			if len(want) != len(got) {
				t.Fatalf("%s: chunk count mismatch: split %d, scan %d", name, len(want), len(got))
			}
			for i := range want {
				if want[i].Offset != got[i].Offset || !bytes.Equal(want[i].Data, got[i].Data) {
					t.Fatalf("%s: chunk %d differs between Split and Scanner", name, i)
				}
			}
			for _, bp := range bufs {
				bufpool.Put(bp)
			}
			if live := bufpool.Live(); live != base {
				t.Fatalf("%s: %d pooled buffers not given back", name, live-base)
			}
		}
	})
}

// TestPoolCapFollowsDefaultMaxSize pins the buffer pool's cap to what it is
// derived from: three of the default chunker's largest chunks.
func TestPoolCapFollowsDefaultMaxSize(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * c.Config().MaxSize; bufpool.KeepBytes != want {
		t.Fatalf("bufpool.KeepBytes = %d, want 3 × default MaxSize = %d", bufpool.KeepBytes, want)
	}
}

// TestScannerCloseGivesBuffersBack: a caller that stops early — after a
// chunk it did not take, or mid-stream — gets every pooled buffer back with
// Close, and Next fails after it.
func TestScannerCloseGivesBuffersBack(t *testing.T) {
	base := bufpool.Live()
	eachAlgo(t, func(t *testing.T, c *Chunker) {
		data := randomBytes(35, 50_000)
		for stop := 0; stop < 4; stop++ {
			s := c.Scan(&fragmentReader{data: bytes.Clone(data), sizes: []int{777}})
			for i := 0; i < stop; i++ {
				if _, err := s.Next(); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			if _, err := s.Next(); err == nil {
				t.Fatal("Next after Close succeeded")
			}
			if live := bufpool.Live(); live != base {
				t.Fatalf("stopped after %d chunks: %d pooled buffers not given back", stop, live-base)
			}
		}
	})
}

// growConfigs are configurations whose MaxSize exceeds the initial ring, so a
// hint-less stream has to grow it (the small property-suite configs never
// do).
func growConfigs() map[string]Config {
	return map[string]Config{
		"rabin":   {Algorithm: Rabin, AverageSize: 64 << 10, MinSize: 16 << 10, MaxSize: 4 * minRing, Window: 48},
		"fastcdc": {Algorithm: FastCDC, AverageSize: 64 << 10, MinSize: 16 << 10, MaxSize: 4 * minRing},
	}
}

// shortLenReader reports a remaining length smaller than what it delivers:
// the hint only picks the first ring size, it is never trusted.
type shortLenReader struct{ fragmentReader }

func (r *shortLenReader) Len() int { return len(r.data) / 3 }

// TestScannerRingGrowthMatchesSplit: a ring that starts small and doubles up
// to MaxSize — or starts at a reader's length hint, right or wrong — cuts
// exactly where Split does, for inputs below, at and far beyond MaxSize.
func TestScannerRingGrowthMatchesSplit(t *testing.T) {
	for name, cfg := range growConfigs() {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, minRing - 1, minRing, minRing + 1, cfg.MaxSize - 1, cfg.MaxSize, cfg.MaxSize + 1, 5*cfg.MaxSize + 12345} {
			data := randomBytes(int64(n)+9, n)
			want := c.Split(data)
			readers := map[string]io.Reader{
				"no-hint":    &fragmentReader{data: bytes.Clone(data), sizes: []int{1 << 20}},
				"fragmented": &fragmentReader{data: bytes.Clone(data), sizes: []int{4097, 1, 70_000, 333}},
				"one-byte":   &fragmentReader{data: bytes.Clone(data), sizes: []int{1}},
				"len-hint":   bytes.NewReader(data),
				"short-len":  &shortLenReader{fragmentReader{data: bytes.Clone(data), sizes: []int{50_000}}},
			}
			for rname, r := range readers {
				s := c.Scan(r)
				got := collect(t, s)
				t.Run(fmt.Sprintf("%s/%d/%s", name, n, rname), func(t *testing.T) { requireSameChunks(t, want, got) })
				if s.BufferBytes() > cfg.MaxSize {
					t.Fatalf("%s/%d/%s: ring grew to %d, beyond MaxSize %d", name, n, rname, s.BufferBytes(), cfg.MaxSize)
				}
			}
		}
	}
}

// TestScannerSmallObjectAllocatesSmallRing: the scanner's memory follows the
// bytes it reads, not MaxSize. Under the production default (16 MiB MaxSize)
// a 16 KiB object used to allocate — and zero — a 16 MiB ring per Put.
func TestScannerSmallObjectAllocatesSmallRing(t *testing.T) {
	c, err := New(Config{}) // production default: 4 MiB average, 16 MiB MaxSize
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().MaxSize < 16<<20 {
		t.Fatalf("default MaxSize %d: this test is about a ring far larger than the object", c.Config().MaxSize)
	}
	data := randomBytes(41, 16<<10)
	want := c.Split(data)
	for name, mk := range map[string]func() io.Reader{
		"len-hint": func() io.Reader { return bytes.NewReader(data) },
		"no-hint":  func() io.Reader { return &fragmentReader{data: bytes.Clone(data), sizes: []int{1 << 20}} },
	} {
		r := mk()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := c.Scan(r)
		got := collect(t, s)
		runtime.ReadMemStats(&after)
		requireSameChunks(t, want, got)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: scanning a 16 KiB object allocated %d bytes, want < 1 MiB", name, alloc)
		}
		if s.BufferBytes() > minRing {
			t.Errorf("%s: ring is %d bytes for a 16 KiB object", name, s.BufferBytes())
		}
	}
}

// countingReader counts the bytes the scanner has drawn from the stream.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// hintedReader is a countingReader that also passes on the length hint.
type hintedReader struct {
	countingReader
	len int
}

func (h *hintedReader) Len() int { return h.len }

// TestScannerReadsAheadOneStepAndAccountsItsRing: under the production
// default (1 MiB MinSize, 16 MiB MaxSize) the scanner never holds more than a
// quarter MinSize of the stream beyond the chunk it returns — that read-ahead
// is all it carries into the next chunk's buffer, where a ring filled to
// MaxSize first slid ~11.5 MiB per ~4.5 MiB chunk. Every chunk is a prefix of
// a buffer of its own that Take hands over and that stays intact to the end
// of the scan: the object plus one byte for a hinted 16 KiB stream, minRing
// for an unhinted one, and for a 32 MiB stream at most two average chunks, or
// for a chunk that outgrew that, less than twice the chunk and its read-ahead.
// Between chunks BufferBytes reports only the buffer the read-ahead sits in,
// and nothing once the stream is drained.
func TestScannerReadsAheadOneStepAndAccountsItsRing(t *testing.T) {
	base := bufpool.Live()
	for _, algo := range []Algorithm{FastCDC, Rabin} {
		c, err := New(Config{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.Config()
		step := cfg.MinSize / 4
		for _, n := range []int{16 << 10, 32 << 20} {
			if algo == Rabin && n > 1<<20 && testing.Short() {
				continue // three Rabin passes over 32 MiB: ~8 s under -race
			}
			data := randomBytes(int64(n), n)
			want := c.Split(data)
			for _, hinted := range []bool{true, false} {
				name := fmt.Sprintf("%s/%d/hinted=%v", algo, n, hinted)
				cr := &countingReader{r: &fragmentReader{data: bytes.Clone(data), sizes: []int{1 << 30}}}
				var r io.Reader = cr
				if hinted {
					h := &hintedReader{countingReader: countingReader{r: bytes.NewReader(data)}, len: n}
					cr, r = &h.countingReader, h
				}
				s := c.Scan(r)
				var got []Chunk
				var bufs []*[]byte
				for {
					ch, err := s.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatalf("%s: Next: %v", name, err)
					}
					end := ch.Offset + int64(len(ch.Data))
					if ahead := cr.n - end; ahead > int64(step) {
						t.Fatalf("%s: chunk ending at %d returned with %d bytes read ahead, want <= %d", name, end, ahead, step)
					}
					bp := s.Take()
					if bp == nil || len(*bp) < len(ch.Data) || &(*bp)[0] != &ch.Data[0] {
						t.Fatalf("%s: chunk at %d is not a prefix of the buffer Take hands over", name, ch.Offset)
					}
					size := len(*bp)
					switch {
					case n <= minRing && hinted:
						if size != n+1 {
							t.Errorf("%s: buffer is %d bytes, want %d", name, size, n+1)
						}
					case n <= minRing:
						if size != minRing {
							t.Errorf("%s: buffer is %d bytes, want minRing %d", name, size, minRing)
						}
					case size > cfg.MaxSize || size > 2*cfg.AverageSize && size >= 2*(len(ch.Data)+step):
						t.Errorf("%s: %d-byte chunk in a %d-byte buffer (average %d, step %d, MaxSize %d)", name, len(ch.Data), size, cfg.AverageSize, step, cfg.MaxSize)
					}
					if held := s.BufferBytes(); held > 2*cfg.AverageSize {
						t.Errorf("%s: %d bytes held for the read-ahead of the next chunk", name, held)
					}
					got = append(got, ch)
					bufs = append(bufs, bp)
				}
				requireSameChunks(t, want, got)
				if held := s.BufferBytes(); held != 0 {
					t.Errorf("%s: drained scanner still holds %d bytes", name, held)
				}
				for _, bp := range bufs {
					bufpool.Put(bp)
				}
			}
		}
	}
	if live := bufpool.Live(); live != base {
		t.Fatalf("%d pooled buffers not given back", live-base)
	}
}
