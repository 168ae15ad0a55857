package chunker

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// small test configuration: 1 KiB average chunks so tests run on small
// buffers.
func testChunker(t *testing.T) *Chunker {
	t.Helper()
	c, err := New(Config{Algorithm: Rabin, AverageSize: 1024, MinSize: 256, MaxSize: 4096, Window: 48})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randomBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func reassemble(chunks []Chunk) []byte {
	var out []byte
	for _, c := range chunks {
		out = append(out, c.Data...)
	}
	return out
}

func TestSplitCoversInputExactly(t *testing.T) {
	c := testChunker(t)
	data := randomBytes(1, 100_000)
	chunks := c.Split(data)
	if got := reassemble(chunks); !bytes.Equal(got, data) {
		t.Fatal("chunks do not reassemble to the input")
	}
	var off int64
	for i, ch := range chunks {
		if ch.Offset != off {
			t.Fatalf("chunk %d offset %d, want %d", i, ch.Offset, off)
		}
		off += int64(len(ch.Data))
	}
}

func TestSplitEmptyInput(t *testing.T) {
	c := testChunker(t)
	if chunks := c.Split(nil); len(chunks) != 0 {
		t.Fatalf("Split(nil) returned %d chunks", len(chunks))
	}
}

func TestSizeBounds(t *testing.T) {
	c := testChunker(t)
	data := randomBytes(2, 500_000)
	chunks := c.Split(data)
	for i, ch := range chunks {
		if i < len(chunks)-1 && len(ch.Data) < c.Config().MinSize {
			t.Fatalf("chunk %d is %d bytes, below MinSize %d", i, len(ch.Data), c.Config().MinSize)
		}
		if len(ch.Data) > c.Config().MaxSize {
			t.Fatalf("chunk %d is %d bytes, above MaxSize %d", i, len(ch.Data), c.Config().MaxSize)
		}
	}
}

func TestAverageSizeRoughlyHolds(t *testing.T) {
	c := testChunker(t)
	data := randomBytes(3, 2_000_000)
	chunks := c.Split(data)
	mean := float64(len(data)) / float64(len(chunks))
	// Content-defined chunking with min/max clamps lands near the target;
	// allow a generous band.
	if mean < 512 || mean > 3072 {
		t.Fatalf("mean chunk size %.0f far from target 1024 (%d chunks)", mean, len(chunks))
	}
}

func TestDeterminism(t *testing.T) {
	c := testChunker(t)
	data := randomBytes(4, 300_000)
	a := c.Split(data)
	b := c.Split(data)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Offset != b[i].Offset || len(a[i].Data) != len(b[i].Data) {
			t.Fatalf("chunk %d differs across runs", i)
		}
	}
}

// TestShiftResistance is the core content-defined-chunking property: an
// insertion near the front must leave the chunking of the distant tail
// unchanged (unlike fixed-size chunking, which shifts every boundary).
func TestShiftResistance(t *testing.T) {
	c := testChunker(t)
	data := randomBytes(5, 400_000)
	edited := append([]byte("INSERTED-PREFIX-BYTES"), data...)

	orig := c.Split(data)
	mod := c.Split(edited)

	origSet := make(map[string]bool, len(orig))
	for _, ch := range orig {
		origSet[string(ch.Data)] = true
	}
	shared := 0
	for _, ch := range mod {
		if origSet[string(ch.Data)] {
			shared++
		}
	}
	// All but the first few chunks must be byte-identical to original
	// chunks.
	if shared < len(orig)-3 {
		t.Fatalf("only %d of %d original chunks survive a prefix insertion", shared, len(orig))
	}
}

func TestLocalEditOnlyTouchesNearbyChunks(t *testing.T) {
	c := testChunker(t)
	data := randomBytes(6, 400_000)
	edited := append([]byte(nil), data...)
	for i := 200_000; i < 200_064; i++ {
		edited[i] ^= 0x5A
	}
	orig := c.Split(data)
	mod := c.Split(edited)

	origSet := make(map[string]bool, len(orig))
	for _, ch := range orig {
		origSet[string(ch.Data)] = true
	}
	changed := 0
	for _, ch := range mod {
		if !origSet[string(ch.Data)] {
			changed++
		}
	}
	if changed > 4 {
		t.Fatalf("a 64-byte edit changed %d chunks", changed)
	}
}

func TestQuickCoverage(t *testing.T) {
	c := testChunker(t)
	f := func(data []byte) bool {
		chunks := c.Split(data)
		return bytes.Equal(reassemble(chunks), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{AverageSize: 1000},                                            // not a power of two
		{AverageSize: 1024, MinSize: 512, MaxSize: 64},                 // max < min
		{Algorithm: Rabin, AverageSize: 1024, MinSize: 10, Window: 48}, // min < window
		{Algorithm: Rabin, Window: 1},                                  // window too small
		{Algorithm: Rabin, AverageSize: 1024, K: 4096},                 // K out of range
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New(%+v) succeeded, want error", i, cfg)
		}
	}
}

func TestDefaults(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Config()
	if cfg.Algorithm != FastCDC {
		t.Errorf("default algorithm = %q, want %q", cfg.Algorithm, FastCDC)
	}
	if cfg.Window != DefaultWindow {
		t.Errorf("default window = %d, want %d", cfg.Window, DefaultWindow)
	}
	if cfg.AverageSize != DefaultAverageSize {
		t.Errorf("default average = %d, want %d", cfg.AverageSize, DefaultAverageSize)
	}
	if cfg.MinSize != DefaultAverageSize/4 || cfg.MaxSize != DefaultAverageSize*4 {
		t.Errorf("default min/max = %d/%d", cfg.MinSize, cfg.MaxSize)
	}
}

func TestInputSmallerThanMinSizeIsOneChunk(t *testing.T) {
	c := testChunker(t)
	data := randomBytes(7, 100)
	chunks := c.Split(data)
	if len(chunks) != 1 || !bytes.Equal(chunks[0].Data, data) {
		t.Fatalf("tiny input split into %d chunks", len(chunks))
	}
}

func TestMaxSizeForcesBoundaryOnUniformData(t *testing.T) {
	// All-zero data never triggers a content boundary (hash stays 0), so
	// every chunk must be exactly MaxSize until the tail.
	c := testChunker(t)
	data := make([]byte, 20_000)
	chunks := c.Split(data)
	for i, ch := range chunks[:len(chunks)-1] {
		if len(ch.Data) != c.Config().MaxSize {
			t.Fatalf("uniform-data chunk %d is %d bytes, want MaxSize %d", i, len(ch.Data), c.Config().MaxSize)
		}
	}
}

func TestPolyMulModAgainstDefinition(t *testing.T) {
	// polyMod(polyMulMod(a, b)) must be consistent with repeated shifting.
	f := func(a uint32, shift uint8) bool {
		s := int(shift % 16)
		x := polyMod(uint64(a))
		want := x
		for i := 0; i < s; i++ {
			want = polyMod(want << 1)
		}
		mult := uint64(1)
		for i := 0; i < s; i++ {
			mult = polyMod(mult << 1)
		}
		return polyMulMod(x, mult) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRollingHashMatchesDirectHash(t *testing.T) {
	// The rolled hash at each position must equal the hash computed from
	// scratch over the same window.
	const window = 16
	cfg, err := Config{Algorithm: Rabin, AverageSize: 256, MinSize: 32, MaxSize: 1024, Window: window}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	c := newRabin(cfg)
	direct := func(win []byte) uint64 {
		var h uint64
		for _, b := range win {
			h = c.roll(h, 0, b)
		}
		return h
	}
	data := randomBytes(8, 256)
	var h uint64
	for i := 0; i < window; i++ {
		h = c.roll(h, 0, data[i])
	}
	for i := window; i < len(data); i++ {
		h = c.roll(h, data[i-window], data[i])
		want := direct(data[i-window+1 : i+1])
		if h != want {
			t.Fatalf("rolled hash at %d = %#x, direct = %#x", i, h, want)
		}
	}
}

func BenchmarkSplit(b *testing.B) {
	c, err := New(Config{Algorithm: Rabin})
	if err != nil {
		b.Fatal(err)
	}
	data := randomBytes(9, 16<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Split(data)
	}
}
