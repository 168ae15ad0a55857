package chunker

import (
	"bytes"
	"testing"
	"testing/quick"
)

// algoConfigs returns the small test configuration for each algorithm so
// the property suite below runs identically against Rabin and FastCDC.
func algoConfigs() map[string]Config {
	return map[string]Config{
		"rabin":   {Algorithm: Rabin, AverageSize: 1024, MinSize: 256, MaxSize: 4096, Window: 48},
		"fastcdc": {Algorithm: FastCDC, AverageSize: 1024, MinSize: 256, MaxSize: 4096},
	}
}

func eachAlgo(t *testing.T, fn func(t *testing.T, c *Chunker)) {
	t.Helper()
	for name, cfg := range algoConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fn(t, c)
		})
	}
}

func TestAlgoSplitCoversInputExactly(t *testing.T) {
	eachAlgo(t, func(t *testing.T, c *Chunker) {
		data := randomBytes(21, 100_000)
		chunks := c.Split(data)
		if !bytes.Equal(reassemble(chunks), data) {
			t.Fatal("chunks do not reassemble to the input")
		}
		var off int64
		for i, ch := range chunks {
			if ch.Offset != off {
				t.Fatalf("chunk %d offset %d, want %d", i, ch.Offset, off)
			}
			off += int64(len(ch.Data))
		}
	})
}

func TestAlgoSizeBounds(t *testing.T) {
	eachAlgo(t, func(t *testing.T, c *Chunker) {
		data := randomBytes(22, 500_000)
		chunks := c.Split(data)
		for i, ch := range chunks {
			if i < len(chunks)-1 && len(ch.Data) < c.Config().MinSize {
				t.Fatalf("chunk %d is %d bytes, below MinSize %d", i, len(ch.Data), c.Config().MinSize)
			}
			if len(ch.Data) > c.Config().MaxSize {
				t.Fatalf("chunk %d is %d bytes, above MaxSize %d", i, len(ch.Data), c.Config().MaxSize)
			}
		}
	})
}

func TestAlgoAverageSizeRoughlyHolds(t *testing.T) {
	eachAlgo(t, func(t *testing.T, c *Chunker) {
		data := randomBytes(23, 2_000_000)
		chunks := c.Split(data)
		mean := float64(len(data)) / float64(len(chunks))
		if mean < 512 || mean > 3072 {
			t.Fatalf("mean chunk size %.0f far from target 1024 (%d chunks)", mean, len(chunks))
		}
	})
}

func TestAlgoDeterminism(t *testing.T) {
	eachAlgo(t, func(t *testing.T, c *Chunker) {
		data := randomBytes(24, 300_000)
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
	})
}

func TestAlgoShiftResistance(t *testing.T) {
	eachAlgo(t, func(t *testing.T, c *Chunker) {
		data := randomBytes(25, 400_000)
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
		if shared < len(orig)-3 {
			t.Fatalf("only %d of %d original chunks survive a prefix insertion", shared, len(orig))
		}
	})
}

func TestAlgoLocalEditOnlyTouchesNearbyChunks(t *testing.T) {
	eachAlgo(t, func(t *testing.T, c *Chunker) {
		data := randomBytes(26, 400_000)
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
	})
}

func TestAlgoQuickCoverage(t *testing.T) {
	eachAlgo(t, func(t *testing.T, c *Chunker) {
		f := func(data []byte) bool {
			return bytes.Equal(reassemble(c.Split(data)), data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Error(err)
		}
	})
}

// TestFastCDCRejectsBadConfigs pins the FastCDC-specific validation: tiny
// averages are rejected, while Rabin-only constraints (MinSize >= Window)
// no longer apply.
func TestFastCDCRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{Algorithm: FastCDC, AverageSize: 32}); err == nil {
		t.Error("AverageSize 32 accepted for fastcdc")
	}
	if _, err := New(Config{Algorithm: "gibberish"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// MinSize below the Rabin window is fine for FastCDC: no window.
	if _, err := New(Config{Algorithm: FastCDC, AverageSize: 1024, MinSize: 16}); err != nil {
		t.Errorf("fastcdc MinSize 16 rejected: %v", err)
	}
}

// TestSplitToReusesCapacity pins the zero-steady-state-alloc contract of
// SplitTo: with a warm destination slice, re-splitting allocates nothing.
func TestSplitToReusesCapacity(t *testing.T) {
	eachAlgo(t, func(t *testing.T, c *Chunker) {
		data := randomBytes(27, 1_000_000)
		buf := c.Split(data)
		allocs := testing.AllocsPerRun(20, func() {
			buf = c.SplitTo(buf[:0], data)
		})
		if allocs != 0 {
			t.Fatalf("SplitTo with warm buffer allocates %.1f times per run", allocs)
		}
	})
}

func FuzzSplit(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("hello"))
	f.Add(bytes.Repeat([]byte{0}, 5000))
	f.Add(randomBytes(28, 10_000))
	chunkers := make(map[string]*Chunker)
	for name, cfg := range algoConfigs() {
		c, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		chunkers[name] = c
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, c := range chunkers {
			chunks := c.Split(data)
			if !bytes.Equal(reassemble(chunks), data) {
				t.Fatalf("%s: chunks do not reassemble to the input", name)
			}
			requireSameChunks(t, refSplit(c.Config(), data), chunks)
			for i, ch := range chunks {
				if i < len(chunks)-1 && len(ch.Data) < c.Config().MinSize {
					t.Fatalf("%s: chunk %d below MinSize", name, i)
				}
				if len(ch.Data) > c.Config().MaxSize {
					t.Fatalf("%s: chunk %d above MaxSize", name, i)
				}
			}
		}
	})
}

func BenchmarkSplitFastCDC(b *testing.B) {
	c, err := New(Config{Algorithm: FastCDC})
	if err != nil {
		b.Fatal(err)
	}
	data := randomBytes(29, 16<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Split(data)
	}
}
