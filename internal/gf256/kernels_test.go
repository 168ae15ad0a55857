package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// refMul applies c to src byte-by-byte via the table-free mulSlow reference.
func refMul(c byte, src []byte) []byte {
	out := make([]byte, len(src))
	for i, s := range src {
		out[i] = mulSlow(c, s)
	}
	return out
}

// TestMulSliceAllMultipliers cross-checks the word-wide MulSlice against
// mulSlow for every multiplier 0-255, on lengths 0-16 (misaligned tails) and
// a large misaligned length.
func TestMulSliceAllMultipliers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := make([]int, 0, 18)
	for l := 0; l <= 16; l++ {
		lengths = append(lengths, l)
	}
	lengths = append(lengths, 1021)
	for c := 0; c < 256; c++ {
		for _, l := range lengths {
			src := make([]byte, l)
			rng.Read(src)
			want := refMul(byte(c), src)

			dst := make([]byte, l)
			rng.Read(dst) // stale contents must be overwritten
			MulSlice(byte(c), dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("MulSlice c=%d len=%d mismatch", c, l)
			}

			gen := make([]byte, l)
			rng.Read(gen)
			mulSliceGeneric(byte(c), gen, src)
			if !bytes.Equal(gen, want) {
				t.Fatalf("mulSliceGeneric c=%d len=%d mismatch", c, l)
			}
		}
	}
}

// TestMulAddSliceAllMultipliers cross-checks word-wide MulAddSlice against a
// mulSlow-based accumulate for every multiplier and misaligned lengths.
func TestMulAddSliceAllMultipliers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lengths := make([]int, 0, 18)
	for l := 0; l <= 16; l++ {
		lengths = append(lengths, l)
	}
	lengths = append(lengths, 777)
	for c := 0; c < 256; c++ {
		for _, l := range lengths {
			src := make([]byte, l)
			rng.Read(src)
			base := make([]byte, l)
			rng.Read(base)

			want := make([]byte, l)
			copy(want, base)
			for i, s := range src {
				want[i] ^= mulSlow(byte(c), s)
			}

			dst := make([]byte, l)
			copy(dst, base)
			MulAddSlice(byte(c), dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("MulAddSlice c=%d len=%d mismatch", c, l)
			}

			gen := make([]byte, l)
			copy(gen, base)
			mulAddSliceGeneric(byte(c), gen, src)
			if !bytes.Equal(gen, want) {
				t.Fatalf("mulAddSliceGeneric c=%d len=%d mismatch", c, l)
			}
		}
	}
}

// TestMulAddSlicesEquivalence checks the fused multi-row kernel against
// repeated generic MulAddSlice, over random row counts, coefficients
// (including 0 and 1), and misaligned lengths 0-16 plus larger sizes.
func TestMulAddSlicesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lengths := []int{0, 1, 2, 3, 5, 7, 8, 9, 11, 13, 15, 16, 64, 255, 1000}
	for trial := 0; trial < 200; trial++ {
		l := lengths[rng.Intn(len(lengths))]
		rows := 1 + rng.Intn(12)
		src := make([]byte, l)
		rng.Read(src)

		cs := make([]byte, rows)
		got := make([][]byte, rows)
		want := make([][]byte, rows)
		for r := 0; r < rows; r++ {
			switch rng.Intn(4) {
			case 0:
				cs[r] = 0
			case 1:
				cs[r] = 1
			default:
				cs[r] = byte(rng.Intn(256))
			}
			base := make([]byte, l)
			rng.Read(base)
			got[r] = append([]byte(nil), base...)
			want[r] = append([]byte(nil), base...)
			mulAddSliceGeneric(cs[r], want[r], src)
		}
		MulAddSlices(cs, got, src)
		for r := 0; r < rows; r++ {
			if !bytes.Equal(got[r], want[r]) {
				t.Fatalf("trial %d: MulAddSlices row %d (c=%d, len=%d) mismatch", trial, r, cs[r], l)
			}
		}
	}
}

// TestMulAddSlicesPanics pins the misuse contract: mismatched row counts or
// row lengths panic rather than silently corrupting.
func TestMulAddSlicesPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("rows", func() {
		MulAddSlices([]byte{2, 3}, [][]byte{make([]byte, 4)}, make([]byte, 4))
	})
	mustPanic("length", func() {
		MulAddSlices([]byte{2}, [][]byte{make([]byte, 3)}, make([]byte, 4))
	})
}

func benchKernel(b *testing.B, size int, fn func(dst, src []byte)) {
	src := make([]byte, size)
	dst := make([]byte, size)
	rand.New(rand.NewSource(9)).Read(src)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(dst, src)
	}
}

func BenchmarkMulAddSliceGeneric(b *testing.B) {
	benchKernel(b, 1<<16, func(dst, src []byte) { mulAddSliceGeneric(0x53, dst, src) })
}

func BenchmarkMulSlice(b *testing.B) {
	benchKernel(b, 1<<16, func(dst, src []byte) { MulSlice(0x53, dst, src) })
}

// BenchmarkMulAddSlices measures the fused kernel applying one source
// stripe to 6 rows — the (t=3, n=6) encode inner step.
func BenchmarkMulAddSlices(b *testing.B) {
	const size, rows = 1 << 16, 6
	src := make([]byte, size)
	rand.New(rand.NewSource(9)).Read(src)
	cs := make([]byte, rows)
	dsts := make([][]byte, rows)
	for r := range dsts {
		cs[r] = byte(2 + r)
		dsts[r] = make([]byte, size)
	}
	b.SetBytes(int64(size * rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlices(cs, dsts, src)
	}
}
