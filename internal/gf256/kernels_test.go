package gf256

import (
	"bytes"
	"fmt"
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

// kernel is one implementation of the three slice operations.
type kernel struct {
	name   string
	mul    func(c byte, dst, src []byte)
	mulAdd func(c byte, dst, src []byte)
	rows   func(cs []byte, dsts [][]byte, src []byte)
}

// kernels lists every kernel this build contains. The exported entry points
// run the vector kernel where init found one (amd64 with AVX2), with the
// word-wide kernel on the tails; the word-wide kernel alone is what every
// other build and CPU runs, so it is checked on its own everywhere.
func kernels() []kernel {
	name := "exported-words"
	if vecMulAdd != nil {
		name = "exported-vector"
	}
	return []kernel{
		{name, MulSlice, MulAddSlice, MulAddSlices},
		{"words", mulSliceWords, mulAddSliceWords, mulAddSlicesWords},
	}
}

// refProducts[c][x] = c*x by the table-free mulSlow: the reference every
// kernel is held to.
var refProducts = func() (tb [256][256]byte) {
	for c := range tb {
		for x := range tb[c] {
			tb[c][x] = mulSlow(byte(c), byte(x))
		}
	}
	return tb
}()

// guard is the length of the runs kept on both sides of every destination;
// a kernel that stores outside its slice changes one.
const guard = 64

// guarded returns a buffer holding guard bytes, off filler bytes, content,
// guard bytes, and the window of it that holds content. Distinct offsets
// give the vector loads and stores every alignment.
func guarded(content []byte, off int) (buf, window []byte) {
	buf = make([]byte, guard+off+len(content)+guard)
	for i := range buf {
		buf[i] = byte(0xA5 ^ i)
	}
	window = buf[guard+off : guard+off+len(content) : guard+off+len(content)]
	copy(window, content)
	return buf, window
}

// checkKernel runs k's three operations with multiplier c on src (placed
// srcOff bytes into its allocation) over destinations that start as base
// (placed dstOff bytes in), and compares each whole destination buffer,
// guards included, with the mulSlow reference. len(base) must equal
// len(src).
func checkKernel(k kernel, c byte, src, base []byte, srcOff, dstOff int) error {
	_, src = guarded(src, srcOff)
	ref := &refProducts[c]

	want, wantWin := guarded(base, dstOff)
	got, gotWin := guarded(base, dstOff)
	for i, s := range src {
		wantWin[i] = ref[s]
	}
	k.mul(c, gotWin, src)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("mul differs from the reference")
	}

	// dst aliasing src exactly, as Matrix.Invert scales a row in place.
	got, gotWin = guarded(src, dstOff)
	k.mul(c, gotWin, gotWin)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("mul in place differs from the reference")
	}

	want, wantWin = guarded(base, dstOff)
	got, gotWin = guarded(base, dstOff)
	for i, s := range src {
		wantWin[i] ^= ref[s]
	}
	k.mulAdd(c, gotWin, src)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("mulAdd differs from the reference")
	}

	// Rows that skip (0), that only XOR (1), and two that multiply.
	cs := []byte{c, 0, 1, ^c}
	wants, gots, wins := make([][]byte, len(cs)), make([][]byte, len(cs)), make([][]byte, len(cs))
	for r, rc := range cs {
		wants[r], wantWin = guarded(base, dstOff)
		for i, s := range src {
			wantWin[i] ^= refProducts[rc][s]
		}
		gots[r], wins[r] = guarded(base, dstOff)
	}
	k.rows(cs, wins, src)
	for r := range cs {
		if !bytes.Equal(gots[r], wants[r]) {
			return fmt.Errorf("rows: row %d (c=%d) differs from the reference", r, cs[r])
		}
	}
	return nil
}

// TestKernelsAgree holds every kernel of the build to the mulSlow reference:
// all 256 multipliers over lengths 0-130 and around one vecBlock, then every
// pair of source and destination alignments over lengths around the vector
// width and the block.
func TestKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var lengths []int
	for l := 0; l <= 130; l++ {
		lengths = append(lengths, l)
	}
	lengths = append(lengths, vecBlock, vecBlock+1, vecBlock+31, vecBlock+33)

	for _, k := range kernels() {
		t.Run(k.name, func(t *testing.T) {
			for c := 0; c < 256; c++ {
				for _, l := range lengths {
					if err := checkKernel(k, byte(c), random(l), random(l), 0, 0); err != nil {
						t.Fatalf("c=%d len=%d: %v", c, l, err)
					}
				}
			}
			for _, c := range []byte{2, 0x53, 0xFF} {
				for _, l := range []int{31, 32, 33, 95, 130, vecBlock + 33} {
					src, base := random(l), random(l)
					for srcOff := 0; srcOff < 32; srcOff++ {
						for dstOff := 0; dstOff < 32; dstOff++ {
							if err := checkKernel(k, c, src, base, srcOff, dstOff); err != nil {
								t.Fatalf("c=%d len=%d src+%d dst+%d: %v", c, l, srcOff, dstOff, err)
							}
						}
					}
				}
			}
		})
	}
}

// FuzzKernelsAgree lets the fuzzer pick the multiplier, the bytes and both
// alignments: data is cut in half into the source and the destinations'
// starting contents.
func FuzzKernelsAgree(f *testing.F) {
	f.Add(byte(0x53), []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ+/0123456"), byte(1), byte(31))
	f.Fuzz(func(t *testing.T, c byte, data []byte, srcOff, dstOff byte) {
		n := len(data) / 2
		for _, k := range kernels() {
			if err := checkKernel(k, c, data[:n], data[n:2*n], int(srcOff%32), int(dstOff%32)); err != nil {
				t.Fatalf("%s c=%d len=%d src+%d dst+%d: %v", k.name, c, n, srcOff%32, dstOff%32, err)
			}
		}
	})
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

// mulSliceGeneric is the byte-at-a-time MulSlice, kept as the scalar
// reference implementation the kernel cross-check tests compare the
// word-wide paths against.
func mulSliceGeneric(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: MulSlice length mismatch %d != %d", len(dst), len(src)))
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	lo := &nibbleTables[c][0]
	hi := &nibbleTables[c][1]
	for i, s := range src {
		dst[i] = lo[s&0x0F] ^ hi[s>>4]
	}
}

// mulAddSliceGeneric is the byte-at-a-time MulAddSlice, kept as the scalar
// reference for the cross-check tests.
func mulAddSliceGeneric(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: MulAddSlice length mismatch %d != %d", len(dst), len(src)))
	}
	if c == 0 {
		return
	}
	lo := &nibbleTables[c][0]
	hi := &nibbleTables[c][1]
	for i, s := range src {
		dst[i] ^= lo[s&0x0F] ^ hi[s>>4]
	}
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
