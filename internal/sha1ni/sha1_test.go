package sha1ni

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"hash"
	"math/rand"
	"testing"
)

// impl is one way this package can compute a digest.
type impl struct {
	name string
	sum  func([]byte) [Size]byte
	new  func() hash.Hash
}

// impls lists the implementations this build contains: the exported entry
// points as init selected them — on the SHA-NI kernel where the CPU has it,
// which the name says — and the same entry points with the kernel forced off,
// which is what every other build and CPU runs.
func impls() []impl {
	name := "exported-stdlib"
	if kernelSum != nil {
		name = "exported-shani"
	}
	return []impl{
		{name, Sum, New},
		{"forced-nil", func(p []byte) [Size]byte {
			defer forceNoKernel()()
			return Sum(p)
		}, func() hash.Hash {
			defer forceNoKernel()()
			return New()
		}},
	}
}

// forceNoKernel takes the kernel out, as on a CPU without SHA-NI, and
// returns the function that puts it back.
func forceNoKernel() (restore func()) {
	s, n := kernelSum, kernelNew
	kernelSum, kernelNew = nil, nil
	return func() { kernelSum, kernelNew = s, n }
}

// checkSplit writes data to a fresh hasher of im in pieces ending at the
// given cut points (taken modulo the remaining length), reading the running
// digest after each piece, and holds every reading and the one-shot Sum to
// crypto/sha1.
func checkSplit(im impl, data []byte, cuts []int) error {
	if got, want := im.sum(data), sha1.Sum(data); got != want {
		return fmt.Errorf("Sum = %x, want %x", got, want)
	}
	h, ref := im.new(), sha1.New()
	rest := data
	for _, c := range append(cuts, len(data)) {
		n := len(rest)
		if n > 0 {
			n = c % (n + 1)
		}
		if wrote, err := h.Write(rest[:n]); wrote != n || err != nil {
			return fmt.Errorf("Write(%d bytes) = %d, %v", n, wrote, err)
		}
		ref.Write(rest[:n])
		rest = rest[n:]
		// Sum mid-stream must not disturb the state, and appends.
		prefix := []byte("pfx")
		if got, want := h.Sum(prefix), ref.Sum(prefix); !bytes.Equal(got, want) {
			return fmt.Errorf("after %d of %d bytes: Sum = %x, want %x", len(data)-len(rest), len(data), got, want)
		}
	}
	h.Write(rest)
	ref.Write(rest)
	if got, want := h.Sum(nil), ref.Sum(nil); !bytes.Equal(got, want) {
		return fmt.Errorf("streamed digest = %x, want %x", got, want)
	}
	h.Reset()
	h.Write(data)
	if got, want := h.Sum(nil), ref.Sum(nil); !bytes.Equal(got, want) {
		return fmt.Errorf("digest after Reset = %x, want %x", got, want)
	}
	if h.Size() != sha1.Size || h.BlockSize() != sha1.BlockSize {
		return fmt.Errorf("Size, BlockSize = %d, %d", h.Size(), h.BlockSize())
	}
	return nil
}

// TestKernelAgrees holds every implementation to crypto/sha1 at every length
// 0-700 (all paddings: one and two final blocks, every partial-block fill), at
// every source alignment 0-63, and under random split writes.
func TestKernelAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 64+700)
	rng.Read(buf)
	for _, im := range impls() {
		t.Run(im.name, func(t *testing.T) {
			for n := 0; n <= 700; n++ {
				off := n % 64
				if got, want := im.sum(buf[off:off+n]), sha1.Sum(buf[off:off+n]); got != want {
					t.Fatalf("len %d at +%d: Sum = %x, want %x", n, off, got, want)
				}
			}
			for off := 0; off < 64; off++ {
				for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 300} {
					cuts := []int{rng.Intn(65), rng.Intn(130), rng.Intn(7)}
					if err := checkSplit(im, buf[off:off+n], cuts); err != nil {
						t.Fatalf("len %d at +%d, cuts %v: %v", n, off, cuts, err)
					}
				}
			}
			big := make([]byte, 1<<20+17)
			rng.Read(big)
			if err := checkSplit(im, big, []int{1, 63, 64, 4096 + 5, 1 << 19}); err != nil {
				t.Fatalf("len %d: %v", len(big), err)
			}
		})
	}
}

// FuzzSHA1Agree lets the fuzzer pick the bytes, the source alignment and the
// write split points.
func FuzzSHA1Agree(f *testing.F) {
	f.Add([]byte("abc"), byte(0), uint16(1), uint16(1), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, off byte, c1, c2, c3 uint16) {
		o := int(off) % 64
		src := make([]byte, o+len(data))
		copy(src[o:], data)
		for _, im := range impls() {
			if err := checkSplit(im, src[o:], []int{int(c1), int(c2), int(c3)}); err != nil {
				t.Fatalf("%s len=%d src+%d cuts=%d,%d,%d: %v", im.name, len(data), o, c1, c2, c3, err)
			}
		}
	})
}

// TestSumZeroAlloc pins the reason Sum and New are selected as whole
// functions: on the kernel path the digest state of a Sum stays on the stack.
func TestSumZeroAlloc(t *testing.T) {
	if kernelSum == nil {
		t.Skip("no SHA-NI kernel on this CPU or GOARCH")
	}
	data := make([]byte, 16<<10+3)
	var out [Size]byte
	if n := testing.AllocsPerRun(100, func() { out = Sum(data) }); n != 0 {
		t.Errorf("Sum: %v allocs/op, want 0", n)
	}
	if out != sha1.Sum(data) {
		t.Error("Sum disagrees with crypto/sha1")
	}
}

var sink [Size]byte

// BenchmarkSum compares the selected implementation with crypto/sha1 at one
// block, a small_burst object and a mean FastCDC chunk.
func BenchmarkSum(b *testing.B) {
	for _, size := range []int{64, 16 << 10, 4 << 20} {
		data := make([]byte, size)
		rand.New(rand.NewSource(1)).Read(data)
		for _, im := range []impl{impls()[0], {name: "crypto-sha1", sum: sha1.Sum}} {
			b.Run(fmt.Sprintf("%s/%d", im.name, size), func(b *testing.B) {
				b.SetBytes(int64(size))
				for i := 0; i < b.N; i++ {
					sink = im.sum(data)
				}
			})
		}
	}
}

// BenchmarkSumUncached hashes the way a large Put does — every ~4 MiB chunk of
// a 32 MiB object once on its own and once into the object's running hash —
// cycling over more data than a core's cache holds. This is the case the
// kernel's prefetch hint is for; BenchmarkSum's inputs stay cached.
func BenchmarkSumUncached(b *testing.B) {
	const object, chunk = 32 << 20, 4<<20 + 13
	data := make([]byte, 2*object)
	rand.New(rand.NewSource(1)).Read(data)
	for _, im := range []impl{impls()[0], {name: "crypto-sha1", sum: sha1.Sum, new: sha1.New}} {
		b.Run(im.name, func(b *testing.B) {
			b.SetBytes(2 * object)
			for i := 0; i < b.N; i++ {
				obj := data[i%2*object:][:object]
				h := im.new()
				for off := 0; off < object; off += chunk {
					piece := obj[off:min(off+chunk, object)]
					sink = im.sum(piece)
					h.Write(piece)
				}
				h.Sum(sink[:0])
			}
		})
	}
}
