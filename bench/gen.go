package main

import (
	"encoding/binary"
	"hash/crc32"
)

// rng is a xorshift64* generator: the workload's only source of inputs, so
// a seed fixes every object, edit offset and read order. Filling 32 MiB
// costs ~10 ms, far below one Put (bench.generator_cpu_frac reports it).
type rng struct{ s uint64 }

// newRng mixes the parts through splitmix64 so nearby seeds (1, 2, ...)
// and nearby derivations (round 0, round 1, ...) give unrelated streams.
func newRng(parts ...uint64) *rng {
	s := uint64(0x9E3779B97F4A7C15)
	for _, p := range parts {
		s += p + 0x9E3779B97F4A7C15
		s = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9
		s = (s ^ (s >> 27)) * 0x94D049BB133111EB
		s ^= s >> 31
	}
	if s == 0 {
		s = 1 // xorshift has a fixed point at zero
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fill overwrites p with incompressible bytes.
func (r *rng) fill(p []byte) {
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, r.next())
		p = p[8:]
	}
	if len(p) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.next())
		copy(p, tail[:])
	}
}

// shuffle permutes idx in place (Fisher-Yates).
func (r *rng) shuffle(idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sum is the identity of generated content: length plus CRC-32C
// (hardware-accelerated, so checking a 32 MiB Get costs a few ms).
type sum struct {
	n   int64
	crc uint32
}

func sumOf(p []byte) sum { return sum{int64(len(p)), crc32.Checksum(p, castagnoli)} }

// sumWriter checks streamed downloads without buffering them.
type sumWriter struct{ sum }

func (w *sumWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	w.crc = crc32.Update(w.crc, castagnoli, p)
	return len(p), nil
}
