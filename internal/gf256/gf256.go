// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the same polynomial used by most
// Reed-Solomon implementations. Multiplication and division are table
// driven: exp/log tables are built once at package init.
//
// This package is the arithmetic substrate for the non-systematic
// Reed-Solomon secret sharing in internal/erasure.
package gf256

import (
	"encoding/binary"
	"fmt"
)

// Poly is the primitive polynomial generating the field, with the x^8 term
// included (0x11D = x^8 + x^4 + x^3 + x^2 + 1).
const Poly = 0x11D

// Generator is the primitive element used to build the exp/log tables.
const Generator = 0x02

var (
	expTable [512]byte // doubled so Mul can skip one modulo reduction
	logTable [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
}

// Add returns a + b in GF(2^8). Addition is XOR; it is its own inverse, so
// Sub is identical to Add.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a - b in GF(2^8), which equals Add(a, b).
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a / b in GF(2^8). It panics if b == 0.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(logTable[a]) - int(logTable[b])
	if d < 0 {
		d += 255
	}
	return expTable[d]
}

// Inv returns the multiplicative inverse of a. It panics if a == 0.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: zero has no inverse")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns Generator^e for e >= 0.
func Exp(e int) byte {
	return expTable[e%255]
}

// Log returns the discrete logarithm of a base Generator. It panics if
// a == 0, which has no logarithm.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: zero has no logarithm")
	}
	return int(logTable[a])
}

// Pow returns a^e in GF(2^8) for e >= 0. Pow(0, 0) is defined as 1.
func Pow(a byte, e int) byte {
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return expTable[(int(logTable[a])*e)%255]
}

// nibbleTables[c] holds the split multiplication tables for multiplier c:
// c*b = lo[b&0x0F] ^ hi[b>>4]. Splitting by nibble turns the slice kernels
// into two table lookups and a XOR per byte, with no branches and no
// log/exp index arithmetic — the standard erasure-coding fast path. The
// full set is 256 multipliers x 32 bytes = 8 KiB, built once at init.
var nibbleTables [256][2][16]byte

func init() {
	for c := 0; c < 256; c++ {
		for x := 0; x < 16; x++ {
			nibbleTables[c][0][x] = mulSlow(byte(c), byte(x))
			nibbleTables[c][1][x] = mulSlow(byte(c), byte(x<<4))
		}
	}
}

// mulSlow is table-free multiplication used only to build tables.
func mulSlow(a, b byte) byte {
	var p int
	ai := int(a)
	for i := 0; i < 8; i++ {
		if b&(1<<i) != 0 {
			p ^= ai << i
		}
	}
	for i := 15; i >= 8; i-- {
		if p&(1<<i) != 0 {
			p ^= Poly << (i - 8)
		}
	}
	return byte(p)
}

// mulTable[c][x] = c*x: the two nibble lookups of nibbleTables flattened
// into one 256-entry product row per multiplier. The fast kernels index it
// once per byte instead of twice, halving the load traffic that dominates a
// table-driven GF kernel; one row is 4 cache lines, so the active rows of
// an encode stay resident in L1. 64 KiB total, built once at init.
var mulTable [256][256]byte

func init() {
	for c := 0; c < 256; c++ {
		for x := 0; x < 256; x++ {
			mulTable[c][x] = mulSlow(byte(c), byte(x))
		}
	}
}

// MulSlice sets dst[i] = c * src[i] for all i. dst and src must have equal
// length; they may alias. The main loop runs 8 bytes per iteration: one
// 64-bit load of the source, eight unrolled product-table lookups (one per
// lane), one 64-bit store — with a scalar tail for the last len%8 bytes.
func MulSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: MulSlice length mismatch %d != %d", len(dst), len(src)))
	}
	if c == 0 {
		clear(dst)
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	tb := &mulTable[c]
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		sw := binary.LittleEndian.Uint64(src[i : i+8])
		p := uint64(tb[sw&0xFF])
		p |= uint64(tb[(sw>>8)&0xFF]) << 8
		p |= uint64(tb[(sw>>16)&0xFF]) << 16
		p |= uint64(tb[(sw>>24)&0xFF]) << 24
		p |= uint64(tb[(sw>>32)&0xFF]) << 32
		p |= uint64(tb[(sw>>40)&0xFF]) << 40
		p |= uint64(tb[(sw>>48)&0xFF]) << 48
		p |= uint64(tb[sw>>56]) << 56
		binary.LittleEndian.PutUint64(dst[i:i+8], p)
	}
	for i := n; i < len(src); i++ {
		dst[i] = tb[src[i]]
	}
}

// MulAddSlice sets dst[i] ^= c * src[i] for all i: a fused
// multiply-accumulate, the inner loop of Reed-Solomon encoding. Word-wide
// like MulSlice; c == 1 degenerates to a 64-bit XOR.
func MulAddSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: MulAddSlice length mismatch %d != %d", len(dst), len(src)))
	}
	if c == 0 {
		return
	}
	n := len(src) &^ 7
	if c == 1 {
		for i := 0; i < n; i += 8 {
			sw := binary.LittleEndian.Uint64(src[i : i+8])
			dw := binary.LittleEndian.Uint64(dst[i : i+8])
			binary.LittleEndian.PutUint64(dst[i:i+8], dw^sw)
		}
		for i := n; i < len(src); i++ {
			dst[i] ^= src[i]
		}
		return
	}
	tb := &mulTable[c]
	for i := 0; i < n; i += 8 {
		sw := binary.LittleEndian.Uint64(src[i : i+8])
		p := uint64(tb[sw&0xFF])
		p |= uint64(tb[(sw>>8)&0xFF]) << 8
		p |= uint64(tb[(sw>>16)&0xFF]) << 16
		p |= uint64(tb[(sw>>24)&0xFF]) << 24
		p |= uint64(tb[(sw>>32)&0xFF]) << 32
		p |= uint64(tb[(sw>>40)&0xFF]) << 40
		p |= uint64(tb[(sw>>48)&0xFF]) << 48
		p |= uint64(tb[sw>>56]) << 56
		dw := binary.LittleEndian.Uint64(dst[i : i+8])
		binary.LittleEndian.PutUint64(dst[i:i+8], dw^p)
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= tb[src[i]]
	}
}

// MulAddSlices applies one source stripe to many destination rows in a
// single pass: dsts[r][i] ^= cs[r] * src[i] for every row r. The outer loop
// walks src one 64-bit word at a time, so each input byte is read from
// memory once no matter how many rows consume it — the encode loop over n
// shares becomes O(len) source loads instead of O(n*len). Rows with
// cs[r] == 0 are skipped; cs[r] == 1 rows take the XOR-only path. Every
// dsts[r] must have the same length as src.
func MulAddSlices(cs []byte, dsts [][]byte, src []byte) {
	if len(cs) != len(dsts) {
		panic(fmt.Sprintf("gf256: MulAddSlices rows mismatch %d coefficients != %d destinations", len(cs), len(dsts)))
	}
	for r := range dsts {
		if len(dsts[r]) != len(src) {
			panic(fmt.Sprintf("gf256: MulAddSlices length mismatch row %d: %d != %d", r, len(dsts[r]), len(src)))
		}
	}
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		sw := binary.LittleEndian.Uint64(src[i : i+8])
		for r, c := range cs {
			if c == 0 {
				continue
			}
			d := dsts[r][i : i+8 : i+8]
			dw := binary.LittleEndian.Uint64(d)
			if c == 1 {
				binary.LittleEndian.PutUint64(d, dw^sw)
				continue
			}
			tb := &mulTable[c]
			p := uint64(tb[sw&0xFF])
			p |= uint64(tb[(sw>>8)&0xFF]) << 8
			p |= uint64(tb[(sw>>16)&0xFF]) << 16
			p |= uint64(tb[(sw>>24)&0xFF]) << 24
			p |= uint64(tb[(sw>>32)&0xFF]) << 32
			p |= uint64(tb[(sw>>40)&0xFF]) << 40
			p |= uint64(tb[(sw>>48)&0xFF]) << 48
			p |= uint64(tb[sw>>56]) << 56
			binary.LittleEndian.PutUint64(d, dw^p)
		}
	}
	for i := n; i < len(src); i++ {
		s := src[i]
		for r, c := range cs {
			if c == 0 {
				continue
			}
			dsts[r][i] ^= mulTable[c][s]
		}
	}
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

// DotProduct returns the inner product of a and b in GF(2^8).
func DotProduct(a, b []byte) byte {
	if len(a) != len(b) {
		panic(fmt.Sprintf("gf256: DotProduct length mismatch %d != %d", len(a), len(b)))
	}
	var acc byte
	for i := range a {
		acc ^= Mul(a[i], b[i])
	}
	return acc
}
