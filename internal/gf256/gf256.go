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
// c*b = lo[b&0x0F] ^ hi[b>>4]. A 16-entry table is exactly what one byte
// shuffle instruction looks up, so the pair is the operand of the vector
// kernels (kernel_amd64.s): two shuffles and a XOR multiply 32 bytes. The
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
// into one 256-entry product row per multiplier. The word-wide kernels
// index it once per byte instead of twice, halving the load traffic that
// dominates a table-driven GF kernel; one row is 4 cache lines, so the
// active rows of an encode stay resident in L1. 64 KiB total, built once at
// init.
var mulTable [256][256]byte

func init() {
	for c := 0; c < 256; c++ {
		for x := 0; x < 256; x++ {
			mulTable[c][x] = mulSlow(byte(c), byte(x))
		}
	}
}

// vecMul and vecMulAdd are the vector kernels: dst = c*src and dst ^= c*src
// over len(src) bytes, a multiple of vecWidth, with c given as its
// nibbleTables entry. kernel_amd64.go sets them once at init when CPUID
// reports AVX2; they stay nil on every other build and CPU, where the
// word-wide kernels below do all the work. Those also take what the vector
// kernels leave: tails under vecWidth and the short rows of matrix.go.
var vecMul, vecMulAdd func(tbl *[2][16]byte, dst, src []byte)

// vecWidth is the bytes one vector step multiplies.
const vecWidth = 32

// vecBlock is how far MulAddSlices walks src before it turns to the next
// row: a block of the source and of each of up to 7 rows fit a 32 KiB L1
// together and stay there while the rows take their turns. Block sizes from
// 1 to 64 KiB measured the same on 1 MiB stripes.
const vecBlock = 4 << 10

// vecLen returns how many leading bytes of an n-byte slice go to the vector
// kernels: n rounded down to vecWidth, or 0 without one.
func vecLen(n int) int {
	if vecMulAdd == nil {
		return 0
	}
	return n &^ (vecWidth - 1)
}

// MulSlice sets dst[i] = c * src[i] for all i. dst and src must have equal
// length; they may alias.
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
	n := vecLen(len(src))
	if n > 0 {
		vecMul(&nibbleTables[c], dst[:n], src[:n])
	}
	mulSliceWords(c, dst[n:], src[n:])
}

// MulAddSlice sets dst[i] ^= c * src[i] for all i: a fused
// multiply-accumulate, the inner loop of Reed-Solomon encoding.
func MulAddSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: MulAddSlice length mismatch %d != %d", len(dst), len(src)))
	}
	if c == 0 {
		return
	}
	n := vecLen(len(src))
	if n > 0 {
		vecMulAdd(&nibbleTables[c], dst[:n], src[:n])
	}
	mulAddSliceWords(c, dst[n:], src[n:])
}

// MulAddSlices applies one source stripe to many destination rows in a
// single pass: dsts[r][i] ^= cs[r] * src[i] for every row r. Each input
// byte is read from memory once no matter how many rows consume it — the
// encode loop over n shares becomes O(len) source loads instead of
// O(n*len): the vector path walks src in vecBlock pieces and applies each
// piece to every row while it is in L1, the word-wide path loads each source
// word once for all rows. Rows with cs[r] == 0 are skipped. Every dsts[r]
// must have the same length as src.
func MulAddSlices(cs []byte, dsts [][]byte, src []byte) {
	if len(cs) != len(dsts) {
		panic(fmt.Sprintf("gf256: MulAddSlices rows mismatch %d coefficients != %d destinations", len(cs), len(dsts)))
	}
	for r := range dsts {
		if len(dsts[r]) != len(src) {
			panic(fmt.Sprintf("gf256: MulAddSlices length mismatch row %d: %d != %d", r, len(dsts[r]), len(src)))
		}
	}
	n := vecLen(len(src))
	if n == 0 {
		mulAddSlicesWords(cs, dsts, src)
		return
	}
	for lo := 0; lo < n; lo += vecBlock {
		hi := min(lo+vecBlock, n)
		for r, c := range cs {
			if c != 0 {
				vecMulAdd(&nibbleTables[c], dsts[r][lo:hi], src[lo:hi])
			}
		}
	}
	for r, c := range cs {
		if c != 0 {
			mulAddSliceWords(c, dsts[r][n:], src[n:])
		}
	}
}

// mulSliceWords is the portable dst = c*src for c > 1. The main loop runs 8
// bytes per iteration: one 64-bit load of the source, eight unrolled
// product-table lookups (one per lane), one 64-bit store — with a scalar
// tail for the last len%8 bytes.
func mulSliceWords(c byte, dst, src []byte) {
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

// mulAddSliceWords is the portable dst ^= c*src for c > 0. Word-wide like
// mulSliceWords; c == 1 degenerates to a 64-bit XOR.
func mulAddSliceWords(c byte, dst, src []byte) {
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

// mulAddSlicesWords is the portable MulAddSlices: the outer loop walks src
// one 64-bit word at a time and applies it to every row. Rows with
// cs[r] == 0 are skipped; cs[r] == 1 rows take the XOR-only path.
func mulAddSlicesWords(cs []byte, dsts [][]byte, src []byte) {
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
