package gf256

import "repro/internal/cpuid"

// The AVX2 kernels of kernel_amd64.s. Each multiplies len(src) bytes, which
// must be a multiple of vecWidth, by the constant whose nibble tables are
// tbl; dst must be at least as long as src.

//go:noescape
func mulAVX2(tbl *[2][16]byte, dst, src []byte)

//go:noescape
func mulAddAVX2(tbl *[2][16]byte, dst, src []byte)

func init() {
	if cpuid.AVX2 {
		vecMul, vecMulAdd = mulAVX2, mulAddAVX2
	}
}
