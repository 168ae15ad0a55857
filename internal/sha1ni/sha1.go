// Package sha1ni computes SHA-1 with the x86 SHA extensions where the CPU has
// them, and is crypto/sha1 everywhere else. Go 1.24's crypto/sha1 has an AVX2
// block function but none on SHA-NI, which hashes at about twice the speed on
// the CPUs that have it; content hashing (metadata.HashData / NewHash) is the
// largest layer of a large Put or Get, so that is where this package sits.
// Every digest is byte-identical to crypto/sha1's.
//
// The kernel (kernel_amd64.s) is selected once at init from CPUID; no knob
// picks it by hand, and crypto/sha1 is the only fallback — every other GOARCH
// and every amd64 CPU without the SHA bit. To run the fallback on an amd64
// box, cross-run as 386.
//
// Deletion condition: Go 1.25's crypto/sha1 uses SHA-NI itself. When go.mod's
// toolchain reaches 1.25, point metadata.HashData and metadata.NewHash back at
// crypto/sha1 and delete this package.
package sha1ni

import (
	"crypto/sha1"
	"hash"
)

// Size is the size of a SHA-1 digest in bytes.
const Size = sha1.Size

// kernelSum and kernelNew are Sum and New on the SHA-NI kernel, both nil
// without one. They are set once, at init, by the architecture's kernel file.
// (Two functions rather than one block-function variable: a call through a
// variable makes its arguments escape, and the digest state of a Sum must stay
// on the stack.)
var (
	kernelSum func(data []byte) [Size]byte
	kernelNew func() hash.Hash
)

// Sum returns the SHA-1 digest of data.
func Sum(data []byte) [Size]byte {
	if kernelSum != nil {
		return kernelSum(data)
	}
	return sha1.Sum(data)
}

// New returns a hash.Hash computing SHA-1.
func New() hash.Hash {
	if kernelNew != nil {
		return kernelNew()
	}
	return sha1.New()
}
