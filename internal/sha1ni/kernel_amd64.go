package sha1ni

import (
	"encoding/binary"
	"hash"

	"repro/internal/cpuid"
)

// blockSHANI folds the whole 64-byte blocks of p, at least one, into the
// chaining state h (kernel_amd64.s).
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

func init() {
	if cpuid.SHANI {
		kernelSum, kernelNew = sum, newDigest
	}
}

const blockSize = 64

// digest is the Merkle–Damgård shell around blockSHANI: it buffers a partial
// block between writes and pads at the end.
type digest struct {
	h   [5]uint32
	x   [blockSize]byte // the partial block
	nx  int             // bytes of x in use, < blockSize
	len uint64          // bytes written so far
}

func newDigest() hash.Hash {
	d := new(digest)
	d.Reset()
	return d
}

func sum(data []byte) [Size]byte {
	var d digest
	d.Reset()
	d.Write(data)
	return d.checkSum()
}

func (d *digest) Reset() {
	d.h = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	d.nx, d.len = 0, 0
}

func (d *digest) Size() int      { return Size }
func (d *digest) BlockSize() int { return blockSize }

func (d *digest) Write(p []byte) (int, error) {
	n := len(p)
	d.len += uint64(n)
	if d.nx > 0 {
		c := copy(d.x[d.nx:], p)
		d.nx += c
		p = p[c:]
		if d.nx < blockSize {
			return n, nil
		}
		blockSHANI(&d.h, d.x[:])
	}
	if whole := len(p) &^ (blockSize - 1); whole > 0 {
		blockSHANI(&d.h, p[:whole])
		p = p[whole:]
	}
	d.nx = copy(d.x[:], p)
	return n, nil
}

// Sum appends the digest of what has been written so far to in. It works on
// a copy of the state, so the caller can keep writing.
func (d *digest) Sum(in []byte) []byte {
	d0 := *d
	sum := d0.checkSum()
	return append(in, sum[:]...)
}

// checkSum pads the message (0x80, zeros to 56 mod 64, the bit length as a
// big-endian uint64) and returns the digest. It consumes d.
func (d *digest) checkSum() [Size]byte {
	d.x[d.nx] = 0x80
	clear(d.x[d.nx+1:])
	if d.nx+1 > blockSize-8 {
		blockSHANI(&d.h, d.x[:])
		clear(d.x[:])
	}
	binary.BigEndian.PutUint64(d.x[blockSize-8:], d.len<<3)
	blockSHANI(&d.h, d.x[:])

	var out [Size]byte
	for i, w := range d.h {
		binary.BigEndian.PutUint32(out[4*i:], w)
	}
	return out
}
