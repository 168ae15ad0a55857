package erasure

import (
	"encoding/binary"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/gf256"
)

// Buffer and scratch pooling for the zero-alloc steady state.
//
// Ownership contract: every Share returned by Encode/EncodeTo carries a
// buffer from the data path's one pool (internal/bufpool). Callers that are
// done with a share (its bytes have been handed to a provider, or copied)
// call Release to give the buffer back; callers that retain Data simply never
// Release — forgetting costs garbage, never correctness. After Release the
// share's Data must not be touched.

// LiveBuffers reports the number of pooled buffers currently checked out
// and not yet released: shares, and every other buffer of the pool the data
// path draws from. Exposed for leak regression tests.
func LiveBuffers() int64 { return bufpool.Live() }

// PoisonOnRelease is bufpool.PoisonOnRelease: with it on, every buffer given
// back to the pool is scribbled over at once.
var PoisonOnRelease = &bufpool.PoisonOnRelease

// GetDataBuf returns a pooled plaintext buffer of length n. Same ownership
// contract as share buffers: pass it back to PutDataBuf when done, never
// touch the slice afterwards; forgetting costs garbage, not correctness.
func GetDataBuf(n int) *[]byte { return bufpool.Get(n) }

// PutDataBuf returns a pooled buffer to the pool. Safe to call with nil
// (no-op).
func PutDataBuf(bp *[]byte) { bufpool.Put(bp) }

// encodeScratch holds the per-call slice headers EncodeTo needs: the payload
// row views the fused kernel writes into.
type encodeScratch struct {
	rows [][]byte
}

var encodeScratchPool = sync.Pool{New: func() any { return new(encodeScratch) }}

// decodeScratch holds everything Decode needs between calls: the dedup
// index table, the stripe views into the caller's buffer, and the
// surplus-check buffer.
type decodeScratch struct {
	pos     [MaxN]int32 // pos[i]-1 = position in the share slice holding index i; 0 = absent
	idxs    []int       // distinct share indices, ascending
	stripes [][]byte    // the t stripes, consecutive runs of the output buffer
	check   []byte      // surplus re-encode comparison buffer
	key     []byte      // inverse-cache key under construction
}

var decodeScratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// grow returns s resized to length n, reusing capacity when possible.
func grow(s []byte, n int) []byte {
	if cap(s) < n {
		return make([]byte, n)
	}
	return s[:n]
}

func growRows(s [][]byte, n int) [][]byte {
	if cap(s) < n {
		return make([][]byte, n)
	}
	return s[:n]
}

// dispEntry is one cached dispersal matrix plus its column-major coefficient
// view: cols[i][r] = matrix[r][i], the per-stripe coefficient vector the
// fused encode kernel consumes directly.
type dispEntry struct {
	m    *gf256.Matrix
	cols [][]byte
}

// invEntry is one cached inverted decode submatrix in column-major form:
// cols[j][i] = inverse[i][j], so source share j scatters into all t stripes
// in one fused pass.
type invEntry struct {
	m    *gf256.Matrix
	cols [][]byte
}

// maxInvCache bounds the inverse-submatrix cache. Steady-state traffic uses
// a handful of subsets; DecodeCorrecting's subset search can visit many, so
// past the cap entries are computed without being stored.
const maxInvCache = 1024

// dispEntry returns the cached dispersal matrix for (t, n), building and
// caching it on first use. Entries are immutable once published.
func (c *Coder) dispEntry(t, n int) (*dispEntry, error) {
	key := [2]int{t, n}
	c.mu.RLock()
	e := c.dispCache[key]
	c.mu.RUnlock()
	if e != nil {
		return e, nil
	}
	m, err := c.Dispersal(t, n)
	if err != nil {
		return nil, err
	}
	e = &dispEntry{m: m, cols: make([][]byte, t)}
	for i := 0; i < t; i++ {
		col := make([]byte, n)
		for r := 0; r < n; r++ {
			col[r] = m.At(r, i)
		}
		e.cols[i] = col
	}
	c.mu.Lock()
	if prev, ok := c.dispCache[key]; ok {
		e = prev
	} else {
		c.dispCache[key] = e
	}
	c.mu.Unlock()
	return e, nil
}

// invKey serializes (t, n, use...) into kb. use indices fit a byte each
// (MaxN = 128).
func invKey(kb []byte, t, n int, use []int) []byte {
	kb = kb[:0]
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[:2], uint16(t))
	binary.BigEndian.PutUint16(hdr[2:], uint16(n))
	kb = append(kb, hdr[:]...)
	for _, u := range use {
		kb = append(kb, byte(u))
	}
	return kb
}

// invEntry returns the cached inverse of the dispersal submatrix for the
// given share subset, computing (and usually caching) it on a miss. The
// string(kb) map probe does not allocate; only a cold miss pays for the key
// copy and the inversion.
func (c *Coder) invEntry(kb []byte, t, n int, use []int, disp *gf256.Matrix) (*invEntry, error) {
	c.mu.RLock()
	e := c.invCache[string(kb)]
	c.mu.RUnlock()
	if e != nil {
		return e, nil
	}
	sub := disp.SubMatrix(use)
	inv, err := sub.Invert()
	if err != nil {
		return nil, err
	}
	e = &invEntry{m: inv, cols: make([][]byte, t)}
	for j := 0; j < t; j++ {
		col := make([]byte, t)
		for i := 0; i < t; i++ {
			col[i] = inv.At(i, j)
		}
		e.cols[j] = col
	}
	c.mu.Lock()
	if prev, ok := c.invCache[string(kb)]; ok {
		e = prev
	} else if len(c.invCache) < maxInvCache {
		c.invCache[string(kb)] = e // the string conversion copies kb
	}
	c.mu.Unlock()
	return e, nil
}
