// Package erasure implements CYRUS's (t, n) secret sharing as a
// non-systematic Reed-Solomon erasure code over GF(2^8) (paper §5.1).
//
// A chunk of data is split column-wise into t data words; each of the n
// shares is a linear combination of those words given by one row of an
// n x t dispersal matrix. Because the code is non-systematic, no share
// contains any original byte of the chunk: reconstructing even part of the
// chunk requires t shares AND the dispersal matrix.
//
// Following the paper, the dispersal matrix is the Vandermonde matrix
// generated by a t-dimensional vector computed from a consistent hash of the
// user's key string, so decoding additionally requires the key. Any t of
// the n shares suffice to decode; surplus shares can be used to detect
// corruption.
package erasure

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/gf256"
)

// Limits on the sharing parameters. n is bounded by the number of distinct
// non-zero evaluation points we can derive per key (we never need anywhere
// near 255 CSPs).
const (
	MinT = 1
	MaxN = 128
)

// Errors returned by the coder.
var (
	ErrBadParams      = errors.New("erasure: invalid (t, n) parameters")
	ErrNotEnough      = errors.New("erasure: not enough shares to decode")
	ErrShapeMismatch  = errors.New("erasure: shares have inconsistent sizes")
	ErrCorruptShare   = errors.New("erasure: share verification failed")
	ErrBadShareHeader = errors.New("erasure: malformed share header")
)

// shareHeaderLen is the per-share prefix: 1 byte format version, 1 byte t,
// 1 byte share index, 8 bytes original chunk length.
const shareHeaderLen = 11

const formatVersion = 1

// Share is one encoded fragment of a chunk.
type Share struct {
	Index int    // row of the dispersal matrix that produced this share
	Data  []byte // header + encoded payload

	// buf is the pooled backing buffer when the share was produced by
	// Encode/EncodeTo; nil for caller-constructed shares (e.g. downloads).
	buf *[]byte
}

// Size returns the on-wire share size in bytes.
func (s Share) Size() int64 { return int64(len(s.Data)) }

// Release returns the share's backing buffer to the buffer pool. It is a
// no-op for caller-constructed shares and for shares already released, so it
// is always safe to call exactly once per owner. Data must not be used after
// Release.
func (s *Share) Release() {
	if s.buf == nil {
		return
	}
	bufpool.Put(s.buf)
	s.buf, s.Data = nil, nil
}

// ReleaseShares releases every share in the slice.
func ReleaseShares(shares []Share) {
	for i := range shares {
		shares[i].Release()
	}
}

// ShareSize returns the encoded share size for a chunk of dataLen bytes at
// privacy level t, including the header. Share size is independent of n
// (paper §4.2).
func ShareSize(dataLen int64, t int) int64 {
	if t < MinT {
		panic(fmt.Sprintf("erasure: ShareSize with t=%d", t))
	}
	words := (dataLen + int64(t) - 1) / int64(t)
	return words + shareHeaderLen
}

// Coder encodes and decodes shares for a fixed user key. A Coder is safe
// for concurrent use: the key is immutable and the matrix caches are
// internally locked.
type Coder struct {
	key []byte

	mu        sync.RWMutex
	dispCache map[[2]int]*dispEntry
	invCache  map[string]*invEntry
}

// NewCoder derives a coder from the user's key string. The key determines
// the dispersal matrices; a different key cannot decode shares produced by
// this coder.
func NewCoder(key string) *Coder {
	sum := sha1.Sum([]byte(key))
	return &Coder{
		key:       sum[:],
		dispCache: make(map[[2]int]*dispEntry),
		invCache:  make(map[string]*invEntry),
	}
}

// points derives n pairwise-distinct non-zero evaluation points for the
// Vandermonde dispersal matrix from the key, via counter-mode SHA-1 over
// the key digest. The derivation is deterministic in the key.
func (c *Coder) points(n int) []byte {
	seen := make(map[byte]bool, n)
	pts := make([]byte, 0, n)
	var ctr uint32
	for len(pts) < n {
		var buf [24]byte
		copy(buf[:20], c.key)
		binary.BigEndian.PutUint32(buf[20:], ctr)
		ctr++
		sum := sha1.Sum(buf[:])
		for _, b := range sum {
			if b == 0 || seen[b] {
				continue
			}
			seen[b] = true
			pts = append(pts, b)
			if len(pts) == n {
				break
			}
		}
	}
	return pts
}

// Dispersal returns the n x t dispersal matrix for the given parameters.
// Exposed for tests and for the Figure-12 benchmark harness.
func (c *Coder) Dispersal(t, n int) (*gf256.Matrix, error) {
	if t < MinT || n < t || n > MaxN {
		return nil, fmt.Errorf("%w: t=%d n=%d", ErrBadParams, t, n)
	}
	return gf256.Vandermonde(c.points(n), t), nil
}

// Encode splits data into n shares such that any t of them reconstruct the
// data. The input is not modified. For len(data) == 0 the shares carry only
// headers. The returned shares use pooled backing buffers — see
// Share.Release for the recycling contract.
func (c *Coder) Encode(data []byte, t, n int) ([]Share, error) {
	if t < MinT || n < t || n > MaxN {
		return nil, fmt.Errorf("%w: t=%d n=%d", ErrBadParams, t, n)
	}
	return c.EncodeTo(make([]Share, 0, n), data, t, n)
}

// EncodeTo appends the n shares of data to dst and returns the extended
// slice: the zero-steady-state-alloc variant of Encode. With a warm buffer
// pool, a dst of capacity n, and a cached dispersal matrix, EncodeTo
// performs no heap allocation.
//
// The encode walks the data stripe by stripe: stripe i is the i-th
// words-sized run of data (no stripe copies are made — the kernels read the
// input in place). The first stripe is always whole, so it writes every
// payload with the overwrite kernel and a pooled buffer's old contents need
// no clearing; each later stripe is one fused MulAddSlices pass over all n
// payloads, so each of its bytes is loaded once rather than once per share.
func (c *Coder) EncodeTo(dst []Share, data []byte, t, n int) ([]Share, error) {
	de, err := c.dispEntry(t, n)
	if err != nil {
		return nil, err
	}
	words := (len(data) + t - 1) / t

	sc := encodeScratchPool.Get().(*encodeScratch)
	sc.rows = growRows(sc.rows, n)

	for r := 0; r < n; r++ {
		bp := bufpool.Get(shareHeaderLen + words)
		buf := *bp
		buf[0] = formatVersion
		buf[1] = byte(t)
		buf[2] = byte(r)
		binary.BigEndian.PutUint64(buf[3:11], uint64(len(data)))
		sc.rows[r] = buf[shareHeaderLen:]
		gf256.MulSlice(de.cols[0][r], sc.rows[r], data[:words])
		dst = append(dst, Share{Index: r, Data: buf, buf: bp})
	}

	// Column-major data layout: word j of data stripe i is data[i*words+j],
	// tail zero-padded (the header records the true length). Only the last
	// non-empty stripe can be short; trimming the destination rows to its
	// length adds nothing to the bytes past it, which is what the zero
	// padding would add.
	for i := 1; i < t; i++ {
		lo := i * words
		hi := lo + words
		if lo > len(data) {
			lo = len(data)
		}
		if hi > len(data) {
			hi = len(data)
		}
		stripe := data[lo:hi]
		if len(stripe) == 0 {
			continue
		}
		rows := sc.rows
		if len(stripe) < words {
			for r := range rows {
				rows[r] = rows[r][:len(stripe)]
			}
		}
		gf256.MulAddSlices(de.cols[i], rows, stripe)
	}

	for r := range sc.rows {
		sc.rows[r] = nil // do not pin share buffers from the scratch pool
	}
	encodeScratchPool.Put(sc)
	return dst, nil
}

// parseHeader validates and splits a share.
func parseHeader(s Share) (t int, dataLen int64, payload []byte, err error) {
	if len(s.Data) < shareHeaderLen {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes", ErrBadShareHeader, len(s.Data))
	}
	if s.Data[0] != formatVersion {
		return 0, 0, nil, fmt.Errorf("%w: unknown version %d", ErrBadShareHeader, s.Data[0])
	}
	if int(s.Data[2]) != s.Index {
		return 0, 0, nil, fmt.Errorf("%w: header index %d != share index %d", ErrBadShareHeader, s.Data[2], s.Index)
	}
	t = int(s.Data[1])
	if t < MinT {
		return 0, 0, nil, fmt.Errorf("%w: t=%d", ErrBadShareHeader, t)
	}
	dataLen = int64(binary.BigEndian.Uint64(s.Data[3:11]))
	payload = s.Data[shareHeaderLen:]
	want := (dataLen + int64(t) - 1) / int64(t)
	if int64(len(payload)) != want {
		return 0, 0, nil, fmt.Errorf("%w: payload %d bytes, want %d", ErrShapeMismatch, len(payload), want)
	}
	return t, dataLen, payload, nil
}

// Decode reconstructs the original chunk from any t or more shares produced
// by Encode with parameters (t, n). If more than t shares are supplied, the
// surplus shares are used to verify the reconstruction and ErrCorruptShare
// is returned on mismatch.
func (c *Coder) Decode(shares []Share, n int) ([]byte, error) {
	out, err := c.DecodeInto(nil, shares, n)
	if err != nil {
		return nil, err
	}
	if out == nil {
		out = []byte{}
	}
	return out, nil
}

// DecodeInto appends the reconstructed chunk to dst and returns the
// extended slice: the zero-steady-state-alloc variant of Decode. The chunk
// is reconstructed in place, in dst's spare capacity, which must hold the t
// whole stripes — up to t-1 bytes more than the chunk, the zero padding of
// the last stripe; a dst with less is grown once. With a cached inverse
// matrix and that capacity, DecodeInto performs no heap allocation.
func (c *Coder) DecodeInto(dst []byte, shares []Share, n int) ([]byte, error) {
	if len(shares) == 0 {
		return nil, ErrNotEnough
	}
	if n < 1 || n > MaxN {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParams, n)
	}

	sc := decodeScratchPool.Get().(*decodeScratch)
	defer func() {
		clear(sc.stripes) // do not pin the caller's buffer from the scratch pool
		decodeScratchPool.Put(sc)
	}()
	for i := range sc.pos[:n] {
		sc.pos[i] = 0
	}

	// Validate headers and de-duplicate by index (last share wins, matching
	// the map semantics of the original implementation).
	t := -1
	var dataLen int64
	for k, s := range shares {
		st, sl, _, err := parseHeader(s)
		if err != nil {
			return nil, err
		}
		if t == -1 {
			t, dataLen = st, sl
		} else if st != t || sl != dataLen {
			return nil, fmt.Errorf("%w: mixed parameters t=%d/%d len=%d/%d", ErrShapeMismatch, st, t, sl, dataLen)
		}
		if s.Index < 0 || s.Index >= n {
			return nil, fmt.Errorf("%w: share index %d outside n=%d", ErrBadShareHeader, s.Index, n)
		}
		sc.pos[s.Index] = int32(k) + 1
	}
	sc.idxs = sc.idxs[:0]
	for i := 0; i < n; i++ {
		if sc.pos[i] != 0 {
			sc.idxs = append(sc.idxs, i)
		}
	}
	if len(sc.idxs) < t {
		return nil, fmt.Errorf("%w: have %d distinct shares, need %d", ErrNotEnough, len(sc.idxs), t)
	}

	de, err := c.dispEntry(t, n)
	if err != nil {
		return nil, err
	}

	// Pick t shares deterministically (ascending index) for decoding.
	use := sc.idxs[:t]
	sc.key = invKey(sc.key, t, n, use)
	ie, err := c.invEntry(sc.key, t, n, use, de.m)
	if err != nil {
		return nil, fmt.Errorf("erasure: dispersal submatrix for shares %v: %w", use, err)
	}

	// The t stripes are consecutive runs of dst's spare capacity, so the
	// decoded chunk is already where it is returned; the padding of the last
	// stripe stays behind the returned length. The first source payload
	// writes every stripe with the overwrite kernel, so nothing is cleared;
	// each later one scatters into all t stripes in one fused pass: payload
	// bytes are loaded once, not once per stripe.
	words := int((dataLen + int64(t) - 1) / int64(t))
	base := len(dst)
	dst = slices.Grow(dst, t*words)[:base+t*words]
	sc.stripes = growRows(sc.stripes, t)
	first := shares[sc.pos[use[0]]-1].Data[shareHeaderLen:]
	for i := 0; i < t; i++ {
		sc.stripes[i] = dst[base+i*words : base+(i+1)*words]
		gf256.MulSlice(ie.cols[0][i], sc.stripes[i], first)
	}
	for j := 1; j < t; j++ {
		payload := shares[sc.pos[use[j]]-1].Data[shareHeaderLen:]
		gf256.MulAddSlices(ie.cols[j], sc.stripes, payload)
	}
	// Every honest encoding pads the last stripe with zeros. Anything else
	// there means a share that was not encoded from this chunk, even when no
	// surplus share is at hand to say which.
	for _, b := range dst[base+int(dataLen) : base+t*words] {
		if b != 0 {
			return nil, fmt.Errorf("%w: nonzero padding", ErrCorruptShare)
		}
	}

	// Verify against surplus shares: re-encode their rows and compare.
	if len(sc.idxs) > t {
		sc.check = grow(sc.check, words)
		for _, extra := range sc.idxs[t:] {
			row := de.m.Row(extra)
			gf256.MulSlice(row[0], sc.check, sc.stripes[0])
			for i := 1; i < t; i++ {
				gf256.MulAddSlice(row[i], sc.check, sc.stripes[i])
			}
			payload := shares[sc.pos[extra]-1].Data[shareHeaderLen:]
			if !bytes.Equal(sc.check, payload) {
				k := 0
				for k < words && sc.check[k] == payload[k] {
					k++
				}
				return nil, fmt.Errorf("%w: share %d disagrees at byte %d", ErrCorruptShare, extra, k)
			}
		}
	}

	return dst[:base+int(dataLen)], nil
}

// DecodeVerified reconstructs the chunk from shares of which any may be
// corrupt, accepting only a decoding that verify confirms carries the blob's
// identity — its content hash, or its record's version ID. It is the paper's
// §7.1 observation that the code "can recover a chunk's data even if there
// are errors in the t shares used": any t intact shares suffice, however many
// of the others are corrupt.
//
// It keeps the last share of each index, as DecodeInto does, and decodes
// t-subsets of the shares whose headers parse, in ascending index order, so a
// replay tries the same subsets in the same order. t is the shares' own:
// shares whose headers disagree on (t, length) are searched as separate
// groups, the group holding the lowest index first. The search is exponential
// in the number of shares, which a caller bounds by the providers it fetched
// from. It returns the first decoding verify accepts; otherwise an error
// wrapping ErrCorruptShare.
func (c *Coder) DecodeVerified(shares []Share, n int, verify func([]byte) bool) ([]byte, error) {
	if n < 1 || n > MaxN {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParams, n)
	}
	last := make(map[int]Share, len(shares))
	for _, s := range shares {
		last[s.Index] = s
	}
	type group struct {
		t       int
		dataLen int64
		shares  []Share
	}
	var groups []group
	for i := 0; i < n; i++ {
		s, ok := last[i]
		if !ok {
			continue
		}
		t, dataLen, _, err := parseHeader(s)
		if err != nil {
			continue
		}
		k := slices.IndexFunc(groups, func(g group) bool { return g.t == t && g.dataLen == dataLen })
		if k < 0 {
			k = len(groups)
			groups = append(groups, group{t: t, dataLen: dataLen})
		}
		groups[k].shares = append(groups[k].shares, s)
	}
	var out []byte
	for _, g := range groups {
		t, k := g.t, len(g.shares)
		if k < t {
			continue
		}
		pick := make([]int, t) // positions in g.shares, ascending
		sub := make([]Share, t)
		for i := range pick {
			pick[i] = i
		}
		for {
			for i, p := range pick {
				sub[i] = g.shares[p]
			}
			if dec, err := c.DecodeInto(out[:0], sub, n); err == nil {
				if verify(dec) {
					return dec, nil
				}
				out = dec
			}
			// The next t-subset in lexicographic order.
			i := t - 1
			for i >= 0 && pick[i] == k-t+i {
				i--
			}
			if i < 0 {
				break
			}
			pick[i]++
			for j := i + 1; j < t; j++ {
				pick[j] = pick[j-1] + 1
			}
		}
	}
	return nil, fmt.Errorf("%w: no t of %d shares decode to a verified blob", ErrCorruptShare, len(last))
}
