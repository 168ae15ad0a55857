// Package chunker implements content-defined chunking (paper §5.1): the
// paper's Rabin fingerprinting (this file) and the FastCDC gear hash
// (fastcdc.go) that a zero Config selects.
//
// A rolling hash is computed at every byte offset; when it matches a
// pre-defined pattern — for Rabin, the polynomial hash of a sliding window
// modulo a pre-defined integer M equals a pre-defined value K — a chunk
// boundary is declared. Because boundaries depend only on local content, an
// edit to a file only changes the chunks whose bytes changed — the property
// CYRUS's deduplication relies on.
package chunker

import (
	"fmt"
	"sync"
)

// Polynomial for the Rabin hash: a degree-53 irreducible polynomial over
// GF(2), the one popularized by LBFS. Represented with the implicit leading
// bit excluded from degree tracking.
const Polynomial = uint64(0x3DA3358B4DC173)

// polyDegree is the degree of Polynomial.
const polyDegree = 53

// rabinTables hold the precomputed byte-at-a-time transition tables for a
// given window size: outTable removes the oldest byte, modTable reduces the
// shifted hash.
type rabinTables struct {
	out [256]uint64
	mod [256]uint64
}

var (
	tableMu    sync.Mutex
	tableCache = map[int]*rabinTables{}
)

// polyMod returns x mod Polynomial in GF(2)[x].
func polyMod(x uint64) uint64 {
	for d := deg(x); d >= polyDegree; d = deg(x) {
		x ^= Polynomial << uint(d-polyDegree)
	}
	return x
}

// polyMulMod returns (a * b) mod Polynomial in GF(2)[x].
func polyMulMod(a, b uint64) uint64 {
	var acc uint64
	for b != 0 {
		if b&1 != 0 {
			acc ^= a
		}
		b >>= 1
		a = polyMod(a << 1)
	}
	return acc
}

func deg(x uint64) int {
	d := -1
	for x != 0 {
		x >>= 1
		d++
	}
	return d
}

// tablesFor builds (or fetches) the transition tables for a window size.
func tablesFor(window int) *rabinTables {
	tableMu.Lock()
	defer tableMu.Unlock()
	if t, ok := tableCache[window]; ok {
		return t
	}
	t := &rabinTables{}
	// shift = x^(8*(window-1)) mod P: the weight the oldest byte carries
	// in the window hash, removed just before the hash is advanced by one
	// byte position.
	shift := uint64(1)
	for i := 0; i < window-1; i++ {
		shift = polyMulMod(shift, polyMod(1<<8))
	}
	for b := 0; b < 256; b++ {
		t.out[b] = polyMulMod(uint64(b), shift)
		t.mod[b] = polyMod(uint64(b) << polyDegree)
	}
	tableCache[window] = t
	return t
}

// Algorithm selects the boundary-detection algorithm.
type Algorithm string

const (
	// Rabin is the rolling polynomial hash of paper §5.1: the explicit
	// opt-in that paper-figure experiments and boundary fixtures pin, and
	// that a deployment pins to keep deduplicating against chunks written
	// before FastCDC became the default.
	Rabin Algorithm = "rabin"
	// FastCDC is the default: the gear-hash chunker (fastcdc.go), ~4x the
	// scan rate of Rabin with different (still deterministic) boundaries.
	// Boundaries are a write-time choice recorded in each chunk ref, so
	// chunks written under either algorithm stay readable; only dedup
	// against chunks of the other algorithm is lost.
	FastCDC Algorithm = "fastcdc"
)

// Config controls chunk boundary placement.
type Config struct {
	// Algorithm picks the chunker. Empty means FastCDC.
	Algorithm Algorithm
	// Window is the sliding-window size in bytes. Default 48.
	// Rabin only; FastCDC's gear hash has no explicit window.
	Window int
	// AverageSize is the target mean chunk size; boundaries fire when
	// hash mod AverageSize == K, so AverageSize plays the role of the
	// paper's M. Must be a power of two. Default 4 MiB (Dropbox-like,
	// following the paper's testbed setup).
	AverageSize int
	// MinSize suppresses boundaries that would produce chunks smaller than
	// this. Default AverageSize / 4.
	MinSize int
	// MaxSize forces a boundary once a chunk reaches this size.
	// Default AverageSize * 4.
	MaxSize int
	// K is the residue that triggers a boundary, 0 <= K < AverageSize.
	// Default AverageSize - 1 (avoids the all-zeros degenerate residue).
	K uint64
}

// Defaults for Config zero values.
const (
	DefaultWindow      = 48
	DefaultAverageSize = 4 << 20
)

func (c Config) withDefaults() (Config, error) {
	if c.Algorithm == "" {
		c.Algorithm = FastCDC
	}
	if c.Algorithm != Rabin && c.Algorithm != FastCDC {
		return c, fmt.Errorf("chunker: unknown algorithm %q", c.Algorithm)
	}
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.AverageSize == 0 {
		c.AverageSize = DefaultAverageSize
	}
	if c.AverageSize&(c.AverageSize-1) != 0 {
		return c, fmt.Errorf("chunker: AverageSize %d is not a power of two", c.AverageSize)
	}
	if c.MinSize == 0 {
		c.MinSize = c.AverageSize / 4
	}
	if c.MaxSize == 0 {
		c.MaxSize = c.AverageSize * 4
	}
	if c.K == 0 {
		c.K = uint64(c.AverageSize - 1)
	}
	if c.Algorithm == FastCDC {
		// Window and K are Rabin knobs; FastCDC ignores both. The gear
		// hash needs a few dozen bytes past MinSize for its tested bits to
		// mix, and the normalized masks need log2(avg) +/- 2 bits.
		switch {
		case c.AverageSize < 64:
			return c, fmt.Errorf("chunker: AverageSize %d too small for fastcdc (need >= 64)", c.AverageSize)
		case c.MinSize < 1:
			return c, fmt.Errorf("chunker: MinSize %d too small", c.MinSize)
		case c.MaxSize < c.MinSize:
			return c, fmt.Errorf("chunker: MaxSize %d < MinSize %d", c.MaxSize, c.MinSize)
		}
		return c, nil
	}
	switch {
	case c.Window < 2:
		return c, fmt.Errorf("chunker: window %d too small", c.Window)
	case c.MinSize < c.Window:
		return c, fmt.Errorf("chunker: MinSize %d smaller than window %d", c.MinSize, c.Window)
	case c.MaxSize < c.MinSize:
		return c, fmt.Errorf("chunker: MaxSize %d < MinSize %d", c.MaxSize, c.MinSize)
	case c.K >= uint64(c.AverageSize):
		return c, fmt.Errorf("chunker: K %d out of range for AverageSize %d", c.K, c.AverageSize)
	}
	return c, nil
}

// Chunk is one content-defined piece of a file.
type Chunk struct {
	Offset int64 // byte offset within the file
	// Data is a sub-slice of the input (Split, ScanBytes: not copied) or of
	// the pooled buffer a streaming Scanner read the chunk into.
	Data []byte
}

// Chunker splits byte streams at content-defined boundaries. A Chunker is
// immutable after construction and safe for concurrent use.
type Chunker struct {
	cfg Config
	// cut is the boundary rule of cfg.Algorithm (rabin.cut or gear.cut).
	// data[0] is the first byte of the chunk being cut and positions below
	// from were searched by an earlier call over a shorter data. It returns
	// the chunk's length once that is decided — a boundary was found, or
	// data holds MaxSize bytes — and 0 while the chunk may extend past
	// len(data): the caller then supplies more bytes and resumes at
	// from = len(data), or at end of stream takes data as the tail chunk.
	cut func(data []byte, from int) int
}

// New returns a Chunker for the given configuration. Zero fields take the
// documented defaults.
func New(cfg Config) (*Chunker, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ck := &Chunker{cfg: full}
	if full.Algorithm == FastCDC {
		ck.cut = newGear(full).cut
	} else {
		ck.cut = newRabin(full).cut
	}
	return ck, nil
}

// Config reports the effective configuration after defaulting.
func (c *Chunker) Config() Config { return c.cfg }

// Split divides data into content-defined chunks. The returned chunks alias
// the input slice. Every byte of the input is covered exactly once, in
// order. An empty input yields no chunks. The chunk slice is preallocated
// from the expected count; use SplitTo to reuse a caller-owned slice.
func (c *Chunker) Split(data []byte) []Chunk {
	return c.SplitTo(make([]Chunk, 0, len(data)/c.cfg.AverageSize+1), data)
}

// SplitTo appends the chunks of data to dst and returns the extended slice,
// allocating only when dst lacks capacity — the zero-steady-state-alloc
// variant of Split for callers that recycle the chunk slice. It drives the
// same Scanner that streams chunks from an io.Reader (in its zero-copy
// ScanBytes mode), so batch and streaming chunking share one boundary loop.
func (c *Chunker) SplitTo(dst []Chunk, data []byte) []Chunk {
	s := c.ScanBytes(data)
	for {
		ch, err := s.Next()
		if err != nil {
			return dst // ScanBytes mode can only fail with io.EOF
		}
		dst = append(dst, ch)
	}
}

// rabin is the boundary rule of a Rabin-configured Chunker.
type rabin struct {
	cfg    Config
	tables *rabinTables
	mask   uint64
}

func newRabin(cfg Config) *rabin {
	return &rabin{cfg: cfg, tables: tablesFor(cfg.Window), mask: uint64(cfg.AverageSize - 1)}
}

// cut implements Chunker.cut.
func (r *rabin) cut(data []byte, from int) int {
	maxLen := min(len(data), r.cfg.MaxSize)
	// The window hash is a function of the last Window bytes alone, so
	// warming it over the bytes just before the first position to test —
	// the earliest legal boundary, or where the previous call stopped —
	// yields the same hash as one unbroken roll over the chunk.
	i := max(from, r.cfg.MinSize)
	if i < maxLen {
		var h uint64
		for _, b := range data[i-r.cfg.Window : i] {
			h = r.roll(h, 0, b) // window fills; nothing to age out yet
		}
		for ; i < maxLen; i++ {
			h = r.roll(h, data[i-r.cfg.Window], data[i])
			if h&r.mask == r.cfg.K&r.mask {
				return i + 1
			}
		}
	}
	if maxLen == r.cfg.MaxSize {
		return maxLen
	}
	return 0
}

// roll advances the hash: ages out `old`, appends `in`. The hash is kept
// reduced mod Polynomial (degree < 53) throughout.
func (r *rabin) roll(h uint64, old, in byte) uint64 {
	h ^= r.tables.out[old]
	top := byte(h >> (polyDegree - 8))
	h = ((h << 8) | uint64(in)) & ((1 << polyDegree) - 1)
	return h ^ r.tables.mod[top]
}
