package chunker

// FastCDC2020-style gear-hash chunking (Xia et al., "The Design of Fast
// Content-Defined Chunking for Data Deduplication Based Storage Systems").
//
// Rabin rolls one byte per iteration through two table lookups and a
// polynomial reduction; the gear hash needs one add and one shift per byte
// (h = (h << 1) + gear[b]), and FastCDC layers three tricks on top:
//
//   - cut-point skipping: hashing starts at MinSize instead of warming a
//     window, so the bytes every chunk is guaranteed to contain are never
//     hashed at all;
//   - normalized chunking: a harder mask (more bits) before the average
//     point and an easier mask after it squeeze the size distribution
//     toward the mean without a hard cliff at MaxSize;
//   - two bytes per loop iteration: the boundary test for odd positions is
//     algebraically shifted by one bit (h<<1 tested against mask<<1), so
//     one loop body advances two bytes with two tests.
//
// The gear table and mask layout below are fixed constants of this
// implementation: chunk boundaries — and therefore chunk IDs and dedup
// state — are stable across builds for a given Config.

// gearSeed seeds the splitmix64 sequence that generates the gear table.
const gearSeed = 0x3ac5_c9b1_6e02_8f47

var (
	gearTable  [256]uint64
	gearShift2 [256]uint64 // gearTable[b] << 1, for the odd-position test
)

func init() {
	for i := range gearTable {
		gearTable[i] = splitmix64(gearSeed + uint64(i))
		gearShift2[i] = gearTable[i] << 1
	}
}

// splitmix64 is the standard SplitMix64 finalizer: a cheap, deterministic
// way to turn an index into a well-mixed 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// spreadMask returns a boundary mask with nbits bits spread evenly across
// bit positions [32, 62]. The gear hash shifts left once per byte, so bit p
// accumulates contributions from the last p+1 bytes: keeping mask bits at
// position >= 32 gives every tested bit an effective window of 33+ bytes,
// comparable to Rabin's 48-byte window, while spreading (rather than
// packing) the bits decorrelates the test from any single input byte. Bit
// 63 is left clear so mask<<1 (the odd-position variant) loses nothing.
func spreadMask(nbits int) uint64 {
	if nbits < 1 {
		nbits = 1
	}
	if nbits > 31 {
		nbits = 31
	}
	step := 31 / nbits
	if step == 0 {
		step = 1
	}
	var m uint64
	pos := 62
	for i := 0; i < nbits; i++ {
		m |= 1 << pos
		pos -= step
	}
	return m
}

// log2int returns floor(log2(v)) for v > 0.
func log2int(v int) int {
	n := -1
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// gear is the boundary rule of a FastCDC-configured Chunker.
type gear struct {
	cfg Config
	// Normalized-chunking masks: the "small" (harder) mask applies before
	// the average point, the "large" (easier) one after it; the Sh variants
	// are the same masks shifted left for the odd-position test of the
	// two-bytes-per-iteration loop.
	maskSmall, maskSmallSh uint64
	maskLarge, maskLargeSh uint64
}

func newGear(cfg Config) *gear {
	bits := log2int(cfg.AverageSize)
	g := &gear{cfg: cfg, maskSmall: spreadMask(bits + 2), maskLarge: spreadMask(bits - 2)}
	g.maskSmallSh = g.maskSmall << 1
	g.maskLargeSh = g.maskLarge << 1
	return g
}

// cut implements Chunker.cut.
func (g *gear) cut(data []byte, from int) int {
	maxLen := min(len(data), g.cfg.MaxSize)
	// Normalization point: harder mask up to the average size, easier mask
	// beyond it.
	normal := min(g.cfg.AverageSize, maxLen)
	i := max(from, g.cfg.MinSize)
	if i < maxLen {
		_ = data[maxLen-1] // hoist the bounds check out of the loops

		// Each byte is shifted out of the 64-bit hash after 64 more, so
		// re-hashing the 64 bytes before a resume point (never reaching
		// back past MinSize, where hashing starts) restores the hash the
		// previous call stopped with.
		var h uint64
		for _, b := range data[max(i-64, g.cfg.MinSize):i] {
			h = (h << 1) + gearTable[b]
		}
		for ; i+2 <= normal; i += 2 {
			h = (h << 2) + gearShift2[data[i]]
			if h&g.maskSmallSh == 0 {
				return i + 1
			}
			h += gearTable[data[i+1]]
			if h&g.maskSmall == 0 {
				return i + 2
			}
		}
		for ; i < normal; i++ {
			h = (h << 1) + gearTable[data[i]]
			if h&g.maskSmall == 0 {
				return i + 1
			}
		}
		for ; i+2 <= maxLen; i += 2 {
			h = (h << 2) + gearShift2[data[i]]
			if h&g.maskLargeSh == 0 {
				return i + 1
			}
			h += gearTable[data[i+1]]
			if h&g.maskLarge == 0 {
				return i + 2
			}
		}
		for ; i < maxLen; i++ {
			h = (h << 1) + gearTable[data[i]]
			if h&g.maskLarge == 0 {
				return i + 1
			}
		}
	}
	if maxLen == g.cfg.MaxSize {
		return maxLen
	}
	return 0
}
