package metadata

import (
	"slices"
	"sort"
	"sync"
)

// ChunkTable is the global chunk table (paper §5.2) as a share-location
// index: for every chunk whose shares are stored in the cloud it records
// where each share lives, with the chunk's size and sharing parameters. The
// upload path consults it for deduplication ("avoid uploading redundant
// chunks by checking whether shares of each chunk are already stored",
// Algorithm 2), the download path for the freshest share locations, and the
// lazy-migration path updates it when shares move. It keeps no reference
// count: which chunks are still referenced is a fact of the version tree,
// and the garbage collector derives it from there.
//
// Entries are keyed by (chunk ID, storage class) — EncodingKey — because
// one chunk's content can be stored under several encodings at once (a hot
// and a cold copy mid lifecycle-demotion have different (t,n) and different
// share objects). The default class keys as the bare chunk ID.
type ChunkTable struct {
	mu     sync.RWMutex
	chunks map[string]*ChunkInfo
}

// ChunkInfo is the stored state of one unique (chunk, encoding) pair.
type ChunkInfo struct {
	ID    string
	Class string // storage class of this encoding ("" = default)
	Size  int64
	T, N  int
	CAS   bool // shares are content-addressed (dedup mode)

	// Shares holds one location per known share index, sorted by index.
	// The table never writes to a Shares slice once it is stored: an
	// update replaces the slice, so a ChunkInfo the table returned is a
	// snapshot its holder may keep, but must not modify.
	Shares []ShareLoc
}

// NewChunkTable returns an empty table.
func NewChunkTable() *ChunkTable {
	return &ChunkTable{chunks: make(map[string]*ChunkInfo)}
}

// LookupEnc returns the chunk's info under the given storage class, if
// stored. Dedup reuse is per encoding: a chunk stored hot is not "already
// stored" for a cold-class write.
func (t *ChunkTable) LookupEnc(chunkID, class string) (ChunkInfo, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, ok := t.chunks[EncodingKey(chunkID, class)]
	if !ok {
		return ChunkInfo{}, false
	}
	return *c, true
}

// Record records a chunk encoding and the locations of its shares: the
// entries of shares that belong to the chunk (ChunkID == chunk.ID) are
// merged by index, a later location replacing an earlier one. Recording a
// chunk the table knows with shares nil changes nothing but its CAS flag.
func (t *ChunkTable) Record(chunk ChunkRef, shares []ShareLoc) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := chunk.EncodingKey()
	c, ok := t.chunks[key]
	if !ok {
		c = &ChunkInfo{ID: chunk.ID, Class: chunk.Class, Size: chunk.Size, T: chunk.T, N: chunk.N}
		t.chunks[key] = c
	}
	c.CAS = c.CAS || chunk.CAS
	next, owned := c.Shares, false
	for _, s := range shares {
		if s.ChunkID != chunk.ID {
			continue
		}
		i, found := searchIndex(next, s.Index)
		if found && next[i].CSP == s.CSP {
			continue
		}
		if !owned {
			next, owned = slices.Clone(next), true
		}
		if found {
			next[i].CSP = s.CSP
		} else {
			next = slices.Insert(next, i, s)
		}
	}
	c.Shares = next
}

func searchIndex(locs []ShareLoc, index int) (int, bool) {
	return slices.BinarySearchFunc(locs, index, func(l ShareLoc, idx int) int { return l.Index - idx })
}

// MoveShareEnc updates one share's location under the given storage class
// (lazy migration, paper §5.5). It reports false when the encoding or the
// share index is unknown.
func (t *ChunkTable) MoveShareEnc(chunkID, class string, index int, newCSP string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.chunks[EncodingKey(chunkID, class)]
	if !ok {
		return false
	}
	i, found := searchIndex(c.Shares, index)
	if !found {
		return false
	}
	next := slices.Clone(c.Shares)
	next[i].CSP = newCSP
	c.Shares = next
	return true
}

// SharesOn returns the chunk IDs with at least one share on the given CSP —
// the per-CSP view the paper's global chunk table provides.
func (t *ChunkTable) SharesOn(cspName string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	seen := map[string]bool{}
	var out []string
	for _, c := range t.chunks {
		if !seen[c.ID] && slices.ContainsFunc(c.Shares, func(l ShareLoc) bool { return l.CSP == cspName }) {
			seen[c.ID] = true
			out = append(out, c.ID)
		}
	}
	sort.Strings(out)
	return out
}

// Entries returns every (chunk, encoding) entry, sorted by encoding key —
// the iteration surface for GC.
func (t *ChunkTable) Entries() []ChunkInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	keys := make([]string, 0, len(t.chunks))
	for key := range t.chunks {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]ChunkInfo, 0, len(keys))
	for _, key := range keys {
		out = append(out, *t.chunks[key])
	}
	return out
}

// Drop removes a chunk encoding (garbage collection of one no version
// references). The key is an EncodingKey (a bare chunk ID for the default
// class).
func (t *ChunkTable) Drop(encKey string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.chunks, encKey)
}

// Len returns the number of unique stored chunk encodings.
func (t *ChunkTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.chunks)
}
