package metadata

import (
	"maps"
	"sort"
	"sync"
)

// ChunkTable is the global chunk table (paper §5.2): for every chunk whose
// shares are stored in the cloud it records the share locations, size, the
// sharing parameters, and a reference count over file versions. The upload
// path consults it for deduplication ("avoid uploading redundant chunks by
// checking whether shares of each chunk are already stored", Algorithm 2)
// and the lazy-migration path updates it when shares move.
//
// Entries are keyed by (chunk ID, storage class) — EncodingKey — because
// one chunk's content can be stored under several encodings at once (a hot
// and a cold copy mid lifecycle-demotion have different (t,n) and different
// share objects). The default class keys as the bare chunk ID, so pre-class
// state round-trips unchanged.
type ChunkTable struct {
	mu        sync.RWMutex
	chunks    map[string]*ChunkInfo
	ringEpoch uint64
}

// ChunkInfo is the stored state of one unique (chunk, encoding) pair.
type ChunkInfo struct {
	ID     string
	Class  string // storage class of this encoding ("" = default)
	Size   int64
	T, N   int
	CAS    bool           // shares are content-addressed (dedup mode)
	Shares map[int]string // share index -> CSP
	Refs   int            // referencing file versions

	// Referencers is the set of referencing version IDs — the per-share
	// refcount ground truth the dedup GC reconciles provider-side tokens
	// against. Entries recorded with no version known (versionID "")
	// are counted in Refs but absent here.
	Referencers map[string]bool
}

func (c *ChunkInfo) clone() *ChunkInfo {
	cp := *c
	cp.Shares = make(map[int]string, len(c.Shares))
	for k, v := range c.Shares {
		cp.Shares[k] = v
	}
	cp.Referencers = make(map[string]bool, len(c.Referencers))
	for v := range c.Referencers {
		cp.Referencers[v] = true
	}
	return &cp
}

// NewChunkTable returns an empty table.
func NewChunkTable() *ChunkTable {
	return &ChunkTable{chunks: make(map[string]*ChunkInfo)}
}

// LookupEnc returns a copy of the chunk's info under the given storage
// class, if stored. Dedup reuse is per encoding: a chunk stored hot is not
// "already stored" for a cold-class write. The copy leaves Referencers nil:
// the set grows with every version that references the chunk, the lookup
// paths read only the placement, and Referencers returns the set itself.
func (t *ChunkTable) LookupEnc(chunkID, class string) (*ChunkInfo, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, ok := t.chunks[EncodingKey(chunkID, class)]
	if !ok {
		return nil, false
	}
	cp := *c
	cp.Shares = maps.Clone(c.Shares)
	cp.Referencers = nil
	return &cp, true
}

// AddVersionRef records a (new or existing) chunk referenced by one more
// file version. For a new chunk the share locations must be supplied; for an
// existing one shares may be nil (locations are already known). The
// referencing version feeds the Referencers set the dedup GC uses to
// reconcile provider-side reference tokens; versionID may be empty when
// unknown. Re-adding a version already recorded is a no-op for the refcount.
func (t *ChunkTable) AddVersionRef(chunk ChunkRef, shares []ShareLoc, versionID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := chunk.EncodingKey()
	c, ok := t.chunks[key]
	if !ok {
		c = &ChunkInfo{
			ID: chunk.ID, Class: chunk.Class, Size: chunk.Size, T: chunk.T, N: chunk.N, CAS: chunk.CAS,
			Shares:      make(map[int]string),
			Referencers: make(map[string]bool),
		}
		t.chunks[key] = c
	}
	c.CAS = c.CAS || chunk.CAS
	for _, s := range shares {
		if s.ChunkID == chunk.ID {
			c.Shares[s.Index] = s.CSP
		}
	}
	if versionID != "" {
		if c.Referencers[versionID] {
			return
		}
		c.Referencers[versionID] = true
	}
	c.Refs++
}

// Referencers returns the version IDs recorded as referencing the chunk
// encoding (an EncodingKey, or a bare chunk ID for the default class),
// sorted; nil if the encoding is unknown.
func (t *ChunkTable) Referencers(encKey string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, ok := t.chunks[encKey]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(c.Referencers))
	for v := range c.Referencers {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Release decrements a chunk's reference count; at zero the entry is
// removed and its share locations returned so the caller may garbage
// collect the share objects. (CYRUS leaves shares of deleted files alone by
// default — other files may contain these chunks — but the table keeps the
// refcount so an explicit GC can act safely.)
func (t *ChunkTable) Release(encKey string) (removed []ShareLoc, gone bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.chunks[encKey]
	if !ok {
		return nil, false
	}
	c.Refs--
	if c.Refs > 0 {
		return nil, false
	}
	delete(t.chunks, encKey)
	for idx, cspName := range c.Shares {
		removed = append(removed, ShareLoc{ChunkID: c.ID, Index: idx, CSP: cspName})
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i].Index < removed[j].Index })
	return removed, true
}

// MoveShareEnc updates one share's location under the given storage class
// (lazy migration, paper §5.5).
func (t *ChunkTable) MoveShareEnc(chunkID, class string, index int, newCSP string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.chunks[EncodingKey(chunkID, class)]
	if !ok {
		return false
	}
	if _, ok := c.Shares[index]; !ok {
		return false
	}
	c.Shares[index] = newCSP
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
		for _, loc := range c.Shares {
			if loc == cspName && !seen[c.ID] {
				seen[c.ID] = true
				out = append(out, c.ID)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// SharesOnAll returns every encoding key in the table, sorted — the
// universe a garbage collector checks against the metadata tree. Default-
// class entries key as bare chunk IDs; use SplitEncodingKey to recover the
// (chunk ID, class) pair.
func (t *ChunkTable) SharesOnAll() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.chunks))
	for key := range t.chunks {
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

// Entries returns a copy of every (chunk, encoding) entry, sorted by
// encoding key — the iteration surface for GC and per-class accounting.
func (t *ChunkTable) Entries() []*ChunkInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	keys := make([]string, 0, len(t.chunks))
	for key := range t.chunks {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]*ChunkInfo, 0, len(keys))
	for _, key := range keys {
		out = append(out, t.chunks[key].clone())
	}
	return out
}

// Drop removes a chunk encoding unconditionally (garbage collection of
// orphans); unlike Release it ignores the reference count. The key is an
// EncodingKey (a bare chunk ID for the default class).
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

// TotalStoredBytes returns the total share bytes implied by the table:
// size/t per share times n shares per chunk (+ header overhead is ignored
// here; this is the dedup accounting figure).
func (t *ChunkTable) TotalStoredBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var total int64
	for _, c := range t.chunks {
		shareSize := (c.Size + int64(c.T) - 1) / int64(c.T)
		total += shareSize * int64(len(c.Shares))
	}
	return total
}

// SetRingEpoch records the hashring membership epoch the table's share and
// metadata placements were computed under. Sharded metadata placement bumps
// the epoch on every ring change; a persisted epoch older than the ring's
// tells the re-placement path which records may sit on stale shard sets.
func (t *ChunkTable) SetRingEpoch(epoch uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if epoch > t.ringEpoch {
		t.ringEpoch = epoch
	}
}

// RingEpoch returns the last recorded hashring membership epoch.
func (t *ChunkTable) RingEpoch() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ringEpoch
}

// Rebuild reconstructs the table from a set of metadata records (e.g. after
// recovering the tree from the cloud). Reference counts count referencing
// versions.
func (t *ChunkTable) Rebuild(records []*FileMeta) {
	t.mu.Lock()
	t.chunks = make(map[string]*ChunkInfo)
	t.mu.Unlock()
	for _, m := range records {
		for _, c := range m.Chunks {
			t.AddVersionRef(c, m.Shares, m.VersionID())
		}
	}
}
