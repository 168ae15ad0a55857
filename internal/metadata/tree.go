package metadata

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Tree is the logical metadata tree (Figure 6): a dummy root whose
// first-level children are new files and whose deeper levels are sequential
// versions. Each client maintains a local Tree and merges records listed
// from the metadata CSPs into it; Insert is idempotent and commutative, so
// replicas converge regardless of sync order. The tree only grows: the
// paper keeps every version (a delete is a marker record), and nothing is
// ever removed, so every device lists and can read the same history.
//
// Nodes are indexed by file name as well as by version ID, so a name's head
// and history cost O(versions of that name) and Names costs O(names), however
// large the namespace.
type Tree struct {
	mu       sync.RWMutex
	nodes    map[string]*FileMeta // by VersionID
	children map[string][]string  // VersionID -> child VersionIDs (sorted)
	byName   map[string][]string  // file name -> its VersionIDs (sorted)
	names    []string             // the keys of byName, sorted
}

// Version is a record of the tree with the version ID it is held under.
type Version struct {
	ID string
	*FileMeta
}

// NewTree returns an empty tree.
func NewTree() *Tree {
	return &Tree{
		nodes:    make(map[string]*FileMeta),
		children: make(map[string][]string),
		byName:   make(map[string][]string),
	}
}

// ErrUnknownVersion is returned when a version ID is not in the tree.
var ErrUnknownVersion = errors.New("metadata: unknown version")

// Insert merges a record into the tree, reporting whether it was new.
// Inserting an already-known version is a no-op; records are validated.
// The parent need not be present yet (records can arrive in any order).
func (t *Tree) Insert(m *FileMeta) (added bool, err error) {
	if err := m.Validate(); err != nil {
		return false, err
	}
	return t.InsertVerified(m, m.VersionID()), nil
}

// InsertVerified is Insert for a record the caller has already validated and
// whose version ID it has already computed — Decode validates, and a reader
// that found the record under id checked it with IsVersion — so neither is
// done a second time.
func (t *Tree) InsertVerified(m *FileMeta, id string) (added bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.nodes[id]; ok {
		return false
	}
	cp := *m
	cp.Chunks = slices.Clone(m.Chunks)
	cp.Shares = slices.Clone(m.Shares)
	t.nodes[id] = &cp
	if m.File.PrevID != "" {
		t.children[m.File.PrevID] = insertSorted(t.children[m.File.PrevID], id)
	}
	name := m.File.Name
	if _, known := t.byName[name]; !known {
		t.names = insertSorted(t.names, name)
	}
	t.byName[name] = insertSorted(t.byName[name], id)
	return true
}

// All returns every record in the tree (copies of the tree's own records
// are NOT made; callers must not mutate them), sorted by version ID.
func (t *Tree) All() []*FileMeta {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ids := make([]string, 0, len(t.nodes))
	for id := range t.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*FileMeta, 0, len(ids))
	for _, id := range ids {
		out = append(out, t.nodes[id])
	}
	return out
}

func insertSorted(s []string, v string) []string {
	i := sort.SearchStrings(s, v)
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Get returns the record for a version ID.
func (t *Tree) Get(versionID string) (*FileMeta, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	m, ok := t.nodes[versionID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownVersion, versionID)
	}
	return m, nil
}

// Has reports whether a version is known.
func (t *Tree) Has(versionID string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.nodes[versionID]
	return ok
}

// Len returns the number of version nodes.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.nodes)
}

// VersionIDs returns all known version IDs, sorted.
func (t *Tree) VersionIDs() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.nodes))
	for id := range t.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Names returns the distinct file names present in the tree, sorted.
func (t *Tree) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return slices.Clone(t.names)
}

// leavesLocked splits the leaf versions (no children) of a file name into
// live ones and deletion markers, each sorted. This is the one rule for
// "conflicted": a name is in conflict exactly when it has two or more live
// leaves. Caller holds t.mu.
func (t *Tree) leavesLocked(name string) (live, deleted []string) {
	for _, id := range t.byName[name] {
		switch {
		case len(t.children[id]) > 0:
		case t.nodes[id].File.Deleted:
			deleted = append(deleted, id)
		default:
			live = append(live, id)
		}
	}
	return live, deleted
}

// Head returns the current version of a file: the winning leaf of its
// version tree. When several live leaves exist (a conflict), the
// deterministic winner is the one with the latest Modified time, ties broken
// by version ID; conflicted reports whether other live leaves lost. Deleted
// heads are returned with their deletion marker set — callers decide how to
// treat deleted files.
func (t *Tree) Head(name string) (head Version, conflicted bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.headLocked(name)
}

func (t *Tree) headLocked(name string) (head Version, conflicted bool, err error) {
	// Live leaves win over deletion markers; only when every leaf is
	// deleted does Head return a deleted record.
	live, deleted := t.leavesLocked(name)
	pool := live
	if len(pool) == 0 {
		pool = deleted
	}
	if len(pool) == 0 {
		return Version{}, false, fmt.Errorf("%w: no versions of %q", ErrUnknownVersion, name)
	}
	best := pool[0]
	for _, id := range pool[1:] {
		if t.laterLocked(id, best) {
			best = id
		}
	}
	return Version{best, t.nodes[best]}, len(live) > 1, nil
}

// laterLocked reports whether version a is strictly later than b for
// head-selection purposes.
func (t *Tree) laterLocked(a, b string) bool {
	ma, mb := t.nodes[a], t.nodes[b]
	if !ma.File.Modified.Equal(mb.File.Modified) {
		return ma.File.Modified.After(mb.File.Modified)
	}
	return a > b
}

// History returns the version chain of a file from its head back to the
// root (head first). Missing ancestors (not yet synced) terminate the walk.
func (t *Tree) History(name string) ([]Version, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	head, _, err := t.headLocked(name)
	if err != nil {
		return nil, err
	}
	out := []Version{head}
	for cur := head; cur.File.PrevID != ""; {
		// PrevID refers to the parent's VersionID.
		parent, ok := t.nodes[cur.File.PrevID]
		if !ok {
			break
		}
		cur = Version{cur.File.PrevID, parent}
		out = append(out, cur)
	}
	return out, nil
}

// ConflictType distinguishes the paper's two conflict classes (Figure 8).
type ConflictType int

// Conflict classes.
const (
	// SameNameCreation: two clients independently created files with the
	// same name (the live leaves descend from more than one origin).
	SameNameCreation ConflictType = iota
	// DivergentEdit: two clients edited the same history (the live leaves
	// share one origin).
	DivergentEdit
)

func (c ConflictType) String() string {
	if c == SameNameCreation {
		return "same-name-creation"
	}
	return "divergent-edit"
}

// Conflict is one conflicted name with its competing live leaves.
type Conflict struct {
	Type     ConflictType
	Name     string
	Versions []string // the name's live leaves, sorted
}

// Conflict returns the name's conflict: its live leaves, present exactly when
// there are two or more of them (when Head reports conflicted). Superseding
// every listed leaf but one with a deletion marker settles it. It reads only
// the name's versions (its leaves and their ancestors), not the whole tree.
func (t *Tree) Conflict(name string) (Conflict, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.conflictLocked(name)
}

func (t *Tree) conflictLocked(name string) (Conflict, bool) {
	live, _ := t.leavesLocked(name)
	if len(live) < 2 {
		return Conflict{}, false
	}
	origins := make(map[string]bool, len(live))
	for _, id := range live {
		origins[t.originLocked(id)] = true
	}
	typ := DivergentEdit
	if len(origins) > 1 {
		typ = SameNameCreation
	}
	return Conflict{Type: typ, Name: name, Versions: live}, true
}

// originLocked returns where a version's known ancestry starts: the root it
// descends from, or the ID of its first ancestor not yet synced (so a
// conflict classifies the same before and after an out-of-order sync fills
// the gap below a fork).
func (t *Tree) originLocked(id string) string {
	for {
		prev := t.nodes[id].File.PrevID
		if prev == "" {
			return id
		}
		if _, synced := t.nodes[prev]; !synced {
			return prev
		}
		id = prev
	}
}

// Conflicts returns every conflicted name's Conflict, sorted by name.
func (t *Tree) Conflicts() []Conflict {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []Conflict
	for _, name := range t.names {
		if cf, ok := t.conflictLocked(name); ok {
			out = append(out, cf)
		}
	}
	return out
}

// Missing returns, among the given version IDs, those not yet in the tree —
// the sync service uses it to decide which metadata objects to download.
func (t *Tree) Missing(versionIDs []string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []string
	for _, id := range versionIDs {
		if _, ok := t.nodes[id]; !ok {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
