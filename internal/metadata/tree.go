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
	roots    []string             // VersionIDs with PrevID == ""
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
	if m.File.PrevID == "" {
		t.roots = insertSorted(t.roots, id)
	} else {
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

// leavesOfLocked returns the leaf version IDs (no children) among the
// versions of the given file name, sorted. Caller holds t.mu.
func (t *Tree) leavesOfLocked(name string) []string {
	var leaves []string
	for _, id := range t.byName[name] {
		if len(t.children[id]) == 0 {
			leaves = append(leaves, id)
		}
	}
	return leaves
}

// Head returns the current version of a file: the winning leaf of its
// version tree. When several leaves exist (a conflict), the deterministic
// winner is the one with the latest Modified time, ties broken by version
// ID; conflicted reports whether other live leaves lost. Deleted heads are
// returned with their deletion marker set — callers decide how to treat
// deleted files.
func (t *Tree) Head(name string) (head Version, conflicted bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.headLocked(name)
}

func (t *Tree) headLocked(name string) (head Version, conflicted bool, err error) {
	leaves := t.leavesOfLocked(name)
	if len(leaves) == 0 {
		return Version{}, false, fmt.Errorf("%w: no versions of %q", ErrUnknownVersion, name)
	}
	// Live leaves win over deletion markers; only when every leaf is
	// deleted does Head return a deleted record.
	best, live := "", 0
	for _, id := range leaves {
		if !t.nodes[id].File.Deleted {
			live++
			if best == "" || t.laterLocked(id, best) {
				best = id
			}
		}
	}
	if live == 0 {
		for _, id := range leaves {
			if best == "" || t.laterLocked(id, best) {
				best = id
			}
		}
	}
	return Version{best, t.nodes[best]}, live > 1, nil
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
	// same name (two roots with one name).
	SameNameCreation ConflictType = iota
	// DivergentEdit: two clients edited the same parent version (a node
	// with multiple children).
	DivergentEdit
)

func (c ConflictType) String() string {
	if c == SameNameCreation {
		return "same-name-creation"
	}
	return "divergent-edit"
}

// Conflict is one detected conflict with the competing version IDs.
type Conflict struct {
	Type     ConflictType
	Name     string
	Versions []string // competing version IDs, sorted
}

// Conflicts scans the tree and returns all current conflicts,
// deterministically ordered. A conflict is current only while the
// competing versions are leaves (an edit on top of one side resolves it in
// that side's favor only if the other side is deleted or merged — matching
// the paper's "clients identify and resolve the resulting conflicts when
// downloading files").
func (t *Tree) Conflicts() []Conflict {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []Conflict

	// Type 1: multiple live roots sharing a file name.
	rootsByName := make(map[string][]string)
	for _, id := range t.roots {
		m := t.nodes[id]
		// The root subtree is live if any of its leaves is undeleted.
		if t.subtreeLiveLocked(id) {
			rootsByName[m.File.Name] = append(rootsByName[m.File.Name], id)
		}
	}
	for name, ids := range rootsByName {
		if len(ids) > 1 {
			sort.Strings(ids)
			out = append(out, Conflict{Type: SameNameCreation, Name: name, Versions: ids})
		}
	}

	// Type 2: any node with multiple live child branches.
	for parent, kids := range t.children {
		if len(kids) < 2 {
			continue
		}
		var live []string
		for _, k := range kids {
			if t.subtreeLiveLocked(k) {
				live = append(live, k)
			}
		}
		if len(live) > 1 {
			name := t.nodes[live[0]].File.Name
			_ = parent
			out = append(out, Conflict{Type: DivergentEdit, Name: name, Versions: live})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].Versions[0] < out[j].Versions[0]
	})
	return out
}

// subtreeLiveLocked reports whether any leaf under (and including) id is
// not deleted.
func (t *Tree) subtreeLiveLocked(id string) bool {
	kids := t.children[id]
	if len(kids) == 0 {
		return !t.nodes[id].File.Deleted
	}
	for _, k := range kids {
		if t.subtreeLiveLocked(k) {
			return true
		}
	}
	return false
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
