package metadata

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestTreeIndexAgreesWithScan drives a Tree through random histories — forks,
// deletion markers, records inserted before their parents, children of
// parents never synced and re-inserts of known IDs — and after every step
// checks Head, History, Names, Conflict and Conflicts against a reference that
// scans All(), the way the tree answered before it indexed nodes by name.
func TestTreeIndexAgreesWithScan(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		driveTree(t, rng.Intn, 60, fmt.Sprintf("seed %d", seed))
	}
}

// FuzzTreeAgainstScan is TestTreeIndexAgreesWithScan with the history picked
// by the fuzz bytes, one byte per choice (seeds under
// testdata/fuzz/FuzzTreeAgainstScan).
func FuzzTreeAgainstScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		choose := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		// Three choices make a typical step; the cap bounds the scan's cost.
		driveTree(t, choose, min(len(data)/3, 64), "fuzz")
	})
}

// driveTree grows a Tree for steps steps, each picked by choose (which
// returns a value in [0, n)), and checks it against the scan after every
// step.
func driveTree(t *testing.T, choose func(n int) int, steps int, label string) {
	t.Helper()
	tr := NewTree()
	var made []*FileMeta // every record built, inserted or not
	var held []*FileMeta // built but not yet inserted (out of order)
	base := time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)
	names := []string{"a", "b/c", "d"}
	for step := 0; step < steps; step++ {
		switch op := choose(10); {
		case op < 6 || len(made) == 0:
			// A new root, a child of a parent never built, or an edit or
			// deletion marker on a random earlier record (a fork when that
			// record has a child).
			name, prev, deleted := names[choose(len(names))], "", false
			switch k := choose(8); {
			case len(made) > 0 && k >= 2:
				parent := made[choose(len(made))]
				name, prev, deleted = parent.File.Name, parent.VersionID(), choose(4) == 0
			case k == 1:
				prev = HashData([]byte(fmt.Sprintf("unsynced-%d", choose(4))))
			}
			m := buildMeta(name, fmt.Sprintf("%s-%d", label, step), prev, []string{"alice", "bob"}[choose(2)],
				deleted, base.Add(time.Duration(choose(40))*time.Second), 2, 3, int64(1+choose(64)))
			if deleted {
				m.Chunks, m.Shares, m.File.Size = nil, nil, 0
			}
			made = append(made, m)
			if choose(3) == 0 {
				held = append(held, m)
				continue
			}
			mustInsert(t, tr, m)
		case op < 8 && len(held) > 0:
			i := choose(len(held))
			mustInsert(t, tr, held[i])
			held = slices.Delete(held, i, i+1)
		default:
			// Re-insert anything built so far: a no-op for a known ID.
			m := made[choose(len(made))]
			known, n := tr.Has(m.VersionID()), tr.Len()
			added, err := tr.Insert(m)
			if err != nil || added == known {
				t.Fatalf("insert: added=%v known=%v err=%v", added, known, err)
			}
			if known && tr.Len() != n {
				t.Fatal("re-insert changed Len")
			}
		}
		checkTreeAgainstScan(t, tr, fmt.Sprintf("%s step %d", label, step))
	}
}

func checkTreeAgainstScan(t *testing.T, tr *Tree, at string) {
	t.Helper()
	all := tr.All()
	ids := make(map[*FileMeta]string, len(all))
	byID := make(map[string]*FileMeta, len(all))
	children := make(map[string][]string)
	nameSet := map[string]bool{}
	for _, m := range all {
		id := m.VersionID()
		ids[m], byID[id] = id, m
		nameSet[m.File.Name] = true
		if m.File.PrevID != "" {
			children[m.File.PrevID] = append(children[m.File.PrevID], id)
		}
	}
	var wantNames []string
	for n := range nameSet {
		wantNames = append(wantNames, n)
	}
	sort.Strings(wantNames)
	if got := tr.Names(); !slices.Equal(got, wantNames) {
		t.Fatalf("%s: Names = %v, scan %v", at, got, wantNames)
	}

	// origin is where a version's known ancestry starts: its root, or its
	// first ancestor not yet synced.
	origin := func(id string) string {
		for {
			prev := byID[id].File.PrevID
			if prev == "" {
				return id
			}
			if byID[prev] == nil {
				return prev
			}
			id = prev
		}
	}
	later := func(a, b string) bool {
		ma, mb := byID[a], byID[b]
		if !ma.File.Modified.Equal(mb.File.Modified) {
			return ma.File.Modified.After(mb.File.Modified)
		}
		return a > b
	}
	var wantConflicts []Conflict
	for _, name := range append(wantNames, "never-written") {
		var leaves, liveLeaves []string
		for _, m := range all {
			if id := ids[m]; m.File.Name == name && len(children[id]) == 0 {
				leaves = append(leaves, id)
				if !m.File.Deleted {
					liveLeaves = append(liveLeaves, id)
				}
			}
		}
		head, conflicted, err := tr.Head(name)
		if len(leaves) == 0 {
			if err == nil {
				t.Fatalf("%s: Head(%q) found %s, scan finds no leaf", at, name, head.ID)
			}
			continue
		}
		pool := liveLeaves
		if len(pool) == 0 {
			pool = leaves
		}
		best := pool[0]
		for _, id := range pool[1:] {
			if later(id, best) {
				best = id
			}
		}
		if err != nil || head.ID != best || head.FileMeta != byID[best] || !head.IsVersion(head.ID) || conflicted != (len(liveLeaves) > 1) {
			t.Fatalf("%s: Head(%q) = %s conflicted=%v err=%v, scan %s conflicted=%v", at, name, head.ID, conflicted, err, best, len(liveLeaves) > 1)
		}
		var want Conflict
		if len(liveLeaves) > 1 {
			sort.Strings(liveLeaves)
			origins := map[string]bool{}
			for _, id := range liveLeaves {
				origins[origin(id)] = true
			}
			want = Conflict{Type: DivergentEdit, Name: name, Versions: liveLeaves}
			if len(origins) > 1 {
				want.Type = SameNameCreation
			}
			wantConflicts = append(wantConflicts, want)
		}
		if got, ok := tr.Conflict(name); ok != conflicted || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Conflict(%q) = %v, %v; Head conflicted=%v, scan %v", at, name, got, ok, conflicted, want)
		}
		if conflicted {
			checkSettles(t, all, want, at)
		}
		var wantHist []string
		for id := best; id != ""; id = byID[id].File.PrevID {
			wantHist = append(wantHist, id)
			if byID[byID[id].File.PrevID] == nil {
				break
			}
		}
		hist, err := tr.History(name)
		if err != nil || len(hist) != len(wantHist) {
			t.Fatalf("%s: History(%q) = %d versions (%v), scan %d", at, name, len(hist), err, len(wantHist))
		}
		for i, v := range hist {
			if v.ID != wantHist[i] || v.FileMeta != byID[v.ID] {
				t.Fatalf("%s: History(%q)[%d] = %s, scan %s", at, name, i, v.ID, wantHist[i])
			}
		}
	}

	if got := tr.Conflicts(); !reflect.DeepEqual(got, wantConflicts) {
		t.Fatalf("%s: Conflicts = %v, scan %v", at, got, wantConflicts)
	}
}

// checkSettles supersedes every live leaf of the conflict but one with a
// deletion marker, in a copy of the tree, for each choice of the one: the
// name must then be unconflicted with that leaf as its head.
func checkSettles(t *testing.T, all []*FileMeta, cf Conflict, at string) {
	t.Helper()
	for _, winner := range cf.Versions {
		cp := NewTree()
		for _, m := range all {
			cp.InsertVerified(m, m.VersionID())
		}
		for _, id := range cf.Versions {
			if id != winner {
				mustInsert(t, cp, buildMeta(cf.Name, "settle-"+id, id, "resolver", true, time.Time{}, 2, 3))
			}
		}
		if got, ok := cp.Conflict(cf.Name); ok {
			t.Fatalf("%s: %q still conflicted after settling on %s: %v", at, cf.Name, winner, got)
		}
		if head, conflicted, err := cp.Head(cf.Name); err != nil || conflicted || head.ID != winner {
			t.Fatalf("%s: settled %q on %s, Head = %s conflicted=%v err=%v", at, cf.Name, winner, head.ID, conflicted, err)
		}
	}
}
