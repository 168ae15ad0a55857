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
// deletion markers, records inserted before their parents and re-inserts of
// known IDs — and after every step
// checks Head, History, Names and Conflicts against a reference that scans
// All(), the way the tree answered before it indexed nodes by name.
func TestTreeIndexAgreesWithScan(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree()
		var made []*FileMeta // every record built, inserted or not
		var held []*FileMeta // built but not yet inserted (out of order)
		base := time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC)
		names := []string{"a", "b/c", "d"}
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 6 || len(made) == 0:
				// A new root, or an edit or deletion marker on a random
				// earlier record (a fork when that record has a child).
				name, prev, deleted := names[rng.Intn(len(names))], "", false
				if len(made) > 0 && rng.Intn(4) != 0 {
					parent := made[rng.Intn(len(made))]
					name, prev, deleted = parent.File.Name, parent.VersionID(), rng.Intn(4) == 0
				}
				m := buildMeta(name, fmt.Sprintf("s%d-%d", seed, step), prev, []string{"alice", "bob"}[rng.Intn(2)],
					deleted, base.Add(time.Duration(rng.Intn(40))*time.Second), 2, 3, int64(1+rng.Intn(64)))
				if deleted {
					m.Chunks, m.Shares, m.File.Size = nil, nil, 0
				}
				made = append(made, m)
				if rng.Intn(3) == 0 {
					held = append(held, m)
					continue
				}
				mustInsert(t, tr, m)
			case op < 8 && len(held) > 0:
				i := rng.Intn(len(held))
				mustInsert(t, tr, held[i])
				held = slices.Delete(held, i, i+1)
			default:
				// Re-insert anything built so far: a no-op for a known ID.
				m := made[rng.Intn(len(made))]
				known, n := tr.Has(m.VersionID()), tr.Len()
				added, err := tr.Insert(m)
				if err != nil || added == known {
					t.Fatalf("insert: added=%v known=%v err=%v", added, known, err)
				}
				if known && tr.Len() != n {
					t.Fatal("re-insert changed Len")
				}
			}
			checkTreeAgainstScan(t, tr, fmt.Sprintf("seed %d step %d", seed, step))
		}
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

	var live func(id string) bool
	live = func(id string) bool {
		if len(children[id]) == 0 {
			return !byID[id].File.Deleted
		}
		return slices.ContainsFunc(children[id], live)
	}
	later := func(a, b string) bool {
		ma, mb := byID[a], byID[b]
		if !ma.File.Modified.Equal(mb.File.Modified) {
			return ma.File.Modified.After(mb.File.Modified)
		}
		return a > b
	}
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

	var want []Conflict
	roots := map[string][]string{}
	for _, m := range all {
		if id := ids[m]; m.File.PrevID == "" && live(id) {
			roots[m.File.Name] = append(roots[m.File.Name], id)
		}
	}
	for name, rs := range roots {
		if len(rs) > 1 {
			sort.Strings(rs)
			want = append(want, Conflict{Type: SameNameCreation, Name: name, Versions: rs})
		}
	}
	for _, kids := range children {
		var lv []string
		for _, k := range kids {
			if live(k) {
				lv = append(lv, k)
			}
		}
		if len(lv) > 1 {
			sort.Strings(lv)
			want = append(want, Conflict{Type: DivergentEdit, Name: byID[lv[0]].File.Name, Versions: lv})
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Name != want[j].Name {
			return want[i].Name < want[j].Name
		}
		if want[i].Type != want[j].Type {
			return want[i].Type < want[j].Type
		}
		return want[i].Versions[0] < want[j].Versions[0]
	})
	if got := tr.Conflicts(); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
		t.Fatalf("%s: Conflicts = %v, scan %v", at, got, want)
	}
}
