package selector

import (
	"testing"
)

func restrictedInstance() Instance {
	return Instance{
		T: 2,
		Chunks: []Chunk{
			{ID: "c1", ShareSize: 100, StoredOn: []string{"a", "b", "x", "y"}},
			{ID: "c2", ShareSize: 100, StoredOn: []string{"a", "x", "y"}},
		},
		LinkBps: map[string]float64{"a": 1e6, "b": 1e6, "x": 1e9, "y": 1e9},
	}
}

// TestRestrictedPrefersAllowedSet checks the class subset wins even when
// out-of-class sources are faster.
func TestRestrictedPrefersAllowedSet(t *testing.T) {
	in := restrictedInstance()
	s := Restricted{Allowed: map[string]map[string]bool{
		"c1": {"a": true, "b": true},
	}}
	a, err := s.Select(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.Pick["c1"] {
		if c != "a" && c != "b" {
			t.Fatalf("c1 picked out-of-class source %s: %v", c, a.Pick["c1"])
		}
	}
	// c2 is unrestricted: the fast sources are fine.
	if len(a.Pick["c2"]) != 2 {
		t.Fatalf("c2 pick: %v", a.Pick["c2"])
	}
}

// TestRestrictedFallsBackBelowT checks a degraded class subset never makes
// a chunk infeasible: with < T allowed holders the full source list stays.
func TestRestrictedFallsBackBelowT(t *testing.T) {
	in := restrictedInstance()
	s := Restricted{Allowed: map[string]map[string]bool{
		"c1": {"a": true}, // only one in-class holder, T=2
	}}
	a, err := s.Select(in)
	if err != nil {
		t.Fatalf("restriction below T must not fail: %v", err)
	}
	if len(a.Pick["c1"]) != 2 {
		t.Fatalf("c1 pick: %v", a.Pick["c1"])
	}
}

// TestRestrictedComposesWithInner checks the wrapper delegates to the
// inner selector it is given and still respects the class subset.
func TestRestrictedComposesWithInner(t *testing.T) {
	in := restrictedInstance()
	s := Restricted{
		Allowed: map[string]map[string]bool{"c1": {"a": true, "b": true}},
		Inner:   Greedy{},
	}
	a, err := s.Select(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.Pick["c1"] {
		if c != "a" && c != "b" {
			t.Fatalf("c1 picked out-of-class source %s: %v", c, a.Pick["c1"])
		}
	}
	if s.Name() != "restricted+greedy" {
		t.Fatalf("Name() = %q", s.Name())
	}
}

// TestRestrictedNoAllowedMap is the identity case.
func TestRestrictedNoAllowedMap(t *testing.T) {
	in := restrictedInstance()
	want, err := (Optimized{}).Select(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (Restricted{}).Select(in)
	if err != nil {
		t.Fatal(err)
	}
	for id := range want.Pick {
		if len(got.Pick[id]) != len(want.Pick[id]) {
			t.Fatalf("identity mismatch for %s: %v vs %v", id, got.Pick[id], want.Pick[id])
		}
	}
}
