package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The driver refuses a manifest outside its limits before a single run
// (the previous attempt at this benchmark died that way), so the limits
// are checked here, field for field.
func TestManifestMatchesRegistryAndContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields() // the contract defines exactly these keys
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	// One Go table is the source of truth: the file must be what
	// `go run . manifest` prints.
	want, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the registry; regenerate with `go run . manifest > ../BENCHMARK.json`\nfile:     %s\nregistry: %s", got, want)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if len(m.Command) == 0 || len(m.Command) > 32 {
		t.Errorf("command has %d strings", len(m.Command))
	}
	for _, c := range m.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	// 4 + 22 x workloads runs plus two builds must end within 3420 s. A run
	// overshoots run_seconds by at most half a round and the no-op rebuild
	// (4 s together); a cold build takes ~20 s here, budgeted at 120 s.
	if runs := 4 + 22*len(m.Workloads); runs*(m.RunSeconds+4)+2*120 > 3420 {
		t.Errorf("%d runs x (%d+4) s + two builds exceed 3420 s", runs, m.RunSeconds)
	}

	if len(m.Workloads) != 4 {
		t.Errorf("%d workloads, want 4", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
		if workloadImpl[w.Name] == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
	if len(workloadImpl) != len(m.Workloads) {
		t.Errorf("%d workloads implemented, %d declared", len(workloadImpl), len(m.Workloads))
	}

	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, e := range m.EndToEnd {
		name(e.Name)
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q", e.Name, e.Unit)
		}
		if e.Better != lower && e.Better != higher {
			t.Errorf("%s: better %q", e.Name, e.Better)
		}
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("%s: bound %v must be in (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == lower
		}
	}
	if !setup {
		t.Error(`end_to_end needs setup_s with unit "s" and better "lower"`)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, p := range m.PerLayer {
		name(p.Name)
		if !unitRE.MatchString(p.Unit) {
			t.Errorf("%s: unit %q", p.Name, p.Unit)
		}
		if p.Better != lower && p.Better != higher {
			t.Errorf("%s: better %q", p.Name, p.Better)
		}
		if p.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", p.Name)
		}
	}
}
