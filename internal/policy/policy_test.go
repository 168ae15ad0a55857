package policy

import (
	"strings"
	"testing"
	"time"
)

func testClasses() []Class {
	return []Class{
		{Name: "hot", Tier: TierHot, T: 2, N: 4, CSPs: []string{"a", "b", "c", "d"},
			DemoteAfter: time.Hour, DemoteTo: "cold"},
		{Name: "cold", Tier: TierCold, T: 3, N: 8},
		{Name: "meta-dedicated", MetaCSPs: []string{"a", "b"}},
	}
}

func TestResolvePrecedence(t *testing.T) {
	rules := []Rule{
		{Prefix: "logs/", Class: "cold"},
		{Prefix: "logs/urgent/", Class: "hot"},
		{Prefix: "tmp/", Class: ""},
	}
	e, err := NewEngine(testClasses(), rules, "hot")
	if err != nil {
		t.Fatal(err)
	}

	// Override beats everything.
	c, err := e.Resolve("logs/app.log", "cold")
	if err != nil || c.Name != "cold" {
		t.Fatalf("override: got %q, %v", c.Name, err)
	}
	// Longest prefix wins over shorter.
	c, _ = e.Resolve("logs/urgent/now.log", "")
	if c.Name != "hot" {
		t.Fatalf("longest prefix: got %q, want hot", c.Name)
	}
	c, _ = e.Resolve("logs/app.log", "")
	if c.Name != "cold" {
		t.Fatalf("prefix: got %q, want cold", c.Name)
	}
	// A rule can route to the default class explicitly.
	c, _ = e.Resolve("tmp/x", "")
	if c.Name != "" {
		t.Fatalf("rule to default: got %q, want \"\"", c.Name)
	}
	// No rule: the configured default applies.
	c, _ = e.Resolve("photo.jpg", "")
	if c.Name != "hot" {
		t.Fatalf("default: got %q, want hot", c.Name)
	}
	// Unknown override is an error, never a silent fallback.
	if _, err := e.Resolve("x", "nope"); err == nil {
		t.Fatal("unknown override must error")
	}
}

func TestResolveNilAndEmptyEngine(t *testing.T) {
	// A nil engine (no classes configured) resolves everything to the
	// implicit default class — the pre-class behavior.
	var e *Engine
	c, err := e.Resolve("anything", "")
	if err != nil || c.Name != "" {
		t.Fatalf("nil engine: got %q, %v", c.Name, err)
	}
	if _, err := e.Resolve("anything", "hot"); err == nil {
		t.Fatal("nil engine must reject overrides")
	}

	e2, err := NewEngine(nil, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	c, err = e2.Resolve("anything", "")
	if err != nil || c.Name != "" {
		t.Fatalf("empty engine: got %q, %v", c.Name, err)
	}
}

func TestEngineValidation(t *testing.T) {
	cases := []struct {
		name    string
		classes []Class
		rules   []Rule
		def     string
		wantErr string
	}{
		{"reserved name", []Class{{Name: ""}}, nil, "", "reserved"},
		{"duplicate", []Class{{Name: "x"}, {Name: "x"}}, nil, "", "duplicate"},
		{"bad tier", []Class{{Name: "x", Tier: "warm"}}, nil, "", "tier"},
		{"bad tn", []Class{{Name: "x", T: 3, N: 2}}, nil, "", "(t,n)"},
		{"demote unknown", []Class{{Name: "x", DemoteAfter: time.Hour, DemoteTo: "y"}}, nil, "", "unknown class"},
		{"demote self", []Class{{Name: "x", DemoteAfter: time.Hour, DemoteTo: "x"}}, nil, "", "itself"},
		{"demote cycle of two", []Class{
			{Name: "a", DemoteAfter: time.Hour, DemoteTo: "b"},
			{Name: "b", DemoteAfter: time.Hour, DemoteTo: "a"},
		}, nil, "", "demotion cycle"},
		{"demote cycle of three", []Class{
			{Name: "a", DemoteAfter: time.Hour, DemoteTo: "b"},
			{Name: "b", DemoteAfter: time.Hour, DemoteTo: "c"},
			{Name: "c", DemoteAfter: time.Hour, DemoteTo: "a"},
		}, nil, "", "demotion cycle"},
		{"demote into a cycle", []Class{
			{Name: "hot", DemoteAfter: time.Hour, DemoteTo: "a"},
			{Name: "a", DemoteAfter: time.Hour, DemoteTo: "b"},
			{Name: "b", DemoteAfter: time.Hour, DemoteTo: "a"},
		}, nil, "", "demotion cycle"},
		{"demote no target", []Class{{Name: "x", DemoteAfter: time.Hour}}, nil, "", "DemoteTo"},
		{"rule unknown class", nil, []Rule{{Prefix: "a/", Class: "x"}}, "", "unknown class"},
		{"rule empty prefix", nil, []Rule{{Prefix: "", Class: ""}}, "", "empty prefix"},
		{"default unknown", nil, nil, "x", "not configured"},
	}
	for _, tc := range cases {
		_, err := NewEngine(tc.classes, tc.rules, tc.def)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
	// A chain that ends is no cycle.
	chain := []Class{
		{Name: "hot", DemoteAfter: time.Hour, DemoteTo: "warm"},
		{Name: "warm", DemoteAfter: time.Hour, DemoteTo: "cold"},
		{Name: "cold"},
	}
	if _, err := NewEngine(chain, nil, ""); err != nil {
		t.Errorf("hot -> warm -> cold: %v", err)
	}
}

func TestClassesSortedAndDefaultClass(t *testing.T) {
	e, err := NewEngine(testClasses(), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	got := e.Classes()
	if len(got) != 3 || got[0].Name != "cold" || got[1].Name != "hot" || got[2].Name != "meta-dedicated" {
		t.Fatalf("Classes() order: %v", got)
	}
	// The default tier is filled in.
	if got[2].Tier != TierHot {
		t.Fatalf("default tier not applied: %q", got[2].Tier)
	}
	// The "" class is always resolvable and hot-tier.
	c, ok := e.Class("")
	if !ok || c.Tier != TierHot || c.Name != "" {
		t.Fatalf("default Class() = %+v, %v", c, ok)
	}
}
