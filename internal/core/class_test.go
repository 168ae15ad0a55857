package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metadata"
	"repro/internal/policy"
)

// classConfig wires a two-class setup onto a testEnv client: a hot class
// pinned to the first three providers at (2,3) and a cold class pinned to
// the last three at (3,3), with logs/ routed cold by rule.
func classConfig(cfg *Config) {
	cfg.N = 3
	cfg.Classes = []policy.Class{
		{Name: "hot", Tier: policy.TierHot, T: 2, N: 3, CSPs: []string{"cspa", "cspb", "cspc"}},
		{Name: "cold", Tier: policy.TierCold, T: 3, N: 3, CSPs: []string{"cspd", "cspe", "cspf"}},
	}
	cfg.ClassRules = []policy.Rule{{Prefix: "logs/", Class: "cold"}}
	cfg.DefaultClass = "hot"
}

func headOf(t *testing.T, c *Client, name string) *metadata.FileMeta {
	t.Helper()
	head, _, err := c.tree.Head(name)
	if err != nil {
		t.Fatal(err)
	}
	return head
}

func TestClassRoutingAndPlacement(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 6)
	c := env.client("alice", classConfig)

	if err := c.Put(bg, "docs/a.txt", randData(1, 9_000)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(bg, "logs/app.log", randData(2, 9_000)); err != nil {
		t.Fatal(err)
	}

	hot := headOf(t, c, "docs/a.txt")
	for _, ref := range hot.Chunks {
		if ref.Class != "hot" || ref.T != 2 || ref.N != 3 {
			t.Fatalf("docs chunk = %+v", ref)
		}
	}
	cold := headOf(t, c, "logs/app.log")
	for _, ref := range cold.Chunks {
		if ref.Class != "cold" || ref.T != 3 || ref.N != 3 {
			t.Fatalf("logs chunk = %+v", ref)
		}
	}
	// Placement honors each class's CSP subset (all subset providers are
	// healthy, so nothing spills).
	hotSet := map[string]bool{"cspa": true, "cspb": true, "cspc": true}
	for _, loc := range hot.Shares {
		if !hotSet[loc.CSP] {
			t.Fatalf("hot share on out-of-class provider %s", loc.CSP)
		}
	}
	coldSet := map[string]bool{"cspd": true, "cspe": true, "cspf": true}
	for _, loc := range cold.Shares {
		if !coldSet[loc.CSP] {
			t.Fatalf("cold share on out-of-class provider %s", loc.CSP)
		}
	}

	// Both read back.
	for _, name := range []string{"docs/a.txt", "logs/app.log"} {
		if _, _, err := c.Get(bg, name); err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
	}

	stats := c.ClassStats()
	if stats["hot"].Objects != 1 || stats["cold"].Objects != 1 {
		t.Fatalf("class stats = %+v", stats)
	}
}

func TestClassOverride(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 6)
	c := env.client("alice", classConfig)

	// Override beats the rule: a logs/ name forced hot.
	if err := c.PutReaderWith(bg, "logs/pinned.log", bytes.NewReader(randData(3, 4_000)), PutOptions{Class: "hot"}); err != nil {
		t.Fatal(err)
	}
	head := headOf(t, c, "logs/pinned.log")
	for _, ref := range head.Chunks {
		if ref.Class != "hot" {
			t.Fatalf("override ignored: %+v", ref)
		}
	}
	// Unknown override is an error, not a silent fallback.
	err := c.PutReaderWith(bg, "x", strings.NewReader("data"), PutOptions{Class: "glacial"})
	if err == nil || !strings.Contains(err.Error(), "glacial") {
		t.Fatalf("err = %v", err)
	}
}

func TestLegacyRecordsInterop(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 6)
	// A pre-class client writes...
	legacy := env.client("old-laptop", nil)
	data := randData(4, 12_000)
	if err := legacy.Put(bg, "docs/old.bin", data); err != nil {
		t.Fatal(err)
	}
	// ...and a class-configured client (default hot) reads it unchanged:
	// legacy chunks carry class "" and gather without class restriction.
	fresh := env.client("new-laptop", classConfig)
	got, _, err := fresh.Get(bg, "docs/old.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("legacy read-back mismatch")
	}
	head := headOf(t, fresh, "docs/old.bin")
	for _, ref := range head.Chunks {
		if ref.Class != "" {
			t.Fatalf("legacy chunk gained a class: %+v", ref)
		}
	}
	// And the classless record counts under the default-class bucket.
	stats := fresh.ClassStats()
	if stats[""].Objects != 1 {
		t.Fatalf("class stats = %+v", stats)
	}
}

func TestReencodeClassDemotion(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 6)
	c := env.client("alice", classConfig)
	data := randData(5, 20_000)
	if err := c.Put(bg, "docs/aging.bin", data); err != nil {
		t.Fatal(err)
	}
	oldHead := headOf(t, c, "docs/aging.bin")

	changed, err := c.ReencodeClass(bg, "docs/aging.bin", "cold")
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("demotion reported no-op")
	}

	// New head: same content ID, cold class and (3,3), parent = old head.
	head := headOf(t, c, "docs/aging.bin")
	if head.File.ID != oldHead.File.ID || head.File.PrevID != oldHead.VersionID() {
		t.Fatalf("head lineage broken: %+v", head.File)
	}
	for _, ref := range head.Chunks {
		if ref.Class != "cold" || ref.T != 3 {
			t.Fatalf("chunk not demoted: %+v", ref)
		}
	}

	// Byte-identical read-back post-demotion...
	got, _, err := c.Get(bg, "docs/aging.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-demotion mismatch")
	}
	// ...and the pre-demotion version still resolves: source copies are
	// never deleted, so mid-transition readers holding the old head lose
	// nothing.
	old, _, err := getVersion(bg, c, "docs/aging.bin", oldHead.VersionID())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, data) {
		t.Fatal("pre-demotion version mismatch")
	}

	// Idempotent: already cold.
	changed, err = c.ReencodeClass(bg, "docs/aging.bin", "cold")
	if err != nil || changed {
		t.Fatalf("second demotion: changed=%v err=%v", changed, err)
	}

	// A second client syncing from the cloud sees the demoted head and
	// reads it back through the cold encoding.
	peer := env.client("tablet", classConfig)
	pgot, _, err := peer.Get(bg, "docs/aging.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pgot, data) {
		t.Fatal("peer post-demotion mismatch")
	}
}

func TestClassMetaCSPs(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 6)
	c := env.client("alice", func(cfg *Config) {
		classConfig(cfg)
		// Dedicate vault/ metadata records to two providers.
		cfg.Classes = append(cfg.Classes, policy.Class{
			Name: "vault", T: 2, N: 3,
			MetaCSPs: []string{"cspe", "cspf"},
		})
		cfg.ClassRules = append(cfg.ClassRules, policy.Rule{Prefix: "vault/", Class: "vault"})
	})
	if err := c.Put(bg, "vault/secret.bin", randData(6, 5_000)); err != nil {
		t.Fatal(err)
	}
	head := headOf(t, c, "vault/secret.bin")
	vid := head.VersionID()
	for _, name := range env.names {
		n := len(env.backends[name].ObjectNames(metadata.MetaPrefix + c.names.recordKey("vault/secret.bin", vid)))
		dedicated := name == "cspe" || name == "cspf"
		if dedicated && n == 0 {
			t.Fatalf("dedicated metadata CSP %s holds no share of %s", name, vid)
		}
		if !dedicated && n != 0 {
			t.Fatalf("metadata share leaked to %s", name)
		}
	}
	// Still readable through a fresh sync.
	if _, _, err := c.Get(bg, "vault/secret.bin"); err != nil {
		t.Fatal(err)
	}
}

func TestClassScopedDedup(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 6)
	c := env.client("alice", classConfig)
	data := randData(7, 8_000)
	if err := c.Put(bg, "docs/one.bin", data); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(bg, "logs/one.bin", data); err != nil {
		t.Fatal(err)
	}
	// Same content, different classes: both encodings coexist in the table.
	hotHead := headOf(t, c, "docs/one.bin")
	coldHead := headOf(t, c, "logs/one.bin")
	for i, ref := range hotHead.Chunks {
		if ref.ID != coldHead.Chunks[i].ID {
			t.Fatal("chunk IDs should match (same content)")
		}
		if _, ok := c.table.LookupEnc(ref.ID, "hot"); !ok {
			t.Fatalf("hot encoding of %s missing", ref.ID[:8])
		}
		if _, ok := c.table.LookupEnc(ref.ID, "cold"); !ok {
			t.Fatalf("cold encoding of %s missing", ref.ID[:8])
		}
	}
	// A second hot put of the same content dedups against the hot encoding.
	if err := c.Put(bg, "docs/two.bin", data); err != nil {
		t.Fatal(err)
	}
	two := headOf(t, c, "docs/two.bin")
	for _, ref := range two.Chunks {
		if ref.Class != "hot" {
			t.Fatalf("dedup crossed classes: %+v", ref)
		}
	}
}
