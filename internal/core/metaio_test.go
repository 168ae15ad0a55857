package core

import (
	"bytes"
	"errors"
	"testing"
)

func TestPutSucceedsWithDegradedMetadataFanout(t *testing.T) {
	t.Parallel()
	// Metadata goes to all providers but only MetaT successes are
	// required. Two of five providers go down after shares would land:
	// uploads fall back for shares, and metadata reaches the remaining
	// three (>= MetaT = 2).
	env := newEnv(t, 5)
	c := env.client("alice", nil)
	env.backends["cspd"].SetAvailable(false)
	env.backends["cspe"].SetAvailable(false)
	data := randData(80, 4_000)
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	// A second client syncs purely from the three live providers.
	bob := env.client("bob", nil)
	got, _, err := bob.Get(bg, "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded metadata read: %v", err)
	}
}

func TestPutFailsWhenMetadataCannotReachQuorum(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 3)
	c := env.client("alice", nil)
	data := randData(81, 2_000)
	if err := c.Put(bg, "seed", data); err != nil {
		t.Fatal(err)
	}
	// All providers reject the next operations: share uploads cannot even
	// start, so Put must fail loudly, and no metadata for the new version
	// may exist anywhere.
	for _, b := range env.backends {
		b.SetAvailable(false)
	}
	before := c.Tree().Len()
	if err := c.Put(bg, "doc2", randData(82, 2_000)); err == nil {
		t.Fatal("Put succeeded with every provider down")
	}
	if c.Tree().Len() != before {
		t.Fatal("failed Put left a version in the local tree")
	}
	for _, b := range env.backends {
		b.SetAvailable(true)
	}
	// The cloud holds no trace of doc2: a fresh client sees only seed.
	fresh := env.client("fresh", nil)
	if err := fresh.Recover(bg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fresh.Get(bg, "doc2"); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("doc2 visible after failed put: %v", err)
	}
}

func TestFetchMetaFromMinimumShares(t *testing.T) {
	t.Parallel()
	// Write with five providers, then make all but two unreachable: the
	// metadata (MetaT = 2) must still decode from the two survivors.
	env := newEnv(t, 5)
	alice := env.client("alice", nil)
	data := randData(83, 3_000)
	if err := alice.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	// Keep exactly the two providers that also hold >= t shares of every
	// chunk... with n=3 over 5 CSPs that may not exist, so instead verify
	// the metadata alone: a fresh client's Sync (not Get) must absorb the
	// record through two survivors.
	var downed []string
	for _, name := range env.names[2:] {
		env.backends[name].SetAvailable(false)
		downed = append(downed, name)
	}
	fresh := env.client("fresh", nil)
	n, err := fresh.Sync(bg)
	if n == 0 {
		t.Fatalf("fresh sync absorbed nothing (err=%v, downed=%v)", err, downed)
	}
	if !fresh.Tree().Has(mustHeadVersion(t, alice, "doc")) {
		t.Fatal("fresh tree lacks the version")
	}
}

func TestParseMetaShareName(t *testing.T) {
	t.Parallel()
	// Both name forms round-trip: legacy (bare version ID) and tagged.
	for _, rec := range []string{"abc123", "0123456789abcdef-abc123"} {
		got, idx, ok := parseMetaShareName(metaShareName(rec, 7))
		if !ok || got != rec || idx != 7 || recordVersion(got) != "abc123" {
			t.Fatalf("round trip of %q = %q %d %v", rec, got, idx, ok)
		}
	}
	if tag, vid, idx, ok := ParseMetaShareObjectName("cyrus-meta-0123456789abcdef-abc123.s2"); !ok || tag != "0123456789abcdef" || vid != "abc123" || idx != 2 {
		t.Fatalf("tagged name parsed as %q %q %d %v", tag, vid, idx, ok)
	}
	if tag, vid, _, ok := ParseMetaShareObjectName("cyrus-meta-abc123.s2"); !ok || tag != "" || vid != "abc123" {
		t.Fatalf("legacy name parsed as %q %q %v", tag, vid, ok)
	}
	bad := []string{
		"other-prefix-x.s1",
		"cyrus-meta-noindex",
		"cyrus-meta-x.sBAD",
		"cyrus-meta-x.s-1",
		"cyrus-meta-.s1",                     // empty version id
		"cyrus-meta-0123456789abcdef-.s1",    // tag, empty version id
		"cyrus-meta-short-abc123.s1",         // tag of the wrong length
		"cyrus-meta-0123456789abcdef-a-b.s1", // a second separator
	}
	for _, name := range bad {
		if _, _, ok := parseMetaShareName(name); ok {
			t.Fatalf("parsed %q", name)
		}
	}
}

func TestGetRangeOnDeletedFile(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	if err := c.Put(bg, "doc", randData(84, 2_000)); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(bg, "doc"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetRange(bg, "doc", 0, 10); !errors.Is(err, ErrFileDeleted) {
		t.Fatalf("err = %v, want ErrFileDeleted", err)
	}
}

func TestResolveValidation(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	if err := c.Put(bg, "a", randData(85, 1_000)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(bg, "b", randData(86, 1_000)); err != nil {
		t.Fatal(err)
	}
	vidB := mustHeadVersion(t, c, "b")
	if err := c.Resolve(bg, "a", vidB); err == nil {
		t.Fatal("resolve with foreign version accepted")
	}
	if err := c.Resolve(bg, "a", "nope"); err == nil {
		t.Fatal("resolve with unknown version accepted")
	}
	// Resolving a non-conflicted file with its own head is a no-op.
	if err := c.Resolve(bg, "a", mustHeadVersion(t, c, "a")); err != nil {
		t.Fatal(err)
	}
}
