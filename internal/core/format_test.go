package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/erasure"
	"repro/internal/metadata"
)

// Record format v2 (DESIGN §4): new versions carry the chunk-list file ID,
// v1 (content-hash) records stay readable, and every path that copies a
// version's ID copies its form with it.

// publishBuilt publishes a record buildVersion made — a version as a client
// that still wrote format v1 would have left it.
func publishBuilt(t *testing.T, c *Client, m *metadata.FileMeta) {
	t.Helper()
	op := c.engine.Begin(bg)
	defer op.Finish()
	if err := c.publish(op, m); err != nil {
		t.Fatal(err)
	}
}

// injectRecord replaces the metadata shares of record (name, vid) on every
// provider of its placement with a valid coding of raw — the forgery a holder
// of the user key could upload under an honest record's name.
func injectRecord(t *testing.T, env *testEnv, c *Client, name, vid string, raw []byte) {
	t.Helper()
	rec := c.names.recordKey(name, vid)
	targets := c.metaTargetsFor(name)
	b := c.metaBlob(rec, min(c.cfg.MetaT, len(targets)), len(targets))
	shares, err := c.encode(b, raw)
	if err != nil {
		t.Fatal(err)
	}
	defer erasure.ReleaseShares(shares)
	for i, target := range targets {
		env.backends[target].InjectObject(metaShareName(rec, i), bytes.Clone(shares[i].Data), time.Now())
	}
}

// A v1 version reads back through the content-hash verify: intact, it reads
// byte-exact (batch and streamed); carrying another file's chunks under its
// content ID, the chunks each verify and only the whole-file hash catches it.
func TestV1RecordReadsThroughContentHash(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	w := env.client("writer", nil)
	data, other := randData(11, 20_000), randData(12, 20_000)
	v1 := buildVersion(t, w, "legacy.bin", data, "")
	if v1.IDForm != metadata.ContentID || v1.File.ID != metadata.HashData(data) {
		t.Fatalf("buildVersion wrote form %d, ID %.8s", v1.IDForm, v1.File.ID)
	}
	publishBuilt(t, w, v1)
	swapped := buildVersion(t, w, "swapped.bin", other, "")
	swapped.File.ID = metadata.HashData(data)
	publishBuilt(t, w, swapped)

	r := env.client("reader", nil)
	if got, _, err := r.Get(bg, "legacy.bin"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("v1 Get: %d bytes, %v", len(got), err)
	}
	var buf bytes.Buffer
	if _, err := r.GetTo(bg, "legacy.bin", &buf); err != nil || !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("v1 GetTo: %d bytes, %v", buf.Len(), err)
	}
	if head := headOf(t, r, "legacy.bin"); head.IDForm != metadata.ContentID {
		t.Fatalf("decoded v1 record has form %d", head.IDForm)
	}
	if _, _, err := r.Get(bg, "swapped.bin"); !errors.Is(err, ErrDamaged) {
		t.Fatalf("v1 record with foreign chunks: err = %v, want ErrDamaged from the content-hash verify", err)
	}
}

// A v2 record whose chunk list was swapped after its ID was computed keeps
// its version ID (the ID covers File.ID, not the list), so it can replace the
// honest record under the honest name. Decode refuses it: a reader's sync
// reports the damage, the record never enters the tree, and no read serves
// the swapped-in bytes.
func TestV2TamperedChunkListRejected(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	w := env.client("writer", nil)
	data, other := randData(21, 20_000), randData(22, 20_000)
	if err := w.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(bg, "other", other); err != nil {
		t.Fatal(err)
	}
	honest, donor := headOf(t, w, "doc"), headOf(t, w, "other")
	if honest.IDForm != metadata.ChunkListID || honest.File.ID != metadata.FileID(honest.Chunks) {
		t.Fatalf("Put wrote form %d, ID %.8s", honest.IDForm, honest.File.ID)
	}

	forged := *honest
	forged.Chunks, forged.Shares, forged.File.Size = donor.Chunks, donor.Shares, donor.File.Size
	if _, err := metadata.Encode(&forged); err == nil {
		t.Fatal("Encode accepted a v2 record whose chunk list does not hash to its ID")
	}
	// Forge the bytes instead: the layouts are the same, so encode as v1 (no
	// list check) and set the version byte to 2.
	forged.IDForm = metadata.ContentID
	raw, err := metadata.Encode(&forged)
	if err != nil {
		t.Fatal(err)
	}
	raw[4] = 2
	vid := honest.VersionID()
	if forged.VersionID() != vid {
		t.Fatal("forgery changed the version ID; the test no longer models an in-place swap")
	}
	injectRecord(t, env, w, "doc", vid, raw)

	r := env.client("reader", nil)
	if _, err := r.Sync(bg); !errors.Is(err, ErrDamaged) {
		t.Fatalf("Sync over the forged record: err = %v, want ErrDamaged", err)
	}
	if r.Tree().Has(vid) {
		t.Fatal("forged record entered the tree")
	}
	// Refused at the door, the record leaves nothing to read: the name has
	// no head and the version is unknown.
	if got, _, err := r.Get(bg, "doc"); !errors.Is(err, ErrNoSuchFile) || len(got) != 0 {
		t.Fatalf("Get served %d bytes (%v) from a forged record", len(got), err)
	}
	var buf bytes.Buffer
	if _, err := r.GetVersionTo(bg, "doc", vid, &buf); !errors.Is(err, metadata.ErrUnknownVersion) || buf.Len() != 0 {
		t.Fatalf("GetVersionTo wrote %d bytes (%v) from a forged record", buf.Len(), err)
	}
}

// Re-putting identical content over a v1 head publishes exactly one v2
// version (a content-hash ID never equals a list hash); later re-puts are the
// usual unchanged-content no-op.
func TestReputOverV1HeadPublishesOneV2(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	w := env.client("writer", nil)
	data := randData(31, 20_000)
	v1 := buildVersion(t, w, "doc", data, "")
	publishBuilt(t, w, v1)

	if err := w.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	head := headOf(t, w, "doc")
	if head.IDForm != metadata.ChunkListID || head.File.PrevID != v1.VersionID() || head.File.ID != metadata.FileID(head.Chunks) {
		t.Fatalf("re-put over v1 head: form %d, parent %.8s, ID %.8s", head.IDForm, head.File.PrevID, head.File.ID)
	}
	v2 := head.VersionID()
	if err := w.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	if err := w.PutReader(bg, "doc", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if got := headOf(t, w, "doc").VersionID(); got != v2 {
		t.Fatalf("re-put over a v2 head published %.8s", got)
	}
	if hist, err := w.History(bg, "doc"); err != nil || len(hist) != 2 {
		t.Fatalf("history = %d versions (%v), want v1 + one v2", len(hist), err)
	}
	if got, _, err := env.client("reader", nil).Get(bg, "doc"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get: %d bytes, %v", len(got), err)
	}
}

// Delete → Restore of a v2 version and ReencodeClass of a v1 and a v2 head
// carry the file ID in its own form, so each result validates and reads back
// fully verified from a fresh client.
func TestVersionCopiesKeepIDForm(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 6)
	c := env.client("alice", classConfig)
	a, b, old := randData(41, 12_000), randData(42, 12_000), randData(43, 12_000)
	if err := c.Put(bg, "docs/a.bin", a); err != nil {
		t.Fatal(err)
	}
	vidA := headOf(t, c, "docs/a.bin").VersionID()
	idA := headOf(t, c, "docs/a.bin").File.ID
	if err := c.Put(bg, "docs/a.bin", b); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(bg, "docs/a.bin"); err != nil {
		t.Fatal(err)
	}
	if m := headOf(t, c, "docs/a.bin"); !m.File.Deleted || m.IDForm != metadata.ChunkListID {
		t.Fatalf("deletion marker: deleted %v, form %d", m.File.Deleted, m.IDForm)
	}
	if err := c.Restore(bg, "docs/a.bin", vidA); err != nil {
		t.Fatal(err)
	}
	if m := headOf(t, c, "docs/a.bin"); m.IDForm != metadata.ChunkListID || m.File.ID != idA {
		t.Fatalf("restored head: form %d, ID %.8s, want v2 %.8s", m.IDForm, m.File.ID, idA)
	}
	if changed, err := c.ReencodeClass(bg, "docs/a.bin", "cold"); err != nil || !changed {
		t.Fatalf("ReencodeClass v2: %v, %v", changed, err)
	}
	if m := headOf(t, c, "docs/a.bin"); m.IDForm != metadata.ChunkListID || m.File.ID != idA {
		t.Fatalf("re-encoded v2 head: form %d, ID %.8s", m.IDForm, m.File.ID)
	}

	publishBuilt(t, c, buildVersion(t, c, "docs/old.bin", old, ""))
	if changed, err := c.ReencodeClass(bg, "docs/old.bin", "cold"); err != nil || !changed {
		t.Fatalf("ReencodeClass v1: %v, %v", changed, err)
	}
	if m := headOf(t, c, "docs/old.bin"); m.IDForm != metadata.ContentID || m.File.ID != metadata.HashData(old) {
		t.Fatalf("re-encoded v1 head: form %d, ID %.8s", m.IDForm, m.File.ID)
	}

	r := env.client("reader", classConfig)
	for name, want := range map[string][]byte{"docs/a.bin": a, "docs/old.bin": old} {
		var buf bytes.Buffer
		if _, err := r.GetTo(bg, name, &buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: %d bytes, %v", name, buf.Len(), err)
		}
		if m := headOf(t, r, name); m.Chunks[0].Class != "cold" {
			t.Fatalf("%s: fresh reader's head is in class %q", name, m.Chunks[0].Class)
		}
	}
}

// repairMetaPlacement re-codes the record it decoded, so a v1 record must
// re-encode to its original bytes: the share it re-places is then
// byte-identical to the one that went missing.
func TestRepairMetaPlacementV1ByteIdentical(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 6)
	shardCfg := func(cfg *Config) { cfg.MetaShards = 3 }
	w := env.client("writer", shardCfg)
	m := buildVersion(t, w, "legacy.bin", randData(51, 6_000), "")
	publishBuilt(t, w, m)

	vid := m.VersionID()
	targets := w.metaTargetsFor("legacy.bin")
	victim := targets[len(targets)-1]
	obj := w.names.MetaShare("legacy.bin", vid, len(targets)-1)
	want, ok := env.backends[victim].PeekObject(obj)
	if !ok {
		t.Fatalf("share %s not on %s", obj, victim)
	}
	env.backends[victim].RemoveObject(obj)

	r := env.client("repairer", shardCfg)
	if _, err := r.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if rec, err := r.Tree().Get(vid); err != nil || rec.IDForm != metadata.ContentID {
		t.Fatalf("repairer's record: %v", err)
	}
	got, ok := env.backends[victim].PeekObject(obj)
	if !ok {
		t.Fatalf("missing share %s was not re-placed on %s", obj, victim)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("re-placed v1 share differs from the original: the decoded record did not re-encode byte-identically")
	}
}
