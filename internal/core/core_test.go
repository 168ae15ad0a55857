package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/metadata"
)

// testEnv is a set of shared backends plus helpers to build clients over
// them.
type testEnv struct {
	t        *testing.T
	backends map[string]*cloudsim.Backend
	names    []string
}

func newEnv(t *testing.T, n int) *testEnv {
	return newEnvWithCapacity(t, nil)._grow(t, n)
}

// newEnvWithCapacity builds an env whose named providers get the given
// byte capacities (others unlimited). Five providers unless grown.
func newEnvWithCapacity(t *testing.T, caps map[string]int64) *testEnv {
	t.Helper()
	env := &testEnv{t: t, backends: make(map[string]*cloudsim.Backend)}
	if caps != nil {
		env._grow(t, 5)
		for name, capBytes := range caps {
			identity := env.backends[name].Identity()
			env.backends[name] = cloudsim.NewBackend(name, identity, capBytes)
		}
	}
	return env
}

// _grow adds providers up to n with alternating identity quirks.
func (e *testEnv) _grow(t *testing.T, n int) *testEnv {
	t.Helper()
	for i := len(e.names); i < n; i++ {
		name := fmt.Sprintf("csp%c", 'a'+i)
		identity := csp.NameKeyed
		if i%2 == 1 {
			identity = csp.IDKeyed // mix provider quirks
		}
		e.backends[name] = cloudsim.NewBackend(name, identity, 0)
		e.names = append(e.names, name)
	}
	return e
}

// client builds an authenticated client for the given config tweaks.
func (e *testEnv) client(id string, tweak func(*Config)) *Client {
	e.t.Helper()
	cfg := Config{
		ClientID: id,
		Key:      "shared-user-key",
		T:        2,
		N:        3,
		Chunking: chunker.Config{AverageSize: 1024, MinSize: 256, MaxSize: 4096, Window: 48},
	}
	if tweak != nil {
		tweak(&cfg)
	}
	var stores []csp.Store
	for _, name := range e.names {
		s := cloudsim.NewSimStore(e.backends[name])
		if err := s.Authenticate(context.Background(), csp.Credentials{Token: "t"}); err != nil {
			e.t.Fatal(err)
		}
		stores = append(stores, s)
	}
	c, err := New(cfg, stores)
	if err != nil {
		e.t.Fatal(err)
	}
	return c
}

func randData(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

var bg = context.Background()

func TestPutGetRoundTrip(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	data := randData(1, 10_000)
	if err := c.Put(bg, "docs/report.pdf", data); err != nil {
		t.Fatal(err)
	}
	got, info, err := c.Get(bg, "docs/report.pdf")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if info.Size != int64(len(data)) || info.Conflicted || info.Deleted {
		t.Fatalf("info = %+v", info)
	}
}

func TestGetMissingFile(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	if _, _, err := c.Get(bg, "ghost"); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyFile(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	if err := c.Put(bg, "empty", nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Get(bg, "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file came back with %d bytes", len(got))
	}
}

func TestPutValidation(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	if err := c.Put(bg, "", []byte("x")); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(Config{Key: "k"}, nil); err == nil {
		t.Fatal("missing ClientID accepted")
	}
	if _, err := New(Config{ClientID: "c"}, nil); err == nil {
		t.Fatal("missing Key accepted")
	}
	if _, err := New(Config{ClientID: "c", Key: "k", T: 3, N: 2}, nil); err == nil {
		t.Fatal("N < T accepted")
	}
}

func TestNoSingleCSPCanReconstruct(t *testing.T) {
	t.Parallel()
	// Privacy: with t=2, no provider may hold two shares of one chunk, and
	// no stored object may contain file plaintext.
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	plaintext := bytes.Repeat([]byte("TOPSECRET-PAYLOAD"), 300)
	if err := c.Put(bg, "secret.txt", plaintext); err != nil {
		t.Fatal(err)
	}
	// Count shares per chunk per CSP via the chunk table.
	for _, m := range c.Tree().All() {
		for _, ref := range m.Chunks {
			info, ok := c.ChunkTable().LookupEnc(ref.ID, "")
			if !ok {
				t.Fatalf("chunk %s missing from table", ref.ID[:8])
			}
			perCSP := map[string]int{}
			for _, cspName := range info.Shares {
				perCSP[cspName]++
				if perCSP[cspName] > 1 {
					t.Fatalf("CSP %s holds %d shares of chunk %s", cspName, perCSP[cspName], ref.ID[:8])
				}
			}
		}
	}
	// No stored object contains plaintext.
	for name, b := range env.backends {
		store := cloudsim.NewSimStore(b)
		_ = store.Authenticate(bg, csp.Credentials{Token: "t"})
		infos, err := store.List(bg, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, oi := range infos {
			data, err := store.Download(bg, oi.Name)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(data, []byte("TOPSECRET-PAYLOAD")) {
				t.Fatalf("provider %s object %s leaks plaintext", name, oi.Name)
			}
		}
	}
}

func TestShareNamesAreOpaque(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	if err := c.Put(bg, "visible-name.txt", randData(2, 5000)); err != nil {
		t.Fatal(err)
	}
	for name, b := range env.backends {
		store := cloudsim.NewSimStore(b)
		_ = store.Authenticate(bg, csp.Credentials{Token: "t"})
		infos, _ := store.List(bg, "")
		for _, oi := range infos {
			if strings.Contains(oi.Name, "visible-name") {
				t.Fatalf("provider %s sees file name in object %s", name, oi.Name)
			}
		}
	}
}

func TestDeduplication(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	data := randData(3, 8_000)
	if err := c.Put(bg, "a.bin", data); err != nil {
		t.Fatal(err)
	}
	var uploadsAfterFirst int64
	for _, b := range env.backends {
		uploadsAfterFirst += b.Stats().Uploads
	}
	// Same content, different name: no new chunk shares, only metadata.
	if err := c.Put(bg, "b.bin", data); err != nil {
		t.Fatal(err)
	}
	var shareUploads int64
	for _, b := range env.backends {
		shareUploads += b.Stats().Uploads
	}
	delta := shareUploads - uploadsAfterFirst
	// Only metadata uploads (4 CSPs) may have happened.
	if delta > 4 {
		t.Fatalf("second put of identical content uploaded %d objects", delta)
	}
	got, _, err := c.Get(bg, "b.bin")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("deduplicated file corrupted: %v", err)
	}
}

func TestUnchangedPutIsNoOp(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	data := randData(4, 3000)
	if err := c.Put(bg, "f", data); err != nil {
		t.Fatal(err)
	}
	before := c.Tree().Len()
	if err := c.Put(bg, "f", data); err != nil {
		t.Fatal(err)
	}
	if c.Tree().Len() != before {
		t.Fatal("no-op put created a new version")
	}
}

func TestVersioningAndHistory(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	v1 := randData(5, 4000)
	v2 := append(append([]byte{}, v1...), []byte("-edit")...)
	if err := c.Put(bg, "doc", v1); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(bg, "doc", v2); err != nil {
		t.Fatal(err)
	}
	hist, err := c.History(bg, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history has %d entries", len(hist))
	}
	// Newest first.
	if hist[0].Size != int64(len(v2)) || hist[1].Size != int64(len(v1)) {
		t.Fatalf("history order wrong: %+v", hist)
	}
	// Old version still downloadable.
	old, _, err := c.GetVersion(bg, "doc", hist[1].VersionID)
	if err != nil || !bytes.Equal(old, v1) {
		t.Fatalf("old version: %v", err)
	}
	// Restore it.
	if err := c.Restore(bg, "doc", hist[1].VersionID); err != nil {
		t.Fatal(err)
	}
	cur, _, err := c.Get(bg, "doc")
	if err != nil || !bytes.Equal(cur, v1) {
		t.Fatalf("restored version: %v", err)
	}
}

func TestDeleteAndUndelete(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	data := randData(6, 2000)
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	hist, _ := c.History(bg, "doc")
	liveVID := hist[0].VersionID

	if err := c.Delete(bg, "doc"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(bg, "doc"); !errors.Is(err, ErrFileDeleted) {
		t.Fatalf("Get after delete err = %v", err)
	}
	// Idempotent delete.
	if err := c.Delete(bg, "doc"); err != nil {
		t.Fatal(err)
	}
	// Not listed.
	files, _ := c.List(bg, "")
	for _, f := range files {
		if f.Name == "doc" {
			t.Fatal("deleted file still listed")
		}
	}
	// Stat still reports it (deleted).
	st, err := c.Stat(bg, "doc")
	if err != nil || !st.Deleted {
		t.Fatalf("Stat after delete = %+v, %v", st, err)
	}
	// Undelete via Restore of the live version.
	if err := c.Restore(bg, "doc", liveVID); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Get(bg, "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("undeleted file: %v", err)
	}
	// Deleting a never-existing file errors.
	if err := c.Delete(bg, "ghost"); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("Delete(ghost) err = %v", err)
	}
}

func TestListWithDirectoryPrefix(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	_ = c.Put(bg, "docs/a", randData(7, 500))
	_ = c.Put(bg, "docs/b", randData(8, 500))
	_ = c.Put(bg, "img/c", randData(9, 500))
	files, err := c.List(bg, "docs")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0].Name != "docs/a" || files[1].Name != "docs/b" {
		t.Fatalf("List(docs) = %+v", files)
	}
	all, _ := c.List(bg, "")
	if len(all) != 3 {
		t.Fatalf("List(\"\") = %d files", len(all))
	}
}

func TestTwoClientsShareFiles(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	alice := env.client("alice", nil)
	bob := env.client("bob", nil)

	data := randData(10, 6000)
	if err := alice.Put(bg, "shared.txt", data); err != nil {
		t.Fatal(err)
	}
	got, info, err := bob.Get(bg, "shared.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("bob read different bytes")
	}
	if info.Conflicted {
		t.Fatal("spurious conflict")
	}
	// Bob edits; alice sees the edit.
	edit := append(append([]byte{}, data...), 'x')
	if err := bob.Put(bg, "shared.txt", edit); err != nil {
		t.Fatal(err)
	}
	got2, _, err := alice.Get(bg, "shared.txt")
	if err != nil || !bytes.Equal(got2, edit) {
		t.Fatalf("alice read stale data: %v", err)
	}
	// And the history chains linearly: no conflicts.
	if cs := alice.Conflicts(bg); len(cs) != 0 {
		t.Fatalf("conflicts = %+v", cs)
	}
}

func TestCrossClientDeduplication(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	alice := env.client("alice", nil)
	bob := env.client("bob", nil)
	data := randData(11, 8000)
	if err := alice.Put(bg, "a", data); err != nil {
		t.Fatal(err)
	}
	var after1 int64
	for _, b := range env.backends {
		after1 += b.Stats().Uploads
	}
	// Bob syncs (learning alice's chunks) then uploads identical content
	// under another name: chunk shares must be deduplicated.
	if err := bob.Put(bg, "b", data); err != nil {
		t.Fatal(err)
	}
	var after2 int64
	for _, b := range env.backends {
		after2 += b.Stats().Uploads
	}
	if after2-after1 > 4 { // metadata only
		t.Fatalf("cross-client dedup failed: %d uploads", after2-after1)
	}
}

func TestConflictDetectionAndResolution(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	alice := env.client("alice", nil)
	bob := env.client("bob", nil)

	base := randData(12, 3000)
	if err := alice.Put(bg, "doc", base); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bob.Get(bg, "doc"); err != nil {
		t.Fatal(err)
	}

	// Simulate concurrent edits: both clients edit from the same parent.
	// (bob's tree already has the parent; alice edits without seeing bob's.)
	aliceEdit := append(append([]byte{}, base...), []byte("-alice")...)
	bobEdit := append(append([]byte{}, base...), []byte("-bob")...)
	if err := alice.Put(bg, "doc", aliceEdit); err != nil {
		t.Fatal(err)
	}
	// bob has not synced since before alice's edit, so his Put chains onto
	// the same parent... but Put syncs first. To force the divergence, put
	// bob's edit through a third client whose tree is stale.
	carol := env.client("carol", nil)
	// carol syncs only up to the base version by building her tree from a
	// snapshot: sync now (sees alice's edit too) — instead, write directly
	// with bob whose sync will see alice's edit. To create a true conflict
	// we race the two puts: disable bob's sync by cutting listing off.
	_ = carol

	// Force the type-2 conflict through tree surgery at the metadata
	// level: bob uploads a version whose parent is the base version.
	parent := mustHeadVersion(t, bob, "doc") // currently alice's edit
	hist, _ := bob.History(bg, "doc")
	baseVID := hist[len(hist)-1].VersionID
	_ = parent

	conflictMeta := buildVersion(t, bob, "doc", bobEdit, baseVID)
	mop := bob.engine.Begin(bg)
	if err := bob.uploadMeta(mop, conflictMeta); err != nil {
		mop.Finish()
		t.Fatal(err)
	}
	mop.Finish()
	if err := bob.absorb(conflictMeta); err != nil {
		t.Fatal(err)
	}

	// Both clients must now detect a divergent-edit conflict.
	cs := alice.Conflicts(bg)
	if len(cs) != 1 || cs[0].Type != "divergent-edit" || cs[0].Name != "doc" {
		t.Fatalf("alice conflicts = %+v", cs)
	}
	if len(cs[0].Versions) != 2 {
		t.Fatalf("conflict versions = %+v", cs[0].Versions)
	}

	// Get still works and flags the conflict.
	_, info, err := alice.Get(bg, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Conflicted {
		t.Fatal("Get did not flag conflict")
	}

	// Resolve in favor of alice's edit.
	var winner string
	for _, v := range cs[0].Versions {
		m, _ := alice.Tree().Get(v.VersionID)
		if m.File.ClientID == "alice" {
			winner = v.VersionID
		}
	}
	if winner == "" {
		t.Fatal("alice's version not among conflict versions")
	}
	if err := alice.Resolve(bg, "doc", winner); err != nil {
		t.Fatal(err)
	}
	if cs := alice.Conflicts(bg); len(cs) != 0 {
		t.Fatalf("conflicts after resolve = %+v", cs)
	}
	got, info, err := bob.Get(bg, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if info.Conflicted {
		t.Fatal("bob still sees conflict after resolve")
	}
	if !bytes.Equal(got, aliceEdit) {
		t.Fatal("winner content not served")
	}
}

// mustHeadVersion fetches the current head version id.
func mustHeadVersion(t *testing.T, c *Client, name string) string {
	t.Helper()
	st, err := c.Stat(bg, name)
	if err != nil {
		t.Fatal(err)
	}
	return st.VersionID
}

// buildVersion runs the client's own chunk/encode/scatter machinery to
// produce a version node with an explicit parent — the metadata a client
// with a stale tree would have produced (used to create true concurrent
// updates deterministically in tests).
func buildVersion(t *testing.T, c *Client, name string, data []byte, parentVID string) *metadata.FileMeta {
	t.Helper()
	chunks := c.chunk.Split(data)
	meta := &metadata.FileMeta{File: metadata.FileMap{
		ID:       metadata.HashData(data),
		PrevID:   parentVID,
		ClientID: c.cfg.ClientID,
		Name:     name,
		Modified: c.rt.Now(),
		Size:     int64(len(data)),
	}}
	seen := map[string]bool{}
	for _, ch := range chunks {
		id := metadata.HashData(ch.Data)
		ref := metadata.ChunkRef{ID: id, Offset: ch.Offset, Size: int64(len(ch.Data)), T: c.cfg.T, N: c.cfg.N}
		if info, ok := c.table.LookupEnc(id, ""); ok {
			ref.T, ref.N = info.T, info.N
			meta.Chunks = append(meta.Chunks, ref)
			if !seen[id] {
				for idx, cspName := range info.Shares {
					meta.Shares = append(meta.Shares, metadata.ShareLoc{ChunkID: id, Index: idx, CSP: cspName})
				}
				seen[id] = true
			}
			continue
		}
		meta.Chunks = append(meta.Chunks, ref)
		if !seen[id] {
			sop := c.engine.Begin(bg)
			locs, err := c.scatterChunk(sop, name, ref, ch.Data)
			sop.Finish()
			if err != nil {
				t.Fatal(err)
			}
			meta.Shares = append(meta.Shares, locs...)
			seen[id] = true
		}
	}
	return meta
}
