package syncdir

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/metadata"
)

var bg = context.Background()

// world is a set of shared provider backends plus per-device syncers.
type world struct {
	t        *testing.T
	backends []*cloudsim.Backend
}

func newWorld(t *testing.T) *world {
	t.Helper()
	w := &world{t: t}
	for _, n := range []string{"a", "b", "c", "d"} {
		w.backends = append(w.backends, cloudsim.NewBackend(n, csp.NameKeyed, 0))
	}
	return w
}

func (w *world) device(id string) (*core.Client, string, *Syncer) {
	w.t.Helper()
	var stores []csp.Store
	for _, b := range w.backends {
		s := cloudsim.NewSimStore(b)
		if err := s.Authenticate(bg, csp.Credentials{Token: id}); err != nil {
			w.t.Fatal(err)
		}
		stores = append(stores, s)
	}
	client, err := core.New(core.Config{
		ClientID: id, Key: "shared", T: 2, N: 3,
		Chunking: chunker.Config{AverageSize: 1024, MinSize: 256, MaxSize: 4096},
	}, stores)
	if err != nil {
		w.t.Fatal(err)
	}
	dir := w.t.TempDir()
	sy, err := New(client, dir)
	if err != nil {
		w.t.Fatal(err)
	}
	return client, dir, sy
}

func writeFile(t *testing.T, dir, rel, content string) {
	t.Helper()
	dst := filepath.Join(dir, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, dir, rel string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(rel)))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func ops(actions []Action, op string) []string {
	var out []string
	for _, a := range actions {
		if a.Op == op {
			out = append(out, a.Name)
		}
	}
	return out
}

func TestUploadThenPropagate(t *testing.T) {
	w := newWorld(t)
	_, dirA, syA := w.device("alice")
	_, dirB, syB := w.device("bob")

	writeFile(t, dirA, "docs/report.txt", "v1 of the report")
	writeFile(t, dirA, "pic.jpg", "binaryish")
	actions, err := syA.Sync(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ops(actions, "upload"); len(got) != 2 {
		t.Fatalf("uploads = %v", got)
	}

	actions, err = syB.Sync(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ops(actions, "download"); len(got) != 2 {
		t.Fatalf("downloads = %v", got)
	}
	if got := readFile(t, dirB, "docs/report.txt"); got != "v1 of the report" {
		t.Fatalf("propagated content %q", got)
	}
}

func TestUnchangedSyncIsQuiet(t *testing.T) {
	w := newWorld(t)
	_, dirA, syA := w.device("alice")
	writeFile(t, dirA, "f.txt", "stable")
	if _, err := syA.Sync(bg); err != nil {
		t.Fatal(err)
	}
	actions, err := syA.Sync(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 0 {
		t.Fatalf("second sync acted: %+v", actions)
	}
}

func TestEditPropagates(t *testing.T) {
	w := newWorld(t)
	_, dirA, syA := w.device("alice")
	_, dirB, syB := w.device("bob")
	writeFile(t, dirA, "f.txt", "v1")
	if _, err := syA.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := syB.Sync(bg); err != nil {
		t.Fatal(err)
	}

	// Bob edits; ensure the mtime moves even on coarse filesystems.
	time.Sleep(10 * time.Millisecond)
	writeFile(t, dirB, "f.txt", "v2 from bob")
	now := time.Now()
	os.Chtimes(filepath.Join(dirB, "f.txt"), now, now)
	if _, err := syB.Sync(bg); err != nil {
		t.Fatal(err)
	}
	actions, err := syA.Sync(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ops(actions, "download"); len(got) != 1 || got[0] != "f.txt" {
		t.Fatalf("alice actions = %+v", actions)
	}
	if got := readFile(t, dirA, "f.txt"); got != "v2 from bob" {
		t.Fatalf("alice sees %q", got)
	}
}

func TestTouchWithoutChangeDoesNotUpload(t *testing.T) {
	w := newWorld(t)
	client, dirA, syA := w.device("alice")
	writeFile(t, dirA, "f.txt", "same")
	if _, err := syA.Sync(bg); err != nil {
		t.Fatal(err)
	}
	before := client.Tree().Len()
	future := time.Now().Add(time.Hour)
	os.Chtimes(filepath.Join(dirA, "f.txt"), future, future)
	actions, err := syA.Sync(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 0 {
		t.Fatalf("touch caused %+v", actions)
	}
	if client.Tree().Len() != before {
		t.Fatal("touch created a version")
	}
}

func TestDeletionPropagates(t *testing.T) {
	w := newWorld(t)
	_, dirA, syA := w.device("alice")
	_, dirB, syB := w.device("bob")
	writeFile(t, dirA, "gone.txt", "bye")
	if _, err := syA.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := syB.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dirA, "gone.txt")); err != nil {
		t.Fatal(err)
	}
	actions, err := syA.Sync(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ops(actions, "delete-remote"); len(got) != 1 {
		t.Fatalf("alice actions = %+v", actions)
	}
	actions, err = syB.Sync(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ops(actions, "delete-local"); len(got) != 1 {
		t.Fatalf("bob actions = %+v", actions)
	}
	if _, err := os.Stat(filepath.Join(dirB, "gone.txt")); !os.IsNotExist(err) {
		t.Fatal("bob still has the deleted file")
	}
}

func TestConflictMaterialization(t *testing.T) {
	w := newWorld(t)
	_, dirA, syA := w.device("alice")
	_, dirB, syB := w.device("bob")

	// Independent same-name creations: alice syncs hers; bob writes his
	// while partitioned from metadata listing (stale replica).
	writeFile(t, dirA, "plan.md", "alice's plan")
	if _, err := syA.Sync(bg); err != nil {
		t.Fatal(err)
	}
	writeFile(t, dirB, "plan.md", "bob's competing plan!")
	for _, b := range w.backends {
		// Every metadata listing of bob's partitioned pass must fail: the
		// pass-start sync and the upload-time one, each retried once per
		// provider — four faults.
		b.FailNext(4)
	}
	// Bob's partitioned pass pushes his conflicting creation against a
	// stale replica. The pass resolves remote state against its starting
	// snapshot, so the divergence surfaces on the NEXT pass: winner under
	// the name, loser as a sibling copy, tree resolved.
	actionsB, err := syB.Sync(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ops(actionsB, "upload"); len(got) != 1 {
		t.Fatalf("partitioned pass actions = %+v", actionsB)
	}
	actionsB, err = syB.Sync(bg)
	if err != nil {
		t.Fatal(err)
	}
	copies := ops(actionsB, "conflict-copy")
	if len(copies) != 1 {
		t.Fatalf("conflict copies = %v (actions %+v)", copies, actionsB)
	}
	if !strings.Contains(copies[0], ".conflict-") {
		t.Fatalf("copy name %q", copies[0])
	}
	main := readFile(t, dirB, "plan.md")
	copyContent := readFile(t, dirB, copies[0])
	if main == copyContent {
		t.Fatal("winner and conflict copy are identical")
	}
	both := main + copyContent
	if !strings.Contains(both, "alice's plan") || !strings.Contains(both, "bob's competing plan!") {
		t.Fatalf("content lost: main=%q copy=%q", main, copyContent)
	}
	// Alice converges to the same winner; no conflict remains.
	if _, err := syA.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, dirA, "plan.md"); got != main {
		t.Fatalf("alice converged to %q, bob has %q", got, main)
	}
	if _, _, sy3 := w.device("carol"); len(sy3.client.Conflicts(bg)) != 0 {
		t.Fatal("conflict survived resolution")
	}
}

// TestConflictCopyIsLosingBranchHead: bob's branch holds two versions and
// alice's later edit wins, so the conflict copy must hold the head of bob's
// branch, not its first version, and the pass must leave no conflict.
func TestConflictCopyIsLosingBranchHead(t *testing.T) {
	w := newWorld(t)
	clientA, dirA, syA := w.device("alice")
	_, dirB, syB := w.device("bob")

	writeFile(t, dirA, "doc.txt", "v1")
	if _, err := syA.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := syB.Sync(bg); err != nil {
		t.Fatal(err)
	}
	for _, content := range []string{"bob's first edit", "bob's second edit"} {
		writeFile(t, dirB, "doc.txt", content)
		if _, err := syB.Sync(bg); err != nil {
			t.Fatal(err)
		}
	}
	// Alice edits v1 while partitioned from metadata listing (as in
	// TestConflictMaterialization), so her edit forks from v1.
	writeFile(t, dirA, "doc.txt", "alice's edit")
	for _, b := range w.backends {
		b.FailNext(4)
	}
	if actions, err := syA.Sync(bg); err != nil || len(ops(actions, "upload")) != 1 {
		t.Fatalf("partitioned pass = %+v, %v", actions, err)
	}
	actions, err := syA.Sync(bg)
	if err != nil {
		t.Fatal(err)
	}
	copies := ops(actions, "conflict-copy")
	if len(copies) != 1 {
		t.Fatalf("conflict copies = %v (actions %+v)", copies, actions)
	}
	if got := readFile(t, dirA, copies[0]); got != "bob's second edit" {
		t.Fatalf("conflict copy holds %q, want the head of bob's branch", got)
	}
	if got := readFile(t, dirA, "doc.txt"); got != "alice's edit" {
		t.Fatalf("doc.txt = %q, want alice's later edit", got)
	}
	if cs := clientA.Tree().Conflicts(); len(cs) != 0 {
		t.Fatalf("conflicts after the pass = %+v", cs)
	}
}

func TestConflictCopiesAreNotReuploaded(t *testing.T) {
	if got := conflictCopyName("docs/a.txt", "bob", "0123456789abcdef"); got != "docs/a.conflict-bob-01234567.txt" {
		t.Fatalf("conflictCopyName = %q", got)
	}
	if !skip("docs/a.conflict-bob-01234567.txt") {
		t.Fatal("conflict copy not skipped by scanner")
	}
	if !skip(IndexName) || !skip(".hidden") {
		t.Fatal("index/hidden not skipped")
	}
	if skip("normal.txt") {
		t.Fatal("normal file skipped")
	}
}

func TestIndexPersistsAcrossSyncerInstances(t *testing.T) {
	w := newWorld(t)
	client, dirA, syA := w.device("alice")
	writeFile(t, dirA, "f.txt", "persist me")
	if _, err := syA.Sync(bg); err != nil {
		t.Fatal(err)
	}
	// A new syncer over the same dir+client does nothing.
	sy2, err := New(client, dirA)
	if err != nil {
		t.Fatal(err)
	}
	actions, err := sy2.Sync(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 0 {
		t.Fatalf("fresh syncer acted: %+v", actions)
	}
}

// TestFailedIndexWriteKeepsOldIndex makes the pass's index write fail: the
// pass must report it, the old index must still parse, and no temp file may
// be left beside it.
func TestFailedIndexWriteKeepsOldIndex(t *testing.T) {
	w := newWorld(t)
	client, dir, sy := w.device("alice")
	writeFile(t, dir, "f.txt", "indexed")
	if _, err := sy.Sync(bg); err != nil {
		t.Fatal(err)
	}
	before := readFile(t, dir, IndexName)

	// A read-only handle: every Write on it fails.
	defer func(orig func(string, string) (*os.File, error)) { atomicfile.CreateTemp = orig }(atomicfile.CreateTemp)
	atomicfile.CreateTemp = func(dir, pattern string) (*os.File, error) {
		f, err := os.CreateTemp(dir, pattern)
		if err != nil {
			return nil, err
		}
		f.Close()
		return os.Open(f.Name())
	}
	writeFile(t, dir, "g.txt", "not yet indexed")
	if _, err := sy.Sync(bg); err == nil {
		t.Fatal("pass succeeded although its index write failed")
	}

	if after := readFile(t, dir, IndexName); after != before {
		t.Fatalf("index changed by a failed write:\n%s", after)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != IndexName && e.Name() != "f.txt" && e.Name() != "g.txt" {
			t.Fatalf("left behind %q", e.Name())
		}
	}
	if _, err := New(client, dir); err != nil {
		t.Fatalf("old index unreadable: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	w := newWorld(t)
	client, dir, _ := w.device("alice")
	if _, err := New(client, filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing dir accepted")
	}
	f := filepath.Join(dir, "afile")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(client, f); err == nil {
		t.Fatal("file-as-root accepted")
	}
}

func TestManyFilesBothDirections(t *testing.T) {
	w := newWorld(t)
	_, dirA, syA := w.device("alice")
	_, dirB, syB := w.device("bob")
	for i := 0; i < 15; i++ {
		writeFile(t, dirA, fmt.Sprintf("dir%d/f%d.dat", i%3, i), strings.Repeat(fmt.Sprint(i), 100+i))
	}
	if _, err := syA.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := syB.Sync(bg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		rel := fmt.Sprintf("dir%d/f%d.dat", i%3, i)
		a := readFile(t, dirA, rel)
		b := readFile(t, dirB, rel)
		if !bytes.Equal([]byte(a), []byte(b)) {
			t.Fatalf("%s differs", rel)
		}
	}
}

func TestWatchLoop(t *testing.T) {
	w := newWorld(t)
	_, dirA, syA := w.device("alice")
	_, dirB, syB := w.device("bob")
	writeFile(t, dirA, "w.txt", "watched")
	if _, err := syA.Sync(bg); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(bg)
	passes := 0
	errCh := make(chan error, 1)
	go func() {
		errCh <- syB.Watch(ctx, time.Millisecond, func(actions []Action, err error) {
			if err != nil {
				t.Error(err)
			}
			passes++
			if passes >= 3 {
				cancel()
			}
		})
	}()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("Watch returned %v", err)
	}
	if got := readFile(t, dirB, "w.txt"); got != "watched" {
		t.Fatalf("watch did not pull the file: %q", got)
	}
}

// TestDownloadRecordsContentHash pins what downloadLocal relies on: the hash
// a download pass records in the state file — taken from the version's
// record, not recomputed over the written bytes — is the hash of the content,
// so the next pass's edit detection (hashFile == entry.Hash) keeps working. A
// zero-length file is the version fetchTo returns early on.
func TestDownloadRecordsContentHash(t *testing.T) {
	w := newWorld(t)
	_, dirA, syA := w.device("alice")
	_, dirB, syB := w.device("bob")

	contents := map[string]string{
		"empty.txt":    "",
		"one.txt":      "a single chunk",
		"dir/many.bin": strings.Repeat("several chunks of content. ", 2000),
	}
	for rel, content := range contents {
		writeFile(t, dirA, rel, content)
	}
	if _, err := syA.Sync(bg); err != nil {
		t.Fatal(err)
	}
	actions, err := syB.Sync(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ops(actions, "download"); len(got) != len(contents) {
		t.Fatalf("downloads = %v", got)
	}
	for rel, content := range contents {
		if got := readFile(t, dirB, rel); got != content {
			t.Fatalf("%s: propagated %d bytes, want %d", rel, len(got), len(content))
		}
		e := syB.idx.Files[rel]
		if e == nil {
			t.Fatalf("%s: no state entry after download", rel)
		}
		if want := metadata.HashData([]byte(content)); e.Hash != want {
			t.Errorf("%s: state hash %s, want %s", rel, e.Hash, want)
		}
		onDisk, err := hashFile(filepath.Join(dirB, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		if e.Hash != onDisk {
			t.Errorf("%s: state hash %s, file on disk hashes to %s", rel, e.Hash, onDisk)
		}
	}
	// The recorded hashes hold a second pass quiet even when mtimes move.
	for rel := range contents {
		now := time.Now().Add(time.Hour)
		if err := os.Chtimes(filepath.Join(dirB, filepath.FromSlash(rel)), now, now); err != nil {
			t.Fatal(err)
		}
	}
	if actions, err = syB.Sync(bg); err != nil || len(actions) != 0 {
		t.Fatalf("second pass after touch: actions %v, err %v", actions, err)
	}
}
