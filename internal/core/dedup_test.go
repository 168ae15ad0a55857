package core

import (
	"bytes"
	"testing"

	"repro/internal/metadata"
)

// dedupClient builds a client writing in convergent dedup mode, with its
// own user key (dedup is cross-user: keys differ, the deployment secret is
// shared).
func (e *testEnv) dedupClient(id, key string) *Client {
	return e.client(id, func(cfg *Config) {
		cfg.Key = key
		cfg.DedupMode = true
		cfg.DedupSecret = "test-deployment-secret"
	})
}

// casObjects dumps every content-addressed object across the env's
// backends as "csp|name" -> payload bytes.
func (e *testEnv) casObjects() map[string][]byte {
	out := make(map[string][]byte)
	for name, b := range e.backends {
		for _, obj := range b.ObjectNames(CASPrefix) {
			data, _ := b.PeekObject(obj)
			out[name+"|"+obj] = data
		}
	}
	return out
}

// The dedup-mode object name is a wire format shared by every client in a
// deployment: pin it. The tag constant matches the erasure package's
// golden convergent vectors (same secret, same chunk).
func TestCASShareNameGolden(t *testing.T) {
	t.Parallel()
	names := NewNames("k", "golden-deployment-secret")
	id := metadata.HashData([]byte("cyrus convergent golden chunk v1"))
	const want = "cyrus-cas-9a3aed1b299759974c7e4fec7d2cdb971af62c06.s2.t3"
	if got, err := names.Share(metadata.ChunkRef{ID: id, T: 3, CAS: true}, 2); err != nil || got != want {
		t.Fatalf("dedup-mode share name drifted:\n got %s\nwant %s", got, want)
	}
	tag, idx, tt, ok := ParseCASShareObjectName(want)
	if !ok || tag != "9a3aed1b299759974c7e4fec7d2cdb971af62c06" || idx != 2 || tt != 3 {
		t.Fatalf("parse = %q, %d, %d, %v", tag, idx, tt, ok)
	}
	for _, bad := range []string{
		"cyrus-share-9a3aed1b299759974c7e4fec7d2cdb971af62c06.s2.t3", // wrong prefix
		"cyrus-cas-9a3aed1b.s2.t3",                                   // short tag
		"cyrus-cas-9A3AED1B299759974C7E4FEC7D2CDB971AF62C06.s2.t3",   // uppercase hex
		"cyrus-cas-9a3aed1b299759974c7e4fec7d2cdb971af62c06.s2",      // no t
		"cyrus-cas-9a3aed1b299759974c7e4fec7d2cdb971af62c06.t3.s2",   // swapped
		"cyrus-cas-9a3aed1b299759974c7e4fec7d2cdb971af62c06.s-1.t3",  // negative index
		"cyrus-cas-9a3aed1b299759974c7e4fec7d2cdb971af62c06.s2.t0",   // t < 1
	} {
		if IsCASShareObjectName(bad) {
			t.Errorf("accepted malformed name %q", bad)
		}
	}
	// A chunk stored without dedup is named the keyed way.
	if got, err := names.Share(metadata.ChunkRef{ID: id, T: 3}, 2); err != nil || IsCASShareObjectName(got) {
		t.Fatalf("keyed share name looks content-addressed: %s (%v)", got, err)
	}
}

func TestDedupRequiresSecret(t *testing.T) {
	t.Parallel()
	_, err := New(Config{ClientID: "a", Key: "k", DedupMode: true}, nil)
	if err == nil {
		t.Fatal("DedupMode without DedupSecret accepted")
	}
}

// Two users with different keys but one deployment secret, writing the
// same content into the same clouds: the second upload must create no new
// share objects — it lands as reference tokens on the first user's — and
// both users must still read their files.
func TestDedupCrossUserSharesObjects(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	alice := env.dedupClient("alice", "alice-user-key")
	bob := env.dedupClient("bob", "bob-user-key")
	data := randData(61, 9_000)

	if err := alice.Put(bg, "a/doc", data); err != nil {
		t.Fatal(err)
	}
	afterAlice := env.casObjects()
	if len(afterAlice) == 0 {
		t.Fatal("dedup-mode upload produced no content-addressed objects")
	}
	if err := bob.Put(bg, "b/doc", data); err != nil {
		t.Fatal(err)
	}
	afterBob := env.casObjects()
	if len(afterBob) != len(afterAlice) {
		t.Fatalf("bob's identical upload changed the CAS object count: %d -> %d", len(afterAlice), len(afterBob))
	}
	for key, want := range afterAlice {
		if got, ok := afterBob[key]; !ok || !bytes.Equal(got, want) {
			t.Fatalf("CAS object %s changed under bob's upload", key)
		}
	}
	// Every shared object carries exactly the two users' reference tokens.
	for name, b := range env.backends {
		for _, obj := range b.ObjectNames(CASPrefix) {
			toks := b.RefTokens(obj)
			if len(toks) != 2 {
				t.Fatalf("%s %s: tokens %v, want alice+bob", name, obj, toks)
			}
			want := map[string]bool{alice.names.RefToken(): true, bob.names.RefToken(): true}
			for _, tok := range toks {
				if !want[tok] {
					t.Fatalf("%s %s: unexpected token %s", name, obj, tok)
				}
			}
		}
	}
	got, _, err := bob.Get(bg, "b/doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("bob's read-back: %v", err)
	}
	got, _, err = alice.Get(bg, "a/doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("alice's read-back after bob's upload: %v", err)
	}
}

// Convergence must hold across deployments with no shared state at all:
// independent clouds, independent clients, different user keys — equal
// chunks plus an equal deployment secret yield byte-identical objects
// under identical names.
func TestDedupByteIdenticalAcrossDeployments(t *testing.T) {
	t.Parallel()
	data := randData(62, 7_000)
	envA, envB := newEnv(t, 4), newEnv(t, 4)
	if err := envA.dedupClient("alice", "alice-user-key").Put(bg, "f", data); err != nil {
		t.Fatal(err)
	}
	if err := envB.dedupClient("bob", "bob-user-key").Put(bg, "f", data); err != nil {
		t.Fatal(err)
	}
	objsA, objsB := envA.casObjects(), envB.casObjects()
	if len(objsA) == 0 || len(objsA) != len(objsB) {
		t.Fatalf("CAS object counts differ: %d vs %d", len(objsA), len(objsB))
	}
	for key, want := range objsA {
		got, ok := objsB[key]
		if !ok {
			t.Fatalf("object %s missing from the second deployment", key)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("object %s differs between deployments", key)
		}
	}
}

// GC on a deduped namespace releases this user's reference, deleting the
// object only when the refcount drains to zero: an orphan shared with a
// referencing user survives (dereferenced, not deleted), a privately
// orphaned chunk is removed, and a second GC double-frees nothing.
func TestDedupGCRefcounts(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	alice := env.dedupClient("alice", "alice-user-key")
	bob := env.dedupClient("bob", "bob-user-key")

	// Below the chunker's MinSize, so the file is exactly one chunk and
	// bob's orphaned copy below lands on the same content address.
	shared := randData(63, 200)
	if err := alice.Put(bg, "kept", shared); err != nil {
		t.Fatal(err)
	}

	// Bob crashes mid-upload of the same content plus some private data:
	// shares land (tokens registered), metadata never does.
	scatterOrphan := func(c *Client, data []byte) metadata.ChunkRef {
		ref := metadata.ChunkRef{ID: metadata.HashData(data), Size: int64(len(data)), T: 2, N: 3, CAS: true}
		sop := c.engine.Begin(bg)
		_, err := c.scatterChunk(sop, ref, data)
		sop.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	scatterOrphan(bob, shared)
	private := randData(64, 220)
	privRef := scatterOrphan(bob, private)

	stats, err := bob.GC(bg)
	if err != nil {
		t.Fatal(err)
	}
	// The private chunk's 3 objects are gone (refcount drained); the shared
	// content was only dereferenced.
	if stats.Shares != 3 || stats.Derefs == 0 {
		t.Fatalf("GC stats = %+v, want 3 deletions and some derefs", stats)
	}
	for name, b := range env.backends {
		for idx := 0; idx < privRef.N; idx++ {
			obj, _ := bob.names.Share(privRef, idx)
			if _, ok := b.PeekObject(obj); ok {
				t.Fatalf("private orphan share %s survived GC on %s", obj, name)
			}
		}
	}
	// Alice's file is untouched and her objects now carry only her token.
	got, _, err := alice.Get(bg, "kept")
	if err != nil || !bytes.Equal(got, shared) {
		t.Fatalf("alice's file after bob's GC: %v", err)
	}
	for name, b := range env.backends {
		for _, obj := range b.ObjectNames(CASPrefix) {
			toks := b.RefTokens(obj)
			if len(toks) != 1 || toks[0] != alice.names.RefToken() {
				t.Fatalf("%s %s: tokens %v after bob's GC", name, obj, toks)
			}
		}
	}
	// Second GC: nothing left to free.
	stats, err = bob.GC(bg)
	if err != nil || stats.Shares != 0 {
		t.Fatalf("second GC = %+v, %v", stats, err)
	}
	// Alice's own GC must not collect her referenced chunks.
	stats, err = alice.GC(bg)
	if err != nil || stats.Shares != 0 {
		t.Fatalf("alice's GC = %+v, %v", stats, err)
	}
	if got, _, err := alice.Get(bg, "kept"); err != nil || !bytes.Equal(got, shared) {
		t.Fatalf("alice's file after her own GC: %v", err)
	}
}

// The reconciliation sweep only trusts a full view: while any active
// provider is unreachable, the sync is partial and GC must not release
// reference tokens for CAS objects the local tree merely has not seen —
// they may belong to a sibling device's freshly published upload. Once
// every provider answers again, the next GC's sweep collects true orphans.
func TestDedupGCPartialViewSkipsSweep(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	alice := env.dedupClient("alice", "alice-user-key")
	if err := alice.Put(bg, "doc", randData(66, 200)); err != nil {
		t.Fatal(err)
	}
	// A second device of the same user (same key, so the same reference
	// token) with no knowledge of this orphan.
	dev2 := env.dedupClient("alice-laptop", "alice-user-key")

	// An upload that never published metadata: shares and tokens landed,
	// no record references them, no table on dev2 knows them.
	orphan := randData(67, 210)
	ref := metadata.ChunkRef{ID: metadata.HashData(orphan), Size: int64(len(orphan)), T: 2, N: 3, CAS: true}
	sop := alice.engine.Begin(bg)
	if _, err := alice.scatterChunk(sop, ref, orphan); err != nil {
		t.Fatal(err)
	}
	sop.Finish()
	orphanObjs := func() int {
		count := 0
		for _, b := range env.backends {
			for idx := 0; idx < ref.N; idx++ {
				obj, _ := alice.names.Share(ref, idx)
				if _, ok := b.PeekObject(obj); ok {
					count++
				}
			}
		}
		return count
	}
	if orphanObjs() != ref.N {
		t.Fatalf("setup: %d orphan objects, want %d", orphanObjs(), ref.N)
	}

	victim := alice.activeCSPs()[0]
	env.backends[victim].SetAvailable(false)
	if _, err := dev2.GC(bg); err != nil {
		t.Fatal(err)
	}
	if got := orphanObjs(); got != ref.N {
		t.Fatalf("partial-view GC released tokens: %d of %d orphan objects left", got, ref.N)
	}

	env.backends[victim].SetAvailable(true)
	dev2.ProbeFailed(bg)
	stats, err := dev2.GC(bg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shares != ref.N {
		t.Fatalf("full-view GC stats = %+v, want %d shares collected", stats, ref.N)
	}
	if got := orphanObjs(); got != 0 {
		t.Fatalf("%d orphan objects survived the full-view sweep", got)
	}
	if got, _, err := alice.Get(bg, "doc"); err != nil || len(got) != 200 {
		t.Fatalf("alice's referenced file after sweeps: %v", err)
	}
}

// Migration treats content-addressed names as first class: after a
// provider is removed, the next download re-derives the share, stores it
// under the same CAS name at the new location with the user's reference
// token, and a following GC strands nothing and double-frees nothing.
func TestDedupMigrateThenGC(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	alice := env.dedupClient("alice", "alice-user-key")
	data := randData(65, 6_000)
	if err := alice.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	victim := alice.activeCSPs()[0]
	if err := alice.RemoveCSP(bg, victim); err != nil {
		t.Fatal(err)
	}
	// The download triggers lazy migration off the removed provider.
	got, _, err := alice.Get(bg, "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after removal: %v", err)
	}
	stats, err := alice.GC(bg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shares != 0 {
		t.Fatalf("GC deleted %d referenced shares after migration", stats.Shares)
	}
	// No reachable CAS object lost its token (a migrated copy without one
	// would be collected by someone else's sweep — a stranded object is one
	// that outlives every reference, a tokenless one dies too early).
	for name, b := range env.backends {
		if name == victim {
			continue // removed provider keeps its historical copies
		}
		for _, obj := range b.ObjectNames(CASPrefix) {
			if toks := b.RefTokens(obj); len(toks) != 1 || toks[0] != alice.names.RefToken() {
				t.Fatalf("%s %s: tokens %v after migration", name, obj, toks)
			}
		}
	}
	// Reads keep working, and a repeat GC finds nothing to free.
	if got, _, err := alice.Get(bg, "doc"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after GC: %v", err)
	}
	if stats, err := alice.GC(bg); err != nil || stats.Shares != 0 {
		t.Fatalf("second GC = %+v, %v", stats, err)
	}
}
