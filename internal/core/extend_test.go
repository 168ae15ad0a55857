package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/metadata"
)

func TestGetRange(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	data := randData(40, 20_000) // many 1 KiB-average chunks
	if err := c.Put(bg, "big", data); err != nil {
		t.Fatal(err)
	}

	cases := []struct{ off, length int64 }{
		{0, 100},
		{5000, 3000},
		{19_900, 100},
		{0, 20_000},
		{12_345, 1},
		{20_000, 0},
		// Length overrun is clamped, including one whose end overflows.
		{19_000, 5_000},
		{1, math.MaxInt64},
	}
	for _, tc := range cases {
		got, _, err := c.GetRange(bg, "big", tc.off, tc.length)
		if err != nil {
			t.Fatalf("GetRange(%d, %d): %v", tc.off, tc.length, err)
		}
		want := data[tc.off:]
		if tc.length < int64(len(want)) {
			want = want[:tc.length]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("GetRange(%d, %d) returned wrong bytes", tc.off, tc.length)
		}
	}
	// Errors.
	if _, _, err := c.GetRange(bg, "big", -1, 10); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, _, err := c.GetRange(bg, "big", 30_000, 10); err == nil {
		t.Fatal("offset past EOF accepted")
	}
	if _, _, err := c.GetRange(bg, "ghost", 0, 10); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("missing file err = %v", err)
	}
}

func TestGetRangeMovesFewerBytes(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	data := randData(41, 40_000)
	if err := c.Put(bg, "big", data); err != nil {
		t.Fatal(err)
	}
	var before int64
	for _, b := range env.backends {
		before += b.Stats().BytesOut
	}
	if _, _, err := c.GetRange(bg, "big", 0, 1000); err != nil {
		t.Fatal(err)
	}
	var after int64
	for _, b := range env.backends {
		after += b.Stats().BytesOut
	}
	moved := after - before
	// A 1000-byte read must move far less than the whole 40 KB file's
	// shares (20 KB at t=2 per share set); one or two chunks' worth only.
	if moved > 12_000 {
		t.Fatalf("range read moved %d bytes from providers", moved)
	}
}

func TestImport(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	// The user has a pre-CYRUS object sitting at one provider.
	raw := cloudsim.NewSimStore(env.backends["cspa"])
	if err := raw.Authenticate(bg, csp.Credentials{Token: "t"}); err != nil {
		t.Fatal(err)
	}
	legacy := randData(42, 9_000)
	if err := raw.Upload(bg, "vacation.jpg", legacy); err != nil {
		t.Fatal(err)
	}

	if err := c.Import(bg, "cspa", "vacation.jpg", "photos/vacation.jpg"); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Get(bg, "photos/vacation.jpg")
	if err != nil || !bytes.Equal(got, legacy) {
		t.Fatalf("imported file: %v", err)
	}
	// The original is untouched.
	still, err := raw.Download(bg, "vacation.jpg")
	if err != nil || !bytes.Equal(still, legacy) {
		t.Fatal("import modified the source object")
	}
	// Default destination name.
	if err := c.Import(bg, "cspa", "vacation.jpg", ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(bg, "vacation.jpg"); err != nil {
		t.Fatal(err)
	}
	// Errors.
	if err := c.Import(bg, "ghost", "x", "y"); err == nil {
		t.Fatal("unknown provider accepted")
	}
	if err := c.Import(bg, "cspa", "missing-object", "y"); err == nil {
		t.Fatal("missing object accepted")
	}
}

func TestGCCollectsOrphans(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	data := randData(43, 6_000)
	if err := c.Put(bg, "live", data); err != nil {
		t.Fatal(err)
	}

	// Fabricate an orphan: scatter a chunk whose metadata never lands.
	orphan := randData(44, 3_000)
	ref := metadata.ChunkRef{ID: metadata.HashData(orphan), Size: int64(len(orphan)), T: 2, N: 3}
	sop := c.engine.Begin(bg)
	locs, err := c.scatterChunk(sop, ref, orphan)
	sop.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c.table.Record(ref, locs)

	var before int
	for _, b := range env.backends {
		before += b.Stats().Objects
	}
	stats, err := c.GC(bg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chunks != 1 || stats.Shares != 3 {
		t.Fatalf("GC stats = %+v", stats)
	}
	var after int
	for _, b := range env.backends {
		after += b.Stats().Objects
	}
	if after != before-3 {
		t.Fatalf("objects %d -> %d, want 3 fewer", before, after)
	}
	// Live data unaffected, another GC is a no-op.
	got, _, err := c.Get(bg, "live")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("live file after GC: %v", err)
	}
	stats, err = c.GC(bg)
	if err != nil || stats.Chunks != 0 {
		t.Fatalf("second GC: %+v, %v", stats, err)
	}
}

func TestGCKeepsHistoryChunks(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c := env.client("alice", nil)
	v1 := randData(45, 4_000)
	v2 := randData(46, 4_000)
	if err := c.Put(bg, "doc", v1); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(bg, "doc", v2); err != nil {
		t.Fatal(err)
	}
	_ = c.Delete(bg, "doc")
	stats, err := c.GC(bg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chunks != 0 {
		t.Fatalf("GC collected %d chunks referenced by history", stats.Chunks)
	}
	// Old versions still restorable.
	hist, err := c.History(bg, "doc")
	if err != nil {
		t.Fatal(err)
	}
	oldest := hist[len(hist)-1]
	got, _, err := getVersion(bg, c, "doc", oldest.VersionID)
	if err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("history version after GC: %v", err)
	}
}

// TestGCAfterCompaction: with TreeRetention 1, repeated same-name conflicts
// that are resolved leave dead branches, and compaction prunes all but the
// newest. The chunk table still records the pruned records' chunks, and GC
// collects exactly those: every chunk a live or retained version references
// keeps all its shares, and the file and the retained loser stay readable.
func TestGCAfterCompaction(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	retain := func(cfg *Config) { cfg.TreeRetention = 1 }
	alice := env.client("alice", retain)
	bob := env.client("bob", retain)
	mine := randData(60, 4_000)
	if err := alice.Put(bg, "doc", mine); err != nil {
		t.Fatal(err)
	}
	winner := mustHeadVersion(t, alice, "doc")

	// Each round bob publishes a second root under the same name, as a
	// client that never saw alice's file would, and alice resolves the
	// conflict in her favour.
	losers := map[string][]byte{} // bob's version ID -> its content
	for round := 0; round < 3; round++ {
		data := randData(int64(61+round), 4_000)
		m := buildVersion(t, bob, "doc", data, "")
		id := m.VersionID()
		op := bob.engine.Begin(bg)
		err := bob.uploadMeta(op, m, id)
		op.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if err := bob.absorb(m, id); err != nil {
			t.Fatal(err)
		}
		losers[id] = data
		if _, err := alice.Sync(bg); err != nil {
			t.Fatal(err)
		}
		if cs := alice.Conflicts(bg); len(cs) != 1 {
			t.Fatalf("round %d: conflicts = %+v, want bob's root against alice's", round, cs)
		}
		if err := alice.Resolve(bg, "doc", winner); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := alice.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if alice.Tree().PrunedCount() == 0 {
		t.Fatal("nothing was pruned: no dead branch to collect")
	}

	// Chunk encodings referenced by what the tree still holds, and by what
	// compaction pruned from it.
	kept := map[string]bool{}
	for _, m := range alice.Tree().All() {
		for _, ref := range m.Chunks {
			kept[ref.EncodingKey()] = true
		}
	}
	type placed struct {
		ref    metadata.ChunkRef
		shares []metadata.ShareLoc
	}
	var pruned []placed
	retained := ""
	for id, data := range losers {
		if _, err := alice.Tree().Get(id); err == nil {
			retained = id
			continue
		}
		for _, ch := range alice.chunk.Split(data) {
			ref := metadata.ChunkRef{ID: metadata.HashData(ch.Data), T: 2, N: 3}
			if info, ok := alice.table.LookupEnc(ref.ID, ""); ok && !kept[ref.EncodingKey()] {
				pruned = append(pruned, placed{ref, info.Shares})
			}
		}
	}
	if len(pruned) == 0 || retained == "" {
		t.Fatalf("%d pruned chunks in the table, retained loser %q: the scenario did not form", len(pruned), retained)
	}

	stats, err := alice.GC(bg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chunks != len(pruned) || stats.Skipped != 0 {
		t.Fatalf("GC stats = %+v, want the %d chunks only pruned records referenced", stats, len(pruned))
	}
	for _, p := range pruned {
		if _, ok := alice.table.LookupEnc(p.ref.ID, ""); ok {
			t.Errorf("pruned-only chunk %s still in the table", p.ref.ID[:8])
		}
		for _, loc := range p.shares {
			name, _ := alice.names.Share(p.ref, loc.Index)
			if _, ok := env.backends[loc.CSP].PeekObject(name); ok {
				t.Errorf("share %d of pruned-only chunk %s left on %s", loc.Index, p.ref.ID[:8], loc.CSP)
			}
		}
	}
	for _, m := range alice.Tree().All() {
		for _, ref := range m.Chunks {
			info, ok := alice.table.LookupEnc(ref.ID, ref.Class)
			if !ok {
				t.Fatalf("chunk %s of a kept version left the table", ref.ID[:8])
			}
			for _, loc := range info.Shares {
				name, _ := alice.names.Share(ref, loc.Index)
				if _, ok := env.backends[loc.CSP].PeekObject(name); !ok {
					t.Errorf("share %d of kept chunk %s collected from %s", loc.Index, ref.ID[:8], loc.CSP)
				}
			}
		}
	}
	if got, _, err := alice.Get(bg, "doc"); err != nil || !bytes.Equal(got, mine) {
		t.Fatalf("Get after GC: %v", err)
	}
	if got, _, err := getVersion(bg, alice, "doc", retained); err != nil || !bytes.Equal(got, losers[retained]) {
		t.Fatalf("retained loser after GC: %v", err)
	}
}

func TestCSPListPropagation(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	alice := env.client("alice", nil)
	bob := env.client("bob", nil)
	data := randData(47, 5_000)
	if err := alice.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}

	// Alice removes a provider; bob learns it through his next sync and
	// stops uploading there.
	victim := alice.activeCSPs()[0]
	if err := alice.RemoveCSP(bg, victim); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Sync(bg); err != nil {
		t.Fatal(err)
	}
	for _, name := range bob.activeCSPs() {
		if name == victim {
			t.Fatalf("bob still considers %s eligible", victim)
		}
	}
	env.backends[victim].ResetStats()
	if err := bob.Put(bg, "bobfile", randData(48, 4_000)); err != nil {
		t.Fatal(err)
	}
	if st := env.backends[victim].Stats(); st.Uploads != 0 {
		t.Fatalf("bob uploaded %d objects to the removed CSP", st.Uploads)
	}

	// Alice reinstates it; bob learns that too.
	if err := alice.ReinstateCSP(bg, victim); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Sync(bg); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range bob.activeCSPs() {
		if name == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("bob did not reinstate %s", victim)
	}
	// Reinstating a non-removed CSP is a no-op; unknown errors.
	if err := alice.ReinstateCSP(bg, victim); err != nil {
		t.Fatal(err)
	}
	if err := alice.ReinstateCSP(bg, "ghost"); err == nil {
		t.Fatal("unknown reinstate accepted")
	}
}

func TestCSPListCodec(t *testing.T) {
	t.Parallel()
	removed := map[string]bool{"b": true, "a": true, "ignored": false}
	enc := encodeCSPList(removed)
	dec := decodeCSPList(enc)
	if !dec["a"] || !dec["b"] || dec["ignored"] || len(dec) != 2 {
		t.Fatalf("round trip = %v", dec)
	}
	if seq, ok := parseCSPListName(cspListName(42)); !ok || seq != 42 {
		t.Fatalf("name round trip = %d, %v", seq, ok)
	}
	for _, bad := range []string{"cyrus-meta-x.s1", "cyrus-meta-csplist.x", "other", cspListStem + "-1"} {
		if _, ok := parseCSPListName(bad); ok {
			t.Fatalf("parsed %q", bad)
		}
	}
}

func TestProbeFailedRecovers(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	c := env.client("alice", func(cfg *Config) { cfg.FailureThreshold = time.Nanosecond })
	env.backends["cspa"].SetAvailable(false)
	_ = c.Put(bg, "f1", randData(49, 2_000))
	_ = c.Put(bg, "f2", randData(50, 2_000))
	if !c.est.Down("cspa") {
		t.Fatal("setup: cspa not down")
	}
	// Probe while still down: nothing recovers.
	if rec := c.ProbeFailed(bg); len(rec) != 0 {
		t.Fatalf("recovered %v while down", rec)
	}
	if !c.est.Down("cspa") {
		t.Fatal("probe cleared a still-down CSP")
	}
	// Provider comes back; probe clears it.
	env.backends["cspa"].SetAvailable(true)
	rec := c.ProbeFailed(bg)
	if len(rec) != 1 || rec[0] != "cspa" {
		t.Fatalf("recovered = %v", rec)
	}
	if c.est.Down("cspa") {
		t.Fatal("cspa still marked down after successful probe")
	}
	// Subsequent uploads may use it again.
	env.backends["cspa"].ResetStats()
	for i := 0; i < 6; i++ {
		if err := c.Put(bg, fmt.Sprintf("后-%d", i), randData(int64(60+i), 2_000)); err != nil {
			t.Fatal(err)
		}
	}
	if env.backends["cspa"].Stats().Uploads == 0 {
		t.Fatal("recovered CSP never used again")
	}
}
