package metadata

import (
	"testing"
)

func chunkWithShares(id string, size int64, t, n int) (ChunkRef, []ShareLoc) {
	c := ChunkRef{ID: id, Size: size, T: t, N: n}
	var shares []ShareLoc
	for i := 0; i < n; i++ {
		shares = append(shares, ShareLoc{ChunkID: id, Index: i, CSP: "csp-" + string(rune('a'+i))})
	}
	return c, shares
}

func TestChunkTableAddLookup(t *testing.T) {
	t.Parallel()
	ct := NewChunkTable()
	c, shares := chunkWithShares("c1", 100, 2, 3)
	if _, ok := ct.LookupEnc("c1", ""); ok {
		t.Fatal("empty table claims chunk stored")
	}
	ct.AddVersionRef(c, shares, "")
	if ct.Len() != 1 {
		t.Fatal("chunk not stored after AddVersionRef")
	}
	info, ok := ct.LookupEnc("c1", "")
	if !ok || info.Refs != 1 || len(info.Shares) != 3 {
		t.Fatalf("Lookup = %+v, %v", info, ok)
	}
	if info.Shares[1] != "csp-b" {
		t.Fatalf("share 1 on %s", info.Shares[1])
	}
	// Lookup returns a copy.
	info.Shares[1] = "mutated"
	info2, _ := ct.LookupEnc("c1", "")
	if info2.Shares[1] == "mutated" {
		t.Fatal("Lookup aliases table state")
	}
	if _, ok := ct.LookupEnc("missing", ""); ok {
		t.Fatal("Lookup(missing) = ok")
	}
}

func TestChunkTableRefCounting(t *testing.T) {
	t.Parallel()
	ct := NewChunkTable()
	c, shares := chunkWithShares("c1", 100, 2, 3)
	ct.AddVersionRef(c, shares, "")
	ct.AddVersionRef(c, nil, "") // second referencing version; locations known

	if _, gone := ct.Release("c1"); gone {
		t.Fatal("chunk removed while still referenced")
	}
	removed, gone := ct.Release("c1")
	if !gone {
		t.Fatal("chunk not removed at refcount zero")
	}
	if len(removed) != 3 || removed[0].Index != 0 || removed[2].CSP != "csp-c" {
		t.Fatalf("removed = %+v", removed)
	}
	if _, ok := ct.LookupEnc("c1", ""); ok {
		t.Fatal("chunk still stored after removal")
	}
	if _, gone := ct.Release("c1"); gone {
		t.Fatal("double release reported removal")
	}
}

func TestChunkTableMoveShare(t *testing.T) {
	t.Parallel()
	ct := NewChunkTable()
	c, shares := chunkWithShares("c1", 100, 2, 3)
	ct.AddVersionRef(c, shares, "")
	if !ct.MoveShareEnc("c1", "", 1, "new-cloud") {
		t.Fatal("MoveShare failed")
	}
	info, _ := ct.LookupEnc("c1", "")
	if info.Shares[1] != "new-cloud" {
		t.Fatalf("share not moved: %v", info.Shares)
	}
	if ct.MoveShareEnc("c1", "", 9, "x") {
		t.Fatal("moved nonexistent share index")
	}
	if ct.MoveShareEnc("nope", "", 0, "x") {
		t.Fatal("moved share of unknown chunk")
	}
}

func TestChunkTableSharesOn(t *testing.T) {
	t.Parallel()
	ct := NewChunkTable()
	c1, s1 := chunkWithShares("c1", 100, 2, 3)
	c2, s2 := chunkWithShares("c2", 100, 2, 2)
	ct.AddVersionRef(c1, s1, "")
	ct.AddVersionRef(c2, s2, "")
	got := ct.SharesOn("csp-a")
	if len(got) != 2 || got[0] != "c1" || got[1] != "c2" {
		t.Fatalf("SharesOn(csp-a) = %v", got)
	}
	got = ct.SharesOn("csp-c")
	if len(got) != 1 || got[0] != "c1" {
		t.Fatalf("SharesOn(csp-c) = %v", got)
	}
	if got := ct.SharesOn("unused"); len(got) != 0 {
		t.Fatalf("SharesOn(unused) = %v", got)
	}
}

func TestChunkTableTotalStoredBytes(t *testing.T) {
	t.Parallel()
	ct := NewChunkTable()
	c1, s1 := chunkWithShares("c1", 100, 2, 3) // share 50, x3 = 150
	c2, s2 := chunkWithShares("c2", 99, 2, 2)  // share 50 (ceil), x2 = 100
	ct.AddVersionRef(c1, s1, "")
	ct.AddVersionRef(c2, s2, "")
	if got := ct.TotalStoredBytes(); got != 250 {
		t.Fatalf("TotalStoredBytes = %d, want 250", got)
	}
}

func TestChunkTableRebuild(t *testing.T) {
	t.Parallel()
	m1 := buildMeta("a", "v1", "", "c", false, t0, 2, 3, 100)
	m2 := buildMeta("b", "v2", "", "c", false, t0, 2, 3, 100)
	// m3 reuses m1's chunk (dedup across files).
	m3 := buildMeta("c", "v3", "", "c", false, t0, 2, 3, 100)
	m3.Chunks = append([]ChunkRef(nil), m1.Chunks...)
	m3.Shares = append([]ShareLoc(nil), m1.Shares...)
	m3.File.Size = m1.File.Size

	ct := NewChunkTable()
	ct.Rebuild([]*FileMeta{m1, m2, m3})
	if ct.Len() != 2 {
		t.Fatalf("Rebuild: %d unique chunks, want 2", ct.Len())
	}
	info, _ := ct.LookupEnc(m1.Chunks[0].ID, "")
	if info.Refs != 2 {
		t.Fatalf("shared chunk refs = %d, want 2", info.Refs)
	}
}
