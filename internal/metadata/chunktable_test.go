package metadata

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
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
	// Upload order, not index order: the table sorts by index.
	ct.Record(c, []ShareLoc{shares[2], shares[0], shares[1]})
	if ct.Len() != 1 {
		t.Fatal("chunk not stored after Record")
	}
	info, ok := ct.LookupEnc("c1", "")
	if !ok || info.Size != 100 || info.T != 2 || info.N != 3 || !slices.Equal(info.Shares, shares) {
		t.Fatalf("Lookup = %+v, %v", info, ok)
	}
	if _, ok := ct.LookupEnc("missing", ""); ok {
		t.Fatal("Lookup(missing) = ok")
	}
}

// TestChunkTableRecordMerges records three files' chunks, one file reusing
// another's chunk: the table holds one entry per unique chunk, recording a
// known chunk again changes nothing, and a later location for an index
// replaces the earlier one while shares of other chunks are ignored.
func TestChunkTableRecordMerges(t *testing.T) {
	t.Parallel()
	m1 := buildMeta("a", "v1", "", "c", false, t0, 2, 3, 100)
	m2 := buildMeta("b", "v2", "", "c", false, t0, 2, 3, 100)
	m3 := buildMeta("c", "v3", "", "c", false, t0, 2, 3, 100)
	m3.Chunks = append([]ChunkRef(nil), m1.Chunks...)
	m3.Shares = append([]ShareLoc(nil), m1.Shares...)
	m3.File.Size = m1.File.Size

	ct := NewChunkTable()
	for _, m := range []*FileMeta{m1, m2, m3} {
		for _, c := range m.Chunks {
			ct.Record(c, m.Shares)
		}
	}
	if ct.Len() != 2 {
		t.Fatalf("%d unique chunks, want 2", ct.Len())
	}
	id := m1.Chunks[0].ID
	before, _ := ct.LookupEnc(id, "")
	ct.Record(m1.Chunks[0], nil)
	if again, _ := ct.LookupEnc(id, ""); !slices.Equal(again.Shares, before.Shares) {
		t.Fatalf("re-recording changed the shares: %v -> %v", before.Shares, again.Shares)
	}

	moved := append([]ShareLoc{{ChunkID: id, Index: 1, CSP: "elsewhere"}}, m2.Shares...)
	ct.Record(m1.Chunks[0], moved)
	after, _ := ct.LookupEnc(id, "")
	if len(after.Shares) != len(before.Shares) || after.Shares[1].CSP != "elsewhere" {
		t.Fatalf("shares after a moved index = %v", after.Shares)
	}
	if before.Shares[1].CSP == "elsewhere" {
		t.Fatal("Record rewrote a slice it had handed out")
	}
}

func TestChunkTableMoveShare(t *testing.T) {
	t.Parallel()
	ct := NewChunkTable()
	c, shares := chunkWithShares("c1", 100, 2, 3)
	ct.Record(c, shares)
	if !ct.MoveShareEnc("c1", "", 1, "new-cloud") {
		t.Fatal("MoveShare failed")
	}
	info, _ := ct.LookupEnc("c1", "")
	if info.Shares[1] != (ShareLoc{ChunkID: "c1", Index: 1, CSP: "new-cloud"}) {
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
	ct.Record(c1, s1)
	ct.Record(c2, s2)
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

// TestChunkTableLookupIsSnapshot holds the table to its contract that a
// Shares slice it returned never changes: readers keep what LookupEnc gave
// them while a writer moves shares and records new locations.
// Under -race a write into a handed-out slice is also reported as a race.
func TestChunkTableLookupIsSnapshot(t *testing.T) {
	t.Parallel()
	ct := NewChunkTable()
	c, shares := chunkWithShares("c1", 100, 2, 3)
	ct.Record(c, shares)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				info, _ := ct.LookupEnc("c1", "")
				got := info.Shares
				want := slices.Clone(got)
				runtime.Gosched()
				if len(got) != 3 || !slices.Equal(got, want) {
					t.Errorf("a returned Shares slice changed: %v, was %v", got, want)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		ct.MoveShareEnc("c1", "", i%3, fmt.Sprintf("m%d", i))
		ct.Record(c, []ShareLoc{{ChunkID: "c1", Index: (i + 1) % 3, CSP: fmt.Sprintf("r%d", i)}})
	}
	close(stop)
	wg.Wait()
}
