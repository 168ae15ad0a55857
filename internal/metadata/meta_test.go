package metadata

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// buildMeta constructs a valid record: `sizes` chunk sizes tiling the file,
// each chunk shared (t, n) across synthetic CSP names.
func buildMeta(name, content, prevID, clientID string, deleted bool, mod time.Time, t, n int, sizes ...int64) *FileMeta {
	m := &FileMeta{
		File: FileMap{
			ID:       HashData([]byte(content)),
			PrevID:   prevID,
			ClientID: clientID,
			Name:     name,
			Deleted:  deleted,
			Modified: mod,
		},
	}
	var off int64
	for i, sz := range sizes {
		id := HashData([]byte(fmt.Sprintf("%s-chunk-%d", content, i)))
		m.Chunks = append(m.Chunks, ChunkRef{ID: id, Offset: off, Size: sz, T: t, N: n})
		off += sz
		for j := 0; j < n; j++ {
			m.Shares = append(m.Shares, ShareLoc{ChunkID: id, Index: j, CSP: fmt.Sprintf("csp-%d", j)})
		}
	}
	m.File.Size = off
	return m
}

var t0 = time.Date(2014, 7, 1, 12, 0, 0, 0, time.UTC)

func TestValidateAcceptsGoodRecord(t *testing.T) {
	t.Parallel()
	m := buildMeta("doc.txt", "v1", "", "alice", false, t0, 2, 3, 100, 50)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	t.Parallel()
	good := func() *FileMeta { return buildMeta("doc.txt", "v1", "", "alice", false, t0, 2, 3, 100) }

	m := good()
	m.File.ID = ""
	if err := m.Validate(); err == nil {
		t.Error("empty ID accepted")
	}

	m = good()
	m.File.Name = ""
	if err := m.Validate(); err == nil {
		t.Error("empty name accepted")
	}

	m = good()
	m.File.ClientID = ""
	if err := m.Validate(); err == nil {
		t.Error("empty client accepted")
	}

	m = good()
	m.Chunks[0].T = 0
	if err := m.Validate(); err == nil {
		t.Error("t=0 accepted")
	}

	m = good()
	m.Chunks[0].N = 1 // < t
	if err := m.Validate(); err == nil {
		t.Error("n<t accepted")
	}

	m = good()
	m.Chunks[0].Offset = 5 // gap at the start
	if err := m.Validate(); err == nil {
		t.Error("non-tiling chunks accepted")
	}

	m = good()
	m.File.Size = 999
	if err := m.Validate(); err == nil {
		t.Error("size mismatch accepted")
	}

	m = good()
	m.Shares = m.Shares[:2] // fewer than n share locations
	if err := m.Validate(); err == nil {
		t.Error("missing shares accepted")
	}
}

func TestVersionIDDistinguishes(t *testing.T) {
	t.Parallel()
	base := buildMeta("doc.txt", "v1", "", "alice", false, t0, 2, 3, 100)
	sameContentOtherClient := buildMeta("doc.txt", "v1", "", "bob", false, t0, 2, 3, 100)
	if base.VersionID() == sameContentOtherClient.VersionID() {
		t.Error("version ID ignores client")
	}
	child := buildMeta("doc.txt", "v1", base.VersionID(), "alice", false, t0, 2, 3, 100)
	if base.VersionID() == child.VersionID() {
		t.Error("version ID ignores parent")
	}
	deleted := buildMeta("doc.txt", "v1", "", "alice", true, t0, 2, 3, 100)
	if base.VersionID() == deleted.VersionID() {
		t.Error("version ID ignores deletion")
	}
}

func TestSharesOfSorted(t *testing.T) {
	t.Parallel()
	m := buildMeta("f", "v", "", "c", false, t0, 2, 4, 10)
	// Shuffle shares.
	m.Shares[0], m.Shares[3] = m.Shares[3], m.Shares[0]
	got := m.SharesOf(m.Chunks[0].ID)
	if len(got) != 4 {
		t.Fatalf("SharesOf returned %d", len(got))
	}
	for i, s := range got {
		if s.Index != i {
			t.Fatalf("share %d has index %d", i, s.Index)
		}
	}
	if got := m.SharesOf("nonexistent"); len(got) != 0 {
		t.Fatalf("SharesOf(unknown) = %v", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	m := buildMeta("dir/file.bin", "content-v7", "parentid", "client-9", false,
		time.Date(2014, 8, 2, 3, 4, 5, 123456789, time.UTC), 3, 5, 4096, 1024, 777)
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.VersionID() != m.VersionID() {
		t.Fatal("round trip changed version ID")
	}
	if !got.File.Modified.Equal(m.File.Modified) {
		t.Fatalf("Modified %v != %v", got.File.Modified, m.File.Modified)
	}
	if len(got.Chunks) != 3 || len(got.Shares) != 15 {
		t.Fatalf("tables: %d chunks %d shares", len(got.Chunks), len(got.Shares))
	}
	if got.Chunks[1] != m.Chunks[1] {
		t.Fatal("chunk table rows corrupted")
	}
	// The codec serializes the ShareMap in canonical (chunk, index, csp)
	// order, so compare as sets: every original location must survive.
	want := make(map[ShareLoc]bool, len(m.Shares))
	for _, s := range m.Shares {
		want[s] = true
	}
	for _, s := range got.Shares {
		if !want[s] {
			t.Fatalf("share table row corrupted: %+v", s)
		}
		delete(want, s)
	}
	if len(want) != 0 {
		t.Fatalf("share table rows lost: %v", want)
	}
}

// The CAS flag rides the high bit of the encoded t: it must round-trip,
// leave t intact, and stay invisible to records that never set it (wire
// compatibility with pre-dedup builds).
func TestEncodeDecodeCASFlag(t *testing.T) {
	t.Parallel()
	m := buildMeta("f", "cas-content", "", "c1", false, t0, 2, 4, 512, 256)
	m.Chunks[0].CAS = true
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Chunks[0].CAS || got.Chunks[1].CAS {
		t.Fatalf("CAS flags = %v, %v; want true, false", got.Chunks[0].CAS, got.Chunks[1].CAS)
	}
	if got.Chunks[0].T != 2 || got.Chunks[0].N != 4 {
		t.Fatalf("CAS flag leaked into parameters: t=%d n=%d", got.Chunks[0].T, got.Chunks[0].N)
	}

	// A record without the flag encodes byte-identically to one whose CAS
	// fields were never touched — the flag is opt-in on the wire.
	plain := buildMeta("f", "cas-content", "", "c1", false, t0, 2, 4, 512, 256)
	enc1, _ := Encode(plain)
	var zeroed = *got
	zeroed.Chunks = append([]ChunkRef(nil), got.Chunks...)
	zeroed.Chunks[0].CAS = false
	enc2, err := Encode(&zeroed)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc1) != string(enc2) {
		t.Fatal("clearing CAS does not restore the pre-dedup encoding")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	t.Parallel()
	m := buildMeta("f", "v", "", "c", false, t0, 2, 3, 64)
	a, _ := Encode(m)
	b, _ := Encode(m)
	if string(a) != string(b) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	t.Parallel()
	m := buildMeta("f", "v", "", "c", false, t0, 2, 3, 64)
	m.File.Size = 1 // break invariant
	if _, err := Encode(m); err == nil {
		t.Fatal("Encode accepted invalid record")
	}
}

func TestDecodeErrors(t *testing.T) {
	t.Parallel()
	m := buildMeta("f", "v", "", "c", false, t0, 2, 3, 64)
	good, _ := Encode(m)

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), good[4:]...),
		"bad version": append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"truncated":   good[:len(good)-3],
		"trailing":    append(append([]byte{}, good...), 0xFF),
	}
	for name, data := range cases {
		if _, err := Decode(data); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: err = %v, want ErrBadRecord", name, err)
		}
	}
}

func TestDecodeDeletedRecordWithNoChunks(t *testing.T) {
	t.Parallel()
	// Deletion markers carry no chunk data.
	m := &FileMeta{File: FileMap{
		ID: HashData([]byte("v")), ClientID: "c", Name: "f",
		Deleted: true, Modified: t0, Size: 123, PrevID: "parent",
	}}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.File.Deleted || len(got.Chunks) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestHashData(t *testing.T) {
	t.Parallel()
	// SHA-1("abc") is a fixed vector.
	if got := HashData([]byte("abc")); got != "a9993e364706816aba3e25717850c26c9cd0d89d" {
		t.Fatalf("HashData(abc) = %s", got)
	}
}
