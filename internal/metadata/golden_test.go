package metadata

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
	"time"
)

// legacyRecordHex is the serialized form of legacyRecord() as written by the
// pre-class codec (codecVersion 1, no class flags). It pins two compatibility
// guarantees at the byte level:
//
//  1. a record whose chunks are all in the default class ("") still encodes
//     to exactly these bytes — adding storage classes changed nothing about
//     classless records, so mixed fleets interoperate;
//  2. records already in the cloud (all written before classes existed)
//     decode losslessly, with every chunk mapped to the default class.
const legacyRecordHex = "4359524d01002861616634633631646463633565386132646162656465306633" +
	"6234383263643961656139343334640000000d6c65676163792d636c69656e74" +
	"000e646f63732f6e6f7465732e7478740017979cfe362a000000000000000008" +
	"0000000002002832616165366333356339346663666234313564626539356634" +
	"3038623963653931656538343665640000000000000000000000000000040000" +
	"0200030028376334613864303963613337363261663631653539353230393433" +
	"6463323634393466383934316200000000000004000000000000000400800200" +
	"0300000006002832616165366333356339346663666234313564626539356634" +
	"3038623963653931656538343665640000000764726f70626f78002832616165" +
	"3663333563393466636662343135646265393566343038623963653931656538" +
	"3436656400010006676472697665002832616165366333356339346663666234" +
	"31356462653935663430386239636539316565383436656400020003626f7800" +
	"2837633461386430396361333736326166363165353935323039343364633236" +
	"3439346638393431620000000667647269766500283763346138643039636133" +
	"3736326166363165353935323039343364633236343934663839343162000100" +
	"03626f7800283763346138643039636133373632616636316535393532303934" +
	"33646332363439346638393431620002000764726f70626f78"

const legacyVersionID = "48295e8e3893ce9e194e082d4822a88d685b9dd9"

func legacyRecord() *FileMeta {
	return &FileMeta{
		File: FileMap{
			ID:       "aaf4c61ddcc5e8a2dabede0f3b482cd9aea9434d",
			ClientID: "legacy-client",
			Name:     "docs/notes.txt",
			Modified: time.Unix(1700000000, 0).UTC(),
			Size:     2048,
		},
		Chunks: []ChunkRef{
			{ID: "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed", Offset: 0, Size: 1024, T: 2, N: 3},
			{ID: "7c4a8d09ca3762af61e59520943dc26494f8941b", Offset: 1024, Size: 1024, T: 2, N: 3, CAS: true},
		},
		Shares: []ShareLoc{
			{ChunkID: "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed", Index: 0, CSP: "dropbox"},
			{ChunkID: "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed", Index: 1, CSP: "gdrive"},
			{ChunkID: "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed", Index: 2, CSP: "box"},
			{ChunkID: "7c4a8d09ca3762af61e59520943dc26494f8941b", Index: 0, CSP: "gdrive"},
			{ChunkID: "7c4a8d09ca3762af61e59520943dc26494f8941b", Index: 1, CSP: "box"},
			{ChunkID: "7c4a8d09ca3762af61e59520943dc26494f8941b", Index: 2, CSP: "dropbox"},
		},
	}
}

// TestGoldenClasslessRecord pins the pre-class wire format: classless
// records written by the class-aware codec are byte-for-byte what the old
// codec produced, and the golden bytes decode to a record whose chunks all
// carry the default class.
func TestGoldenClasslessRecord(t *testing.T) {
	golden, err := hex.DecodeString(legacyRecordHex)
	if err != nil {
		t.Fatalf("bad fixture hex: %v", err)
	}
	m := legacyRecord()
	data, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(data, golden) {
		t.Fatalf("classless record no longer encodes byte-identically to the pre-class format:\n got %s\nwant %s",
			hex.EncodeToString(data), legacyRecordHex)
	}

	dec, err := Decode(golden)
	if err != nil {
		t.Fatalf("Decode(golden): %v", err)
	}
	if dec.VersionID() != legacyVersionID {
		t.Fatalf("golden record version ID = %s, want %s", dec.VersionID(), legacyVersionID)
	}
	for i, c := range dec.Chunks {
		if c.Class != "" {
			t.Errorf("chunk %d: legacy record decoded with class %q, want default", i, c.Class)
		}
	}
	if !dec.Chunks[1].CAS || dec.Chunks[0].CAS {
		t.Errorf("CAS flags mangled: got %v/%v, want false/true", dec.Chunks[0].CAS, dec.Chunks[1].CAS)
	}
	if dec.Chunks[0].T != 2 || dec.Chunks[0].N != 3 {
		t.Errorf("chunk 0 (t,n) = (%d,%d), want (2,3)", dec.Chunks[0].T, dec.Chunks[0].N)
	}
}

// TestCodecClassRoundTrip checks class-bearing chunks survive the codec,
// coexisting with the CAS flag, and that the class flag costs nothing on
// classless chunks.
func TestCodecClassRoundTrip(t *testing.T) {
	m := legacyRecord()
	m.Chunks[0].Class = "cold"
	m.Chunks[1].Class = "archive-9"
	data, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Chunks[0].Class != "cold" || dec.Chunks[1].Class != "archive-9" {
		t.Fatalf("classes did not round-trip: %q, %q", dec.Chunks[0].Class, dec.Chunks[1].Class)
	}
	if !dec.Chunks[1].CAS {
		t.Fatal("CAS flag lost when combined with class flag")
	}
	if dec.Chunks[0].T != 2 || dec.Chunks[1].T != 2 {
		t.Fatalf("t corrupted by flag bits: %d, %d", dec.Chunks[0].T, dec.Chunks[1].T)
	}

	// The only growth over the classless encoding is the two class strings
	// plus their length prefixes.
	classless, err := Encode(legacyRecord())
	if err != nil {
		t.Fatalf("Encode classless: %v", err)
	}
	want := len(classless) + 2 + len("cold") + 2 + len("archive-9")
	if len(data) != want {
		t.Fatalf("class encoding size %d, want %d", len(data), want)
	}
}

// TestEncodingKey covers the composite-key mapping the chunk table and GC
// rely on: default class keys as the bare ID, named classes round-trip.
func TestEncodingKey(t *testing.T) {
	if got := EncodingKey("abc", ""); got != "abc" {
		t.Fatalf("EncodingKey(abc, \"\") = %q", got)
	}
	key := EncodingKey("abc", "cold")
	if key == "abc" || !strings.HasPrefix(key, "abc") {
		t.Fatalf("EncodingKey(abc, cold) = %q", key)
	}
	id, class := SplitEncodingKey(key)
	if id != "abc" || class != "cold" {
		t.Fatalf("SplitEncodingKey(%q) = %q, %q", key, id, class)
	}
	id, class = SplitEncodingKey("abc")
	if id != "abc" || class != "" {
		t.Fatalf("SplitEncodingKey(abc) = %q, %q", id, class)
	}
}

// TestChunkTableEncodings checks the table keeps hot and cold encodings of
// one chunk apart: dedup lookups are class-scoped and releasing one
// encoding leaves the other stored.
func TestChunkTableEncodings(t *testing.T) {
	tbl := NewChunkTable()
	hot := ChunkRef{ID: "c1", Size: 100, T: 2, N: 4}
	cold := ChunkRef{ID: "c1", Size: 100, T: 3, N: 8, Class: "cold"}
	tbl.AddVersionRef(hot, []ShareLoc{{ChunkID: "c1", Index: 0, CSP: "a"}}, "v1")
	tbl.AddVersionRef(cold, []ShareLoc{{ChunkID: "c1", Index: 0, CSP: "b"}}, "v2")

	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2 encodings", tbl.Len())
	}
	h, ok := tbl.LookupEnc("c1", "")
	if !ok || h.T != 2 || h.N != 4 || h.Class != "" {
		t.Fatalf("hot lookup = %+v, %v", h, ok)
	}
	c, ok := tbl.LookupEnc("c1", "cold")
	if !ok || c.T != 3 || c.N != 8 || c.Class != "cold" {
		t.Fatalf("cold lookup = %+v, %v", c, ok)
	}
	if _, ok := tbl.LookupEnc("c1", "archive"); ok {
		t.Fatal("lookup under an unwritten class must miss")
	}

	if !tbl.MoveShareEnc("c1", "cold", 0, "c") {
		t.Fatal("MoveShareEnc failed")
	}
	c, _ = tbl.LookupEnc("c1", "cold")
	if c.Shares[0] != "c" {
		t.Fatalf("cold share not moved: %v", c.Shares)
	}
	h, _ = tbl.LookupEnc("c1", "")
	if h.Shares[0] != "a" {
		t.Fatalf("hot share moved by a cold-class MoveShare: %v", h.Shares)
	}

	if _, gone := tbl.Release(EncodingKey("c1", "cold")); !gone {
		t.Fatal("cold encoding should release to zero")
	}
	if _, ok := tbl.LookupEnc("c1", ""); !ok {
		t.Fatal("releasing the cold encoding dropped the hot one")
	}

	ents := tbl.Entries()
	if len(ents) != 1 || ents[0].ID != "c1" || ents[0].Class != "" {
		t.Fatalf("Entries after release = %+v", ents)
	}
}
