package metadata

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
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

// v2RecordHex is legacyRecord() in format v2: version byte 2 and the
// chunk-list file ID v2FileID in place of the content hash, every other byte
// as in legacyRecordHex. v2FileID is SHA-1("cyrus-file-v2" ‖ raw chunk ID ‖
// u64 size, per chunk), computed independently of this package.
const v2RecordHex = "4359524d02002831313932626565326436636539636262656566363433636561" +
	"3064326332366230346137383634660000000d6c65676163792d636c69656e74" +
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

const (
	v2FileID    = "1192bee2d6ce9cbbeef643cea0d2c26b04a7864f"
	v2VersionID = "1711121d3e5df7b5f58994f9e9c13c6da899922d"
)

func v2Record() *FileMeta {
	m := legacyRecord()
	m.IDForm = ChunkListID
	m.File.ID = FileID(m.Chunks)
	return m
}

// TestGoldenV2Record pins format v2 at the byte level: the chunk-list file ID,
// the encoding (the v1 layout with only the version byte and the ID string
// changed, so record sizes do not move), the version ID, and a lossless
// decode. A decoded v1 record keeps its form and re-encodes to its original
// bytes.
func TestGoldenV2Record(t *testing.T) {
	golden, err := hex.DecodeString(v2RecordHex)
	if err != nil {
		t.Fatalf("bad fixture hex: %v", err)
	}
	m := v2Record()
	if m.File.ID != v2FileID {
		t.Fatalf("FileID = %s, want %s", m.File.ID, v2FileID)
	}
	data, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(data, golden) {
		t.Fatalf("v2 record encoding moved:\n got %s\nwant %s", hex.EncodeToString(data), v2RecordHex)
	}
	legacy, _ := hex.DecodeString(legacyRecordHex)
	if len(golden) != len(legacy) {
		t.Fatalf("v2 record is %d bytes, v1 %d", len(golden), len(legacy))
	}
	idField := 7 + len(v2FileID) // magic, version, u16 length, ID
	for i := range golden {
		if golden[i] != legacy[i] && i != 4 && (i < 7 || i >= idField) {
			t.Fatalf("v2 differs from v1 at byte %d, outside the version byte and file ID", i)
		}
	}

	dec, err := Decode(golden)
	if err != nil {
		t.Fatalf("Decode(v2 golden): %v", err)
	}
	if !reflect.DeepEqual(dec, m) {
		t.Fatalf("v2 decode lost data:\n got %+v\nwant %+v", dec, m)
	}
	if dec.VersionID() != v2VersionID {
		t.Fatalf("v2 version ID = %s, want %s", dec.VersionID(), v2VersionID)
	}

	v1, err := Decode(legacy)
	if err != nil || v1.IDForm != ContentID {
		t.Fatalf("Decode(v1 golden) = form %v, %v", v1, err)
	}
	if again, err := Encode(v1); err != nil || !bytes.Equal(again, legacy) {
		t.Fatalf("decoded v1 record re-encodes to other bytes (%v)", err)
	}
}

// TestV2Validate: a live v2 record must carry the hash of its own chunk list
// — Encode and Decode both refuse one that does not — while a v2 deletion
// marker (no chunks) and any v1 record are not list-checked.
func TestV2Validate(t *testing.T) {
	// rename gives chunk i a new ID, shares included, so only the list check
	// can object.
	rename := func(m *FileMeta, i int, id string) {
		for j := range m.Shares {
			if m.Shares[j].ChunkID == m.Chunks[i].ID {
				m.Shares[j].ChunkID = id
			}
		}
		m.Chunks[i].ID = id
	}
	for name, mutate := range map[string]func(m *FileMeta){
		"chunk replaced": func(m *FileMeta) { rename(m, 1, HashData([]byte("other"))) },
		"sizes moved":    func(m *FileMeta) { m.Chunks[0].Size, m.Chunks[1].Offset, m.Chunks[1].Size = 1000, 1000, 1048 },
		"order swapped": func(m *FileMeta) {
			m.Chunks[0].Offset, m.Chunks[1].Offset = 1024, 0
			m.Chunks[0], m.Chunks[1] = m.Chunks[1], m.Chunks[0]
		},
		"content-hash ID":  func(m *FileMeta) { m.File.ID = legacyRecord().File.ID },
		"non-digest chunk": func(m *FileMeta) { rename(m, 0, strings.Repeat("g", 40)) },
		"unknown form":     func(m *FileMeta) { m.IDForm = ChunkListID + 1 },
	} {
		m := v2Record()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the record", name)
		}
		if _, err := Encode(m); err == nil {
			t.Errorf("%s: Encode accepted the record", name)
		}
	}

	// The same check at the wire: a v1 encoding whose version byte says 2.
	data, _ := hex.DecodeString(legacyRecordHex)
	data[4] = 2
	if _, err := Decode(data); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("Decode of a content-hash ID under version 2: %v, want ErrBadRecord", err)
	}
	for _, v := range []byte{0, 3, 0xff} {
		data[4] = v
		if _, err := Decode(data); !errors.Is(err, ErrBadRecord) {
			t.Errorf("Decode accepted version byte %d", v)
		}
	}

	marker := &FileMeta{File: FileMap{ID: v2FileID, PrevID: v2VersionID, ClientID: "c", Name: "docs/notes.txt", Deleted: true}, IDForm: ChunkListID}
	if err := marker.Validate(); err != nil {
		t.Fatalf("v2 deletion marker: %v", err)
	}
}

// TestFileID: the list hash depends on every chunk's ID, size and position,
// and the domain label keeps it apart from any content hash.
func TestFileID(t *testing.T) {
	chunks := legacyRecord().Chunks
	base := FileID(chunks)
	if base != v2FileID {
		t.Fatalf("FileID = %s, want %s", base, v2FileID)
	}
	if empty := FileID(nil); empty == HashData(nil) || empty != "38d513b2c8d95169348de3e4e5688a6f9d5542a8" {
		t.Fatalf("FileID(nil) = %s", empty)
	}
	swapped := []ChunkRef{chunks[1], chunks[0]}
	resized := []ChunkRef{chunks[0], chunks[1]}
	resized[1].Size++
	for name, cs := range map[string][]ChunkRef{"order": swapped, "size": resized, "prefix": chunks[:1]} {
		if FileID(cs) == base {
			t.Errorf("FileID ignores chunk %s", name)
		}
	}
	// Class, (t, n) and CAS are encoding, not identity: re-encoding into
	// another class keeps the file ID.
	recoded := []ChunkRef{chunks[0], chunks[1]}
	recoded[0].Class, recoded[0].T, recoded[0].N, recoded[1].CAS = "cold", 3, 5, false
	if FileID(recoded) != base {
		t.Error("FileID depends on the chunk encoding")
	}
}

// TestHolds: a record holds exactly its own bytes, whichever form its file
// ID has; a deletion marker holds nothing.
func TestHolds(t *testing.T) {
	a, b := []byte(strings.Repeat("a", 1024)), []byte(strings.Repeat("b", 1024))
	content := append(bytes.Clone(a), b...)
	chunks := []ChunkRef{
		{ID: HashData(a), Offset: 0, Size: 1024, T: 1, N: 1},
		{ID: HashData(b), Offset: 1024, Size: 1024, T: 1, N: 1},
	}
	v1 := &FileMeta{File: FileMap{ID: HashData(content), ClientID: "c", Name: "f", Size: 2048}, Chunks: chunks}
	v2 := &FileMeta{File: FileMap{ID: FileID(chunks), ClientID: "c", Name: "f", Size: 2048}, Chunks: chunks, IDForm: ChunkListID}
	for _, m := range []*FileMeta{v1, v2} {
		if !m.Holds(content) {
			t.Errorf("form %d: record does not hold its own content", m.IDForm)
		}
		flipped := bytes.Clone(content)
		flipped[1500] ^= 1
		for name, data := range map[string][]byte{"flipped": flipped, "short": content[:2047], "swapped": append(bytes.Clone(b), a...)} {
			if m.Holds(data) {
				t.Errorf("form %d: record holds %s content", m.IDForm, name)
			}
		}
	}
	v1.File.ID = v2.File.ID // chunks still match, the v1 content hash does not
	if v1.Holds(content) {
		t.Error("v1 record with a list-hash ID holds the content")
	}
	v2.File.Deleted = true
	if v2.Holds(content) {
		t.Error("deletion marker holds content")
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
