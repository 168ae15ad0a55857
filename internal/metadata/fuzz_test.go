package metadata

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
)

// FuzzRecordDecode holds the record decoder to three properties on arbitrary
// bytes (seeds under testdata/fuzz/FuzzRecordDecode: both golden records, a
// class-bearing record, a deletion marker, a truncation, version bytes 0 and
// 3, and a v2 record whose chunk list does not hash to its ID):
//
//   - Decode never panics;
//   - an accepted record re-encodes, under the same version byte, to bytes
//     that decode to an equal record — and re-encode to themselves;
//   - an accepted live v2 record's file ID is the hash of its chunk list.
func FuzzRecordDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		if m.IDForm == ChunkListID && !m.File.Deleted && m.File.ID != FileID(m.Chunks) {
			t.Fatalf("accepted live v2 record: file ID %s, chunk list hashes to %s", m.File.ID, FileID(m.Chunks))
		}
		enc, err := Encode(m)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if enc[4] != data[4] {
			t.Fatalf("re-encoded under version %d, decoded from %d", enc[4], data[4])
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		// Encode writes the ShareMap in canonical order; Decode keeps the
		// order it read.
		sort.SliceStable(m.Shares, func(i, j int) bool { return shareLocLess(m.Shares[i], m.Shares[j]) })
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again, m)
		}
		if enc2, err := Encode(again); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("encoding is not a fixed point (%v)", err)
		}
	})
}
