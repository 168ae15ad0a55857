package metadata

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"testing"
)

// FuzzVersionIDForm holds VersionID, which builds its input without fmt, to
// the fmt.Fprintf("%s|%s|%s|%s|%t") form record names were first derived
// with: the same hex string for any field bytes — separators, verbs and
// non-UTF-8 included — and IsVersion accepting exactly that string. Seeds
// are checked in under testdata/fuzz/FuzzVersionIDForm.
func FuzzVersionIDForm(f *testing.F) {
	f.Add("id", "", "doc", "alice", false)
	f.Fuzz(func(t *testing.T, id, prev, name, client string, deleted bool) {
		m := &FileMeta{File: FileMap{ID: id, PrevID: prev, Name: name, ClientID: client, Deleted: deleted}}
		h := sha1.New()
		fmt.Fprintf(h, "%s|%s|%s|%s|%t", id, prev, name, client, deleted)
		want := hex.EncodeToString(h.Sum(nil))
		if got := m.VersionID(); got != want {
			t.Fatalf("VersionID = %s, fmt form %s", got, want)
		}
		if !m.IsVersion(want) {
			t.Fatalf("IsVersion rejects its own ID %s", want)
		}
		m.File.Deleted = !deleted
		if m.IsVersion(want) {
			t.Fatalf("IsVersion accepts %s for the record with Deleted flipped", want)
		}
	})
}
