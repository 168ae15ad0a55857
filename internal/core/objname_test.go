package core

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/metadata"
)

// FuzzObjectNames holds the three object-name parsers that classify raw
// provider listings (GC, the CSP-list reader, the chaos harness) to their
// builders: no input panics, and every name a parser accepts is exactly the
// name its builder writes for the parsed fields. A parser that accepted a
// second spelling ("s01", "s+1") would let two objects alias one share index
// or one list sequence. The metadata-share name, name tag and record key
// builders are held to the fmt forms they replaced, byte for byte. Seeds are
// checked in under testdata/fuzz.
func FuzzObjectNames(f *testing.F) {
	f.Add(casShareName("0123456789abcdef0123456789abcdef01234567", 1, 2))
	f.Add(metaShareName("0123456789abcdef-v1", 2))
	f.Add(cspListName(5))
	f.Fuzz(func(t *testing.T, name string) {
		if tag, index, tt, ok := parseCASShareName(name); ok {
			if got := casShareName(tag, index, tt); got != name {
				t.Errorf("parseCASShareName accepted %q, which rebuilds as %q", name, got)
			}
		}
		if rec, index, ok := parseMetaShareName(name); ok {
			if got := metaShareName(rec, index); got != name {
				t.Errorf("parseMetaShareName accepted %q, which rebuilds as %q", name, got)
			}
		}
		if seq, ok := parseCSPListName(name); ok {
			if got := cspListName(seq); got != name {
				t.Errorf("parseCSPListName accepted %q, which rebuilds as %q", name, got)
			}
		}
		// The builders that skip fmt write the bytes the fmt forms wrote,
		// for any record key and index, and for any key and file name.
		for _, index := range []int{0, 7, 128} {
			if got, want := metaShareName(name, index), fmt.Sprintf("%s%s.s%d", metadata.MetaPrefix, name, index); got != want {
				t.Errorf("metaShareName(%q, %d) = %q, fmt form %q", name, index, got, want)
			}
		}
		names := NewNames(name, "")
		h := sha1.New()
		fmt.Fprintf(h, "%s|meta-name|%s", names.keyHash, name)
		want := hex.EncodeToString(h.Sum(nil))[:metaTagLen]
		if got := names.metaTag(name); got != want {
			t.Errorf("metaTag(%q) = %s, fmt form %s", name, got, want)
		}
		if got := names.recordKey(name, name); got != want+"-"+name {
			t.Errorf("recordKey(%q, %q) = %q, want %q", name, name, got, want+"-"+name)
		}
	})
}
