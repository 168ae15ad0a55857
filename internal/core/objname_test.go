package core

import "testing"

// FuzzObjectNames holds the three object-name parsers that classify raw
// provider listings (GC, the CSP-list reader, the chaos harness) to their
// builders: no input panics, and every name a parser accepts is exactly the
// name its builder writes for the parsed fields. A parser that accepted a
// second spelling ("s01", "s+1") would let two objects alias one share index
// or one list sequence. Seeds are checked in under testdata/fuzz.
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
	})
}
