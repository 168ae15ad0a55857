package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Content-addressed share names (convergent dedup mode). A CAS object is
// named
//
//	cyrus-cas-<tag>.s<index>.t<t>
//
// where <tag> is the 40-hex-digit public chunk tag — HMAC-SHA1 of the
// chunk ID under the deployment secret with a tag-specific label
// (erasure.ConvergentCoder.Tag) — so every client sharing the secret
// derives the same name for the same chunk, and the name reveals nothing
// about the dispersal matrix (which uses a different HMAC label). Index
// and t are in clear: GC and migration must parse them back out of raw
// provider listings, where no metadata record is at hand.

// CASPrefix is the object-name prefix for content-addressed chunk shares.
const CASPrefix = "cyrus-cas-"

const casTagLen = 40 // hex-encoded SHA-1

// casShareName builds the object name of one content-addressed share.
func casShareName(tag string, index, t int) string {
	return fmt.Sprintf("%s%s.s%d.t%d", CASPrefix, tag, index, t)
}

// parseCASShareName splits a CAS object name into its chunk tag, share
// index, and privacy level. ok is false for anything that is not a
// well-formed CAS share name.
func parseCASShareName(obj string) (tag string, index, t int, ok bool) {
	if !strings.HasPrefix(obj, CASPrefix) {
		return "", 0, 0, false
	}
	rest := obj[len(CASPrefix):]
	if len(rest) < casTagLen+len(".s0.t1") || rest[casTagLen] != '.' {
		return "", 0, 0, false
	}
	tag = rest[:casTagLen]
	for _, r := range tag {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return "", 0, 0, false
		}
	}
	rest = rest[casTagLen:]
	tDot := strings.LastIndex(rest, ".t")
	if !strings.HasPrefix(rest, ".s") || tDot < 2 {
		return "", 0, 0, false
	}
	if !canonicalDecimal(rest[2:tDot]) || !canonicalDecimal(rest[tDot+2:]) {
		return "", 0, 0, false
	}
	index, err := strconv.Atoi(rest[2:tDot])
	if err != nil {
		return "", 0, 0, false
	}
	t, err = strconv.Atoi(rest[tDot+2:])
	if err != nil || t < 1 {
		return "", 0, 0, false
	}
	return tag, index, t, true
}

// canonicalDecimal reports whether s is a number as the object-name builders
// print it: digits only, no sign, and no leading zero unless s is "0". The
// parsers accept nothing else, so no share index or list sequence has a
// second spelling that a listing could hold beside the first.
func canonicalDecimal(s string) bool {
	if s == "" || (len(s) > 1 && s[0] == '0') {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// ParseCASShareObjectName is the inverse of the dedup-mode ShareObjectName,
// exposed for tools that audit raw provider state (the overlap harness
// classifies every stored object; GC reconciles provider listings against
// the chunk table through it).
func ParseCASShareObjectName(obj string) (tag string, index, t int, ok bool) {
	return parseCASShareName(obj)
}

// IsCASShareObjectName reports whether an object name is a well-formed
// content-addressed share name.
func IsCASShareObjectName(obj string) bool {
	_, _, _, ok := parseCASShareName(obj)
	return ok
}
