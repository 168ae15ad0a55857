package core

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/erasure"
	"repro/internal/metadata"
)

// Object names. Every provider object the client writes for a chunk share or
// a metadata share is named here, from the user's key and — for
// content-addressed shares — the deployment's dedup secret. Three forms:
//
//	cyrus-share-<hex SHA-1 of key hash, chunk ID, index, t>   keyed chunk share
//	cyrus-cas-<tag>.s<index>.t<t>                             content-addressed chunk share
//	cyrus-meta-<tag>-<versionID>.s<index>                     metadata share
//
// A keyed share name is the paper's H'(index, H(chunk.content)): opaque to
// providers, recoverable by any key holder, and unique per (content, index,
// t) so re-uploads are idempotent.
//
// A CAS tag is the 40-hex-digit public chunk tag — HMAC-SHA1 of the chunk ID
// under the deployment secret with a tag-specific label
// (erasure.ConvergentCoder.Tag) — so every client sharing the secret derives
// the same name for the same chunk, and the name reveals nothing about the
// dispersal matrix (which uses a different HMAC label). Index and t are in
// clear: GC and migration must parse them back out of raw provider listings,
// where no metadata record is at hand.
//
// A metadata tag is a 16-hex-digit keyed hash of the file name: every key
// holder derives the same tag, so the records of one name are found by
// listing the prefix cyrus-meta-<tag>- — O(versions of that name) entries —
// instead of the whole namespace. A provider can group the records of one
// opaque name by it; it learns neither the name nor any content. Records
// written before the tag existed are named cyrus-meta-<versionID>.s<index>;
// they match only the whole-prefix listing of a full Sync.

// SharePrefix is the object-name prefix for chunk shares.
const SharePrefix = "cyrus-share-"

// CASPrefix is the object-name prefix for content-addressed chunk shares.
const CASPrefix = "cyrus-cas-"

const casTagLen = 40 // hex-encoded SHA-1

// metaTagLen is the length of the name tag in a metadata share name.
const metaTagLen = 16

// Names is one user's object-naming scheme. The client names every share it
// stores through one, and a tool auditing raw provider state builds its own
// from the same key and dedup secret to derive the same names.
type Names struct {
	keyHash string                   // hex SHA-1 of the user's key
	conv    *erasure.ConvergentCoder // nil without a dedup secret
}

// NewNames builds the naming scheme of the user holding key, in a deployment
// whose dedup secret is dedupSecret ("" when there is none: content-addressed
// names are then underivable).
func NewNames(key, dedupSecret string) Names {
	sum := sha1.Sum([]byte(key))
	n := Names{keyHash: hex.EncodeToString(sum[:])}
	if dedupSecret != "" {
		n.conv = erasure.NewConvergentCoder(dedupSecret)
	}
	return n
}

// Share returns the object name of share i of a chunk, following the chunk's
// addressing mode: a content-addressed name for a CAS chunk, a keyed name
// otherwise.
func (n Names) Share(ref metadata.ChunkRef, i int) (string, error) {
	if ref.CAS {
		if n.conv == nil {
			return "", fmt.Errorf("cyrus: chunk %s is content-addressed but no DedupSecret is configured", ref.ID)
		}
		return casShareName(n.conv.Tag(ref.ID), i, ref.T), nil
	}
	h := sha1.New()
	fmt.Fprintf(h, "%s|%s|%d|%d", n.keyHash, ref.ID, i, ref.T)
	return SharePrefix + hex.EncodeToString(h.Sum(nil)), nil
}

// MetaShare returns the object name of share i of a version's metadata
// record.
func (n Names) MetaShare(file, versionID string, i int) string {
	return metaShareName(n.recordKey(file, versionID), i)
}

// RefToken is the user's reference token on content-addressed share
// objects: one token per user key, so a CAS object's token set counts the
// users referencing it. Not version-scoped — share upload happens before the
// referencing version's ID exists.
func (n Names) RefToken() string {
	return n.keyHash[:16]
}

// metaTag is the keyed hash of a file name that groups the name's records
// (the key hash of a keyed share name, with its own domain label).
func (n Names) metaTag(file string) string {
	h := sha1.New()
	fmt.Fprintf(h, "%s|meta-name|%s", n.keyHash, file)
	return hex.EncodeToString(h.Sum(nil))[:metaTagLen]
}

// recordKey returns the record key new shares of a version are written
// under. A record key is the part of a record's share names between
// MetaPrefix and ".s<index>": "<tag>-<versionID>", or the bare version ID of
// a legacy record. Listings are keyed by it, so a record is read, healed and
// re-placed under the names it was found under.
func (n Names) recordKey(file, versionID string) string {
	return n.metaTag(file) + "-" + versionID
}

// recordVersion returns the version ID of a record key.
func recordVersion(rec string) string {
	return rec[strings.LastIndexByte(rec, '-')+1:]
}

// metaShareName builds the object name of share index of the record stored
// under record key rec.
func metaShareName(rec string, index int) string {
	return fmt.Sprintf("%s%s.s%d", metadata.MetaPrefix, rec, index)
}

// parseMetaShareName splits an object name into record key and share index.
func parseMetaShareName(obj string) (rec string, index int, ok bool) {
	if !strings.HasPrefix(obj, metadata.MetaPrefix) {
		return "", 0, false
	}
	rest := obj[len(metadata.MetaPrefix):]
	dot := strings.LastIndex(rest, ".s")
	if dot <= 0 {
		return "", 0, false
	}
	if !canonicalDecimal(rest[dot+2:]) {
		return "", 0, false
	}
	idx, err := strconv.Atoi(rest[dot+2:])
	if err != nil {
		return "", 0, false
	}
	rec = rest[:dot]
	if tag, vid, tagged := strings.Cut(rec, "-"); tagged && (len(tag) != metaTagLen || vid == "" || strings.Contains(vid, "-")) {
		return "", 0, false
	}
	return rec, idx, true
}

// ParseMetaShareObjectName is the inverse of Names.MetaShare, exposed for
// tools that audit raw provider state (the chaos harness classifies every
// stored object). tag is empty for a legacy, untagged name.
func ParseMetaShareObjectName(obj string) (tag, versionID string, index int, ok bool) {
	rec, index, ok := parseMetaShareName(obj)
	if !ok {
		return "", "", 0, false
	}
	if tag, versionID, tagged := strings.Cut(rec, "-"); tagged {
		return tag, versionID, index, true
	}
	return "", rec, index, true
}

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

// ParseCASShareObjectName is the inverse of Names.Share for a CAS chunk,
// exposed for tools that audit raw provider state (the chaos harness
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
