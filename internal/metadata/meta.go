// Package metadata implements CYRUS's per-file metadata records and the
// logical version tree used to share state between autonomous clients
// (paper §5.2, Figure 6).
//
// Every upload creates one metadata record (a version node) holding three
// tables: FileMap (identity, parentage, name, deletion, size), ChunkMap
// (how to rebuild the file from chunks) and ShareMap (which CSP holds each
// share of each chunk). Records serialize to small binary objects that are
// themselves secret-shared across the metadata CSPs; clients keep a local
// Tree replica and merge newly listed records into it.
//
// Conflicts are data, not errors: a name with two or more live leaves is in
// conflict, of the paper's type (1) when the leaves descend from independent
// creations of the filename and of type (2) when they descend from one
// history, and the tree surfaces the leaves for resolution.
package metadata

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/sha1ni"
)

// MetaPrefix is the object-name prefix under which metadata records are
// stored at CSPs; listing it is a full metadata sync.
const MetaPrefix = "cyrus-meta-"

// FileMap is the identity table of a version node (paper Figure 6).
type FileMap struct {
	ID       string    // file identity, in the record's FileMeta.IDForm
	PrevID   string    // version ID of the parent node; "" for new files
	ClientID string    // client that created this version
	Name     string    // user-visible file name
	Deleted  bool      // deletion marker (metadata is never removed)
	Modified time.Time // last-modified time at the creating client
	Size     int64     // file size in bytes
}

// ChunkRef is one row of the ChunkMap: how one chunk participates in the
// file.
type ChunkRef struct {
	ID     string // SHA-1 (hex) of the chunk content
	Offset int64  // position of the chunk in the file
	Size   int64  // chunk size in bytes
	T, N   int    // secret-sharing parameters used for this chunk
	CAS    bool   // shares are content-addressed (convergent dedup mode)

	// Class names the storage class the chunk was written under. Empty is
	// the default class: records written before classes existed carry "",
	// and "" encodes byte-identically to the pre-class format. Readers,
	// migration, and GC use the persisted class — never a guess from the
	// current client configuration.
	Class string
}

// EncodingKey identifies one (chunk, encoding) pair. The same chunk content
// can legitimately be stored under several encodings at once — e.g. a hot
// (2,4) copy and a cold (3,8) copy mid lifecycle-demotion — and they are
// distinct share sets with distinct object names.
func (c ChunkRef) EncodingKey() string { return EncodingKey(c.ID, c.Class) }

// EncodingKey builds the composite (chunk ID, class) key. The empty class
// keys as the bare chunk ID, so pre-class state and callers are unchanged.
func EncodingKey(chunkID, class string) string {
	if class == "" {
		return chunkID
	}
	return chunkID + "\x00" + class
}

// SplitEncodingKey is the inverse of EncodingKey.
func SplitEncodingKey(key string) (chunkID, class string) {
	if i := strings.IndexByte(key, 0); i >= 0 {
		return key[:i], key[i+1:]
	}
	return key, ""
}

// ShareLoc is one row of the ShareMap: where one share lives.
type ShareLoc struct {
	ChunkID string // chunk content hash
	Index   int    // share index (row of the dispersal matrix)
	CSP     string // provider holding the share
}

// FileMeta is one version node: the three tables of Figure 6.
type FileMeta struct {
	File   FileMap
	Chunks []ChunkRef
	Shares []ShareLoc

	// IDForm says how File.ID was derived, and so which format version the
	// record encodes as (codec.go). The zero value is the v1 content hash.
	IDForm IDForm
}

// IDForm is the form of a record's file identity.
type IDForm uint8

const (
	// ContentID (format v1): File.ID is HashData of the whole content. No
	// new version is written in it; a full read of one still hashes the
	// content to check it.
	ContentID IDForm = iota
	// ChunkListID (format v2): File.ID is FileID(Chunks), checked by
	// Validate. Every new version is written in it.
	ChunkListID
)

// fileIDLabel domain-separates a v2 file ID from v1 content hashes: no chunk
// list hashes to the content ID of any file.
const fileIDLabel = "cyrus-file-v2"

// FileID is the v2 file identity: SHA-1 over a domain label and, per chunk in
// file order, its 20 raw ID bytes and its size (big-endian u64). A chunk is
// checked against its own ID whenever it is decoded, so a record whose chunk
// list hashes to its File.ID vouches for the whole content without a second
// pass over the bytes. It returns "" if a chunk ID is not a HashData digest.
func FileID(chunks []ChunkRef) string {
	sum, ok := fileIDSum(chunks)
	if !ok {
		return ""
	}
	return hex.EncodeToString(sum[:])
}

// fileIDSum is FileID's digest, unencoded; ok is false if a chunk ID is not a
// HashData digest. The hashed bytes are built in a stack buffer, so a record
// of up to 17 chunks costs no allocation.
func fileIDSum(chunks []ChunkRef) (sum [sha1ni.Size]byte, ok bool) {
	var buf [512]byte
	b := append(buf[:0], fileIDLabel...)
	for _, c := range chunks {
		var err error
		if len(c.ID) != 2*sha1ni.Size {
			return sum, false
		}
		if b, err = hex.AppendDecode(b, []byte(c.ID)); err != nil {
			return sum, false
		}
		b = binary.BigEndian.AppendUint64(b, uint64(c.Size))
	}
	return sha1ni.Sum(b), true
}

// hexIs reports whether s is the lower-case hex spelling of a 20-byte digest,
// without building the string.
func hexIs(sum [sha1.Size]byte, s string) bool {
	var buf [2 * sha1.Size]byte
	hex.Encode(buf[:], sum[:])
	return string(buf[:]) == s
}

// Holds reports whether data is the content of this (live) version: its
// size, every chunk's byte range against the chunk's ID, and the file ID in
// the record's own form — the content hash for v1, the chunk-list hash for
// v2. Callers matching bytes to records need not know which form they hold.
func (m *FileMeta) Holds(data []byte) bool {
	if m.File.Deleted || int64(len(data)) != m.File.Size {
		return false
	}
	var off int64
	for _, c := range m.Chunks {
		if c.Offset != off || c.Size <= 0 || c.Size > int64(len(data))-off || HashData(data[off:off+c.Size]) != c.ID {
			return false
		}
		off += c.Size
	}
	if off != int64(len(data)) {
		return false
	}
	switch m.IDForm {
	case ContentID:
		return HashData(data) == m.File.ID
	case ChunkListID:
		sum, ok := fileIDSum(m.Chunks)
		return ok && hexIs(sum, m.File.ID)
	}
	return false
}

// VersionID uniquely identifies the version node. The file ID alone is not
// unique (a revert re-creates old content), so the version identity covers
// the file ID, parent, name, and creator: the hex SHA-1 of
// "<ID>|<PrevID>|<Name>|<ClientID>|<Deleted>", each field as fmt's %s and %t
// print it.
func (m *FileMeta) VersionID() string {
	sum := m.versionSum()
	return hex.EncodeToString(sum[:])
}

// IsVersion reports whether id is the record's VersionID, without building
// the string. A reader that found the record under id checks it here, once,
// and carries id from then on.
func (m *FileMeta) IsVersion(id string) bool {
	return hexIs(m.versionSum(), id)
}

// versionSum is VersionID's digest, over bytes built in a stack buffer.
func (m *FileMeta) versionSum() [sha1.Size]byte {
	var buf [256]byte
	b := append(buf[:0], m.File.ID...)
	b = append(b, '|')
	b = append(b, m.File.PrevID...)
	b = append(b, '|')
	b = append(b, m.File.Name...)
	b = append(b, '|')
	b = append(b, m.File.ClientID...)
	b = append(b, '|')
	b = strconv.AppendBool(b, m.File.Deleted)
	return sha1.Sum(b)
}

// Validate checks structural invariants before a record is accepted into a
// tree or serialized.
func (m *FileMeta) Validate() error {
	if m.File.ID == "" {
		return fmt.Errorf("metadata: %q: empty file ID", m.File.Name)
	}
	if m.File.Name == "" {
		return fmt.Errorf("metadata: record %s: empty file name", m.File.ID)
	}
	if m.File.ClientID == "" {
		return fmt.Errorf("metadata: %q: empty client ID", m.File.Name)
	}
	covered := newShareTally(m.Shares)
	var total int64
	for i, c := range m.Chunks {
		if c.T <= 0 || c.N < c.T {
			return fmt.Errorf("metadata: %q chunk %d: bad (t,n)=(%d,%d)", m.File.Name, i, c.T, c.N)
		}
		if c.Size <= 0 {
			return fmt.Errorf("metadata: %q chunk %d: size %d", m.File.Name, i, c.Size)
		}
		if c.Offset != total {
			return fmt.Errorf("metadata: %q chunk %d: offset %d, want %d (chunks must tile the file)", m.File.Name, i, c.Offset, total)
		}
		total += c.Size
		if got := covered.count(c.ID); got < c.N {
			return fmt.Errorf("metadata: %q chunk %d: %d share locations, want %d", m.File.Name, i, got, c.N)
		}
	}
	if !m.File.Deleted && total != m.File.Size {
		return fmt.Errorf("metadata: %q: chunks cover %d bytes, file size %d", m.File.Name, total, m.File.Size)
	}
	switch {
	case int(m.IDForm) >= len(formatVersion):
		return fmt.Errorf("metadata: %q: unknown file ID form %d", m.File.Name, m.IDForm)
	case m.IDForm == ChunkListID && !m.File.Deleted:
		if sum, ok := fileIDSum(m.Chunks); !ok || !hexIs(sum, m.File.ID) {
			return fmt.Errorf("metadata: %q: file ID %.8s is not the hash of its chunk list", m.File.Name, m.File.ID)
		}
	}
	return nil
}

// shareTally counts share locations per chunk ID. A ShareMap in canonical
// order — every decoded record's, since Encode writes that order — is counted
// by binary search, with no allocation; one still in upload order (a record
// built in memory, before Encode) is tallied into a map once.
type shareTally struct {
	shares []ShareLoc
	byID   map[string]int // nil for a canonical ShareMap
}

func newShareTally(shares []ShareLoc) shareTally {
	t := shareTally{shares: shares}
	if !sharesCanonical(shares) {
		t.byID = make(map[string]int)
		for _, s := range shares {
			t.byID[s.ChunkID]++
		}
	}
	return t
}

func (t shareTally) count(chunkID string) int {
	if t.byID != nil {
		return t.byID[chunkID]
	}
	i, _ := slices.BinarySearchFunc(t.shares, chunkID, func(s ShareLoc, id string) int { return strings.Compare(s.ChunkID, id) })
	n := 0
	for i+n < len(t.shares) && t.shares[i+n].ChunkID == chunkID {
		n++
	}
	return n
}

// SharesOf returns the share locations of one chunk, in index order.
func (m *FileMeta) SharesOf(chunkID string) []ShareLoc {
	var out []ShareLoc
	for _, s := range m.Shares {
		if s.ChunkID == chunkID {
			out = append(out, s)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Index < out[j-1].Index; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// HashData returns the SHA-1 hex digest used for chunk IDs (and for v1 file
// IDs; a v2 file ID is FileID, a hash of chunk IDs). It and NewHash are the
// content hashes — every stored byte passes through them once — so they run
// on internal/sha1ni (SHA-NI where the CPU has it, crypto/sha1 otherwise;
// same digest); the small keyed hashes stay on crypto/sha1.
func HashData(data []byte) string {
	sum := sha1ni.Sum(data)
	return hex.EncodeToString(sum[:])
}

// NewHash returns an incremental hasher producing the same digest as
// HashData, for callers that stream content instead of buffering it; read
// the result with HashSum.
func NewHash() hash.Hash { return sha1ni.New() }

// HashSum finishes an incremental NewHash digest in HashData's hex form.
func HashSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
