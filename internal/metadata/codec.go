package metadata

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"
)

// Binary codec for FileMeta records. The format is deterministic (no maps,
// fixed field order), versioned, and compact: metadata records are uploaded
// to every metadata CSP on every file change, so size matters.
//
// Layout (big endian), the same in every format version:
//
//	magic "CYRM" | u8 version |
//	FileMap:  str ID | str PrevID | str ClientID | str Name |
//	          u8 deleted | i64 modified(unixnano) | i64 size |
//	ChunkMap: u32 count | per chunk: str ID | i64 offset | i64 size |
//	          u16 t | u16 n |
//
// The high bit of the chunk's t field is the CAS flag (content-addressed
// shares, convergent dedup mode); bit 14 is the class flag (a storage-class
// name string follows the chunk's n field). t itself is bounded by
// erasure.MaxN=128, so both bits are free and records written by older
// builds decode with the flags clear. A chunk in the default class ("")
// never sets the class flag, so classless records — including everything
// written before storage classes existed — encode byte-identically to the
// pre-class format.
//	ShareMap: u32 count | per share: str chunkID | u16 index | str csp
//
// Strings are u16 length-prefixed UTF-8.
//
// The version byte is the record's FileMeta.IDForm, through formatVersion:
// 1 is the content-hash file ID every record before format v2 carries (read,
// never written, by new versions), 2 the chunk-list hash (FileID). Nothing
// else differs, so a decoded v1 record re-encodes to its original bytes.

var (
	magic = [4]byte{'C', 'Y', 'R', 'M'}

	// ErrBadRecord is returned for any malformed serialized record.
	ErrBadRecord = errors.New("metadata: malformed record")
)

// formatVersion is the version byte each file ID form encodes as; Decode maps
// a version byte back through the same table, its one format dispatch.
var formatVersion = [...]byte{ContentID: 1, ChunkListID: 2}

// casFlag marks a content-addressed chunk in the high bit of the encoded t.
const casFlag = 0x8000

// classFlag marks a chunk written under a named storage class; the class
// name string follows the chunk's n field.
const classFlag = 0x4000

// maxCount bounds repeated sections to keep a corrupt length prefix from
// allocating unbounded memory.
const maxCount = 1 << 22

// Encode serializes the record.
func Encode(m *FileMeta) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.Write(magic[:])
	b.WriteByte(formatVersion[m.IDForm])
	writeString(&b, m.File.ID)
	writeString(&b, m.File.PrevID)
	writeString(&b, m.File.ClientID)
	writeString(&b, m.File.Name)
	if m.File.Deleted {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
	writeInt64(&b, m.File.Modified.UnixNano())
	writeInt64(&b, m.File.Size)

	writeUint32(&b, uint32(len(m.Chunks)))
	for _, c := range m.Chunks {
		writeString(&b, c.ID)
		writeInt64(&b, c.Offset)
		writeInt64(&b, c.Size)
		tv := uint16(c.T)
		if c.CAS {
			tv |= casFlag
		}
		if c.Class != "" {
			tv |= classFlag
		}
		writeUint16(&b, tv)
		writeUint16(&b, uint16(c.N))
		if c.Class != "" {
			writeString(&b, c.Class)
		}
	}
	// The ShareMap serializes in canonical (chunk, index, csp) order, not
	// slice order: share locations are collected as concurrent uploads
	// complete, so slice order is scheduling noise. Canonicalizing here
	// keeps the whole record deterministic — two clients publishing the
	// same version store byte-identical metadata shares — without mutating
	// the caller's record.
	shares := m.Shares
	if !sharesCanonical(shares) {
		shares = append([]ShareLoc(nil), shares...)
		sort.Slice(shares, func(i, j int) bool { return shareLocLess(shares[i], shares[j]) })
	}
	writeUint32(&b, uint32(len(shares)))
	for _, s := range shares {
		writeString(&b, s.ChunkID)
		writeUint16(&b, uint16(s.Index))
		writeString(&b, s.CSP)
	}
	return b.Bytes(), nil
}

func shareLocLess(a, b ShareLoc) bool {
	if a.ChunkID != b.ChunkID {
		return a.ChunkID < b.ChunkID
	}
	if a.Index != b.Index {
		return a.Index < b.Index
	}
	return a.CSP < b.CSP
}

func sharesCanonical(s []ShareLoc) bool {
	for i := 1; i < len(s); i++ {
		if shareLocLess(s[i], s[i-1]) {
			return false
		}
	}
	return true
}

// Decode parses a serialized record and validates it. Every string of the
// record is a slice of one copy of data, so a record costs a fixed handful of
// allocations however many fields it has.
func Decode(data []byte) (*FileMeta, error) {
	r := &reader{data: data, text: string(data)}
	var mg [4]byte
	r.bytes(mg[:])
	if mg != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadRecord)
	}
	v := r.u8()
	form := bytes.IndexByte(formatVersion[:], v)
	if form < 0 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadRecord, v)
	}
	m := &FileMeta{IDForm: IDForm(form)}
	m.File.ID = r.str()
	m.File.PrevID = r.str()
	m.File.ClientID = r.str()
	m.File.Name = r.str()
	m.File.Deleted = r.u8() == 1
	m.File.Modified = time.Unix(0, r.i64()).UTC()
	m.File.Size = r.i64()

	nc := r.u32()
	if nc > maxCount {
		return nil, fmt.Errorf("%w: chunk count %d", ErrBadRecord, nc)
	}
	m.Chunks = make([]ChunkRef, 0, nc)
	for i := uint32(0); i < nc && r.err == nil; i++ {
		var c ChunkRef
		c.ID = r.str()
		c.Offset = r.i64()
		c.Size = r.i64()
		tv := r.u16()
		c.CAS = tv&casFlag != 0
		c.T = int(tv &^ (casFlag | classFlag))
		c.N = int(r.u16())
		if tv&classFlag != 0 {
			c.Class = r.str()
		}
		m.Chunks = append(m.Chunks, c)
	}
	ns := r.u32()
	if ns > maxCount {
		return nil, fmt.Errorf("%w: share count %d", ErrBadRecord, ns)
	}
	m.Shares = make([]ShareLoc, 0, ns)
	for i := uint32(0); i < ns && r.err == nil; i++ {
		var s ShareLoc
		s.ChunkID = r.str()
		s.Index = int(r.u16())
		s.CSP = r.str()
		m.Shares = append(m.Shares, s)
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, r.err)
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(data)-r.pos)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	return m, nil
}

func writeString(b *bytes.Buffer, s string) {
	if len(s) > 0xFFFF {
		panic(fmt.Sprintf("metadata: string too long (%d bytes)", len(s)))
	}
	writeUint16(b, uint16(len(s)))
	b.WriteString(s)
}

func writeUint16(b *bytes.Buffer, v uint16) {
	var buf [2]byte
	binary.BigEndian.PutUint16(buf[:], v)
	b.Write(buf[:])
}

func writeUint32(b *bytes.Buffer, v uint32) {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], v)
	b.Write(buf[:])
}

func writeInt64(b *bytes.Buffer, v int64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	b.Write(buf[:])
}

// reader is a cursor with sticky errors. text is data as a string, which
// str slices.
type reader struct {
	data []byte
	text string
	pos  int
	err  error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.data) {
		r.err = fmt.Errorf("truncated at byte %d (want %d more)", r.pos, n)
		return nil
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) bytes(dst []byte) {
	copy(dst, r.take(len(dst)))
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

func (r *reader) str() string {
	n := int(r.u16())
	if r.take(n) == nil {
		return ""
	}
	return r.text[r.pos-n : r.pos]
}
