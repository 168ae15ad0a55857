package core

import (
	"bytes"
	"container/list"
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/transfer"
)

// Version plane (DESIGN.md §5.2). The paper's client does one thing before
// every read or write of a name: bring the local metadata tree up to date,
// then take the head — or a named version — from it (§5.4, Algorithm 3
// line 2). Every version-level operation of the client goes through the three
// primitives in this file: resolve (name, version → record), read (record →
// bytes, behind the four exported Gets) and publish (record → cloud and
// replica, behind every operation that appends a version).

// syncGate says how fresh resolve's answer has to be.
type syncGate int

const (
	// noSync answers from the replica as it stands: the *Local forms, for
	// callers that just ran Sync. Having asked the providers nothing, it never
	// sets a fresh mark.
	noSync syncGate = iota
	// syncUnlessFresh is the read gate: a fresh mark on the name stands in for
	// the scoped sync.
	syncUnlessFresh
	// syncAlways is the write gate: a version appended to a stale head forks
	// the name, so the head is always re-read from the providers first.
	syncAlways
)

// resolve turns (name, versionID) into a record of the local tree; versionID
// "" asks for the head. It is the only place that decides between a fresh-mark
// hit and the scoped best-effort sync, and the only place that sets the mark
// from a sync. A head is synced per the gate. A named version is immutable, so
// one the tree already holds costs no round trip, and an unknown one is synced
// for once (another client may have published it since the last sync).
func (c *Client) resolve(ctx context.Context, name, versionID string, gate syncGate) (_ *metadata.FileMeta, conflicted bool, err error) {
	head := versionID == ""
	if head && gate == syncUnlessFresh {
		if m, ok := c.fresh.head(name); ok {
			return m, false, nil
		}
	}
	synced := false
	if gate != noSync && (head || !c.tree.Has(versionID)) {
		synced = c.syncBestEffort(ctx, name)
	}
	if !head {
		m, err := c.tree.Get(versionID)
		if err != nil {
			return nil, false, err
		}
		if m.File.Name != name {
			return nil, false, fmt.Errorf("cyrus: version %s belongs to %q, not %q", versionID, m.File.Name, name)
		}
		return m, false, nil
	}
	m, conflicted, err := c.tree.Head(name)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %q", ErrNoSuchFile, name)
	}
	if synced {
		c.fresh.mark(name)
	}
	return m, conflicted, nil
}

// read is the one body behind Get, GetTo, GetVersionTo and GetRange: resolve
// the version, refuse a deletion marker, and stream the bytes to w — or, with
// w nil, into a buffer accounted as resident for the fetch and returned. A
// full read covers the whole version (offset and length are ignored), verifies
// the file identity and lazily migrates stale shares; a range read clamps
// length to the file and does neither (see fetchTo).
func (c *Client) read(ctx context.Context, span, name, versionID string, offset, length int64, w io.Writer, full bool) (_ []byte, info FileInfo, err error) {
	ctx, sp := c.obs.StartOp(ctx, span)
	defer func() { sp.End(err) }()
	m, conflicted, err := c.resolve(ctx, name, versionID, syncUnlessFresh)
	if err != nil {
		return nil, FileInfo{}, err
	}
	info = fileInfo(m, conflicted)
	switch {
	case m.File.Deleted && versionID != "":
		return nil, info, fmt.Errorf("%w: version %s", ErrFileDeleted, versionID)
	case m.File.Deleted:
		return nil, info, fmt.Errorf("%w: %q", ErrFileDeleted, name)
	case full:
		offset, length = 0, m.File.Size
	case offset < 0 || length < 0 || offset > m.File.Size:
		return nil, info, fmt.Errorf("cyrus: range [%d,%d) outside file of %d bytes", offset, offset+length, m.File.Size)
	default:
		length = min(length, m.File.Size-offset)
	}
	var buf *bytes.Buffer
	if w == nil {
		c.acctAdd(length)
		defer c.acctSub(length)
		buf = bytes.NewBuffer(make([]byte, 0, length))
		w = buf
	}
	if err := c.fetchTo(ctx, m, offset, length, w, full); err != nil {
		return nil, info, err
	}
	if buf != nil {
		return buf.Bytes(), info, nil
	}
	return nil, info, nil
}

// publish appends a version: the record is scattered to the metadata
// providers and, once a MetaT quorum holds it, absorbed into the local
// replica. Callers upload every share the record references first, so no
// client can observe a version whose shares are not fully stored. The name is
// then marked fresh (read-your-writes) — unless what the tree now shows as its
// head is deleted or conflicted.
func (c *Client) publish(op *transfer.Op, m *metadata.FileMeta) error {
	if err := c.uploadMeta(op, m); err != nil {
		return err
	}
	if err := c.absorb(m); err != nil {
		return err
	}
	c.fresh.mark(m.File.Name)
	return nil
}

// freshSet is the per-name freshness mark behind Config.MetaCacheEntries
// (DESIGN.md §11): a bounded LRU of name → the version ID that was the tree's
// live, unconflicted head when this client last synced the name or published
// to it. The records themselves stay in the tree; a mark only says "no record
// of this name has been absorbed since", which is what lets a read skip its
// sync. absorb clears the name's mark with every record it inserts, so a
// remote update is observed at the next operation that syncs, never
// half-observed. A nil *freshSet is the disabled cache.
type freshSet struct {
	mu     sync.Mutex
	max    int
	tree   *metadata.Tree
	obs    *obs.Observer
	ll     *list.List // of freshMark; front = most recently used
	byName map[string]*list.Element
}

type freshMark struct{ name, vid string }

func newFreshSet(max int, tree *metadata.Tree, o *obs.Observer) *freshSet {
	return &freshSet{max: max, tree: tree, obs: o, ll: list.New(), byName: make(map[string]*list.Element)}
}

// head serves a marked name's head from the tree with no round trip. The
// record's version-ID hash is recomputed against the mark, so a corrupted or
// aliased record is never served: it drops the mark and misses.
func (f *freshSet) head(name string) (*metadata.FileMeta, bool) {
	if f == nil {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if el, ok := f.byName[name]; ok {
		vid := el.Value.(freshMark).vid
		if m, err := f.tree.Get(vid); err == nil && m.VersionID() == vid {
			f.ll.MoveToFront(el)
			f.obs.MetaCacheHit()
			return m, true
		}
		f.drop(el)
	}
	f.obs.MetaCacheMiss()
	return nil, false
}

// mark records the tree's current head of name as fresh. Deleted heads are
// never marked (a deleted file must keep resolving through sync, so a remote
// recreate is observed), nor are conflicted ones (a hit could not report the
// conflict). The head is read under f.mu, which clear also takes: a record
// absorbed concurrently is either already the head read here, or its clear
// runs after this mark and removes it.
func (f *freshSet) mark(name string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	head, conflicted, err := f.tree.Head(name)
	if err != nil || conflicted || head.File.Deleted {
		return
	}
	mark := freshMark{name, head.VersionID()}
	if el, ok := f.byName[name]; ok {
		el.Value = mark
		f.ll.MoveToFront(el)
		return
	}
	f.byName[name] = f.ll.PushFront(mark)
	if f.ll.Len() > f.max {
		f.drop(f.ll.Back())
		f.obs.MetaCacheEvict(1)
	}
}

// clear drops a name's mark; absorb calls it for every record it inserts.
func (f *freshSet) clear(name string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if el, ok := f.byName[name]; ok {
		f.drop(el)
		f.obs.MetaCacheInvalidate(1)
	}
}

// drop unlinks one mark; the caller holds f.mu.
func (f *freshSet) drop(el *list.Element) {
	delete(f.byName, f.ll.Remove(el).(freshMark).name)
}

// CachedHeadVersion reports the version ID a file's fresh mark holds, if any —
// the inspection hook the harness's cache-coherence oracle compares against
// the tree's head.
func (c *Client) CachedHeadVersion(name string) (string, bool) {
	if c.fresh == nil {
		return "", false
	}
	c.fresh.mu.Lock()
	defer c.fresh.mu.Unlock()
	el, ok := c.fresh.byName[name]
	if !ok {
		return "", false
	}
	return el.Value.(freshMark).vid, true
}
