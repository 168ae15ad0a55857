package core

import (
	"context"
	"fmt"
	"hash"
	"io"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/erasure"
	"repro/internal/metadata"
	"repro/internal/selector"
	"repro/internal/vclock"
)

// Streaming data plane (DESIGN.md §8): bounded-memory, pipelined Put/Get.
//
// PutReader and GetTo run a windowed pipeline over the chunk sequence: at
// most pipelineDepth chunks are resident at once, so client memory is
// O(pipelineDepth × MaxSize × n/t) instead of O(file). The window
// blocks only through vclock.Runtime groups — never raw channels — so the
// identical code runs under netsim virtual time.

// putPending is one new chunk in flight through the upload window: its
// plaintext stays in the pooled buffer the scanner read it into until the
// scatter joins.
type putPending struct {
	ref  metadata.ChunkRef
	data []byte
	buf  *[]byte
	g    vclock.Group
	locs []metadata.ShareLoc
	err  error
	done atomic.Bool
}

// PutReader uploads a file from a stream — put(s, f) without materializing
// f. Chunks are scanned incrementally (chunker.Scanner), hashed and
// deduplicated in scan order, and new chunks are erasure-encoded and
// scattered while the scanner is already working on the next chunk: chunk
// k+1 flows through the codec pool while chunk k's shares are in flight on
// the transfer engine. As with Put, the metadata record is uploaded only
// after every share landed, so no other client can observe a version whose
// shares are not fully stored.
func (c *Client) PutReader(ctx context.Context, name string, r io.Reader) (err error) {
	return c.PutReaderWith(ctx, name, r, PutOptions{})
}

// PutReaderWith is PutReader with per-request options: the object's storage
// class (override > prefix rule > default) decides the chunker, the
// per-chunk (t, n), and the CSP subset its shares prefer. The resolved
// class rides in every ChunkRef of the published version.
func (c *Client) PutReaderWith(ctx context.Context, name string, r io.Reader, opts PutOptions) (err error) {
	if name == "" {
		return fmt.Errorf("cyrus: empty file name")
	}
	cls, err := c.pol.Resolve(name, opts.Class)
	if err != nil {
		return err
	}
	ctx, sp := c.obs.StartOp(ctx, "put")
	defer func() { sp.End(err) }()

	// The parent version is resolved up front (Algorithm 2 syncs first: a
	// version put on a stale head forks the name); whether the content is
	// unchanged is only known once the stream has been consumed.
	prevID, oldID := "", ""
	oldLive := false
	if head, _, herr := c.resolve(ctx, name, "", syncAlways); herr == nil {
		prevID = head.ID
		oldID = head.File.ID
		oldLive = !head.File.Deleted
	}

	t, n, err := c.shareParams(cls)
	if err != nil {
		return err
	}

	meta := &metadata.FileMeta{
		File: metadata.FileMap{
			PrevID:   prevID,
			ClientID: c.cfg.ClientID,
			Name:     name,
			Modified: c.rt.Now(),
		},
	}

	// One transfer-engine operation spans the whole upload: shared failed
	// set, first-fatal-error cancellation (exactly as Put).
	op := c.engine.Begin(ctx)
	defer op.Finish()

	depth := c.depth
	chnk := c.chunkerFor(cls.Name)
	sc := chnk.Scan(r)
	defer sc.Close()
	// The buffer the scanner holds between chunks, with the next chunk's
	// read-ahead in it, is data-plane memory too: the account follows it
	// after every scan. Each chunk's own buffer is this Put's once taken; it
	// is accounted until given back, when the chunk's scatter joins or, for
	// a chunk that is not uploaded, at once.
	var scanBytes int64
	acctScan := func() {
		now := int64(sc.BufferBytes())
		c.acctAdd(now - scanBytes) // each call ignores a change of the other sign
		c.acctSub(scanBytes - now)
		scanBytes = now
	}
	defer func() { c.acctSub(scanBytes) }()
	giveBack := func(bp *[]byte) {
		c.acctSub(int64(len(*bp)))
		bufpool.Put(bp)
	}

	var size int64
	seenInFile := make(map[string]bool)
	var window []*putPending // launched, not yet joined (≤ depth)
	var newPend []*putPending
	var firstErr error

	// join waits for the oldest window entry and surfaces its error. The
	// wait parks on a Runtime group, so netsim's virtual clock advances.
	join := func(stallable bool) {
		p := window[0]
		window = window[1:]
		if stallable && !p.done.Load() {
			c.obs.PipelineStall(ctx, "put")
		}
		p.g.Wait()
		c.obs.PipelineInflight("put", len(window))
		if p.err != nil && firstErr == nil {
			firstErr = p.err
		}
	}

	for firstErr == nil {
		if oerr := op.Err(); oerr != nil {
			firstErr = oerr
			break
		}
		ch, serr := sc.Next()
		bp := sc.Take()
		if bp != nil {
			c.acctAdd(int64(len(*bp)))
		}
		acctScan()
		if serr == io.EOF {
			break
		}
		if serr != nil {
			firstErr = fmt.Errorf("cyrus: reading %q: %w", name, serr)
			op.Fail(firstErr)
			break
		}
		size += int64(len(ch.Data))

		// Hash the chunk on the codec pool (bounded CPU slots, overlapping
		// the scatters of earlier chunks).
		var id string
		_, hsp := c.obs.Trace(ctx, "chunk.hash")
		c.codec.run("chunk", int64(len(ch.Data)), func() {
			id = metadata.HashData(ch.Data)
		})
		hsp.End(nil)

		// Deduplicate exactly as Put, scoped to the class's encoding: a
		// chunk already stored under this class is referenced, not
		// uploaded; the same content in another class re-encodes (its (t,
		// n) and placement differ). Repeats within the file upload once.
		if info, ok := c.table.LookupEnc(id, cls.Name); ok {
			ref := metadata.ChunkRef{ID: id, Offset: ch.Offset, Size: int64(len(ch.Data)), T: info.T, N: info.N, CAS: info.CAS, Class: cls.Name}
			meta.Chunks = append(meta.Chunks, ref)
			if !seenInFile[id] {
				meta.Shares = append(meta.Shares, info.Shares...)
				seenInFile[id] = true
			}
			giveBack(bp)
			continue
		}
		ref := metadata.ChunkRef{ID: id, Offset: ch.Offset, Size: int64(len(ch.Data)), T: t, N: n, CAS: c.cfg.DedupMode, Class: cls.Name}
		meta.Chunks = append(meta.Chunks, ref)
		if seenInFile[id] {
			giveBack(bp)
			continue
		}
		seenInFile[id] = true

		// Window admission: at most depth chunks resident. Joining the
		// oldest here is what pipelines the stream — the scan of this
		// chunk already overlapped the transfers of the previous ones.
		for len(window) >= depth {
			join(true)
			if firstErr != nil {
				break
			}
		}
		if firstErr != nil {
			giveBack(bp)
			break
		}

		// Scatter concurrently, straight from the buffer the scanner read
		// the chunk into.
		p := &putPending{ref: ref, data: ch.Data, buf: bp, g: c.rt.NewGroup()}
		p.g.Add(1)
		newPend = append(newPend, p)
		window = append(window, p)
		c.obs.PipelineInflight("put", len(window))
		c.rt.Go(func() {
			defer p.g.Done()
			locs, serr := c.scatterChunk(op, p.ref, p.data)
			giveBack(p.buf)
			p.data, p.buf = nil, nil
			if serr != nil {
				p.err = serr
				op.Fail(serr)
			} else {
				p.locs = locs
			}
			p.done.Store(true)
		})
	}
	// Drain: every launched scatter must join before we return (their
	// closures reference the operation and pooled buffers).
	for len(window) > 0 {
		join(false)
	}
	if firstErr != nil {
		return firstErr
	}
	if err := op.Err(); err != nil {
		return err
	}

	// The file ID is the hash of the chunk list (format v2): every byte was
	// hashed once, for its chunk ID, and is not hashed again for the file.
	fileID := metadata.FileID(meta.Chunks)
	if oldLive && oldID == fileID {
		// Unchanged content: no new version. Any chunks scattered above
		// were content-addressed re-uploads of existing objects (idempotent).
		// A v1 head never matches (its content-hash ID is domain-separated
		// from every list hash), so identical content over a v1 head
		// publishes one v2 version, and re-puts after that are no-ops.
		return nil
	}
	meta.File.ID, meta.IDForm = fileID, metadata.ChunkListID
	meta.File.Size = size
	for _, p := range newPend {
		meta.Shares = append(meta.Shares, p.locs...)
	}

	return c.publish(op, meta)
}

// GetTo streams the current version of a file to w — get(s, f) without
// materializing the file. Chunks are gathered through the same
// pipelineDepth window (per-chunk hedging preserved) and delivered to w
// strictly in file order, so the first byte reaches w while later chunks
// are still in flight.
//
// On an error after delivery has started, a correct prefix of the file may
// already have been written to w; callers writing to a final destination
// should stage through a temporary file (as syncdir does).
func (c *Client) GetTo(ctx context.Context, name string, w io.Writer) (FileInfo, error) {
	_, info, err := c.read(ctx, "get", name, "", 0, 0, w, true)
	return info, err
}

// GetVersionTo streams a specific version to w — get(s, f, v).
func (c *Client) GetVersionTo(ctx context.Context, name, versionID string, w io.Writer) (FileInfo, error) {
	_, info, err := c.read(ctx, "get", name, versionID, 0, 0, w, true)
	return info, err
}

// chunkState is the per-unique-chunk gather plan: all known share
// locations plus the subset of providers currently serving downloads.
type chunkState struct {
	ref    metadata.ChunkRef
	shares []metadata.ShareLoc // all known locations, one per index
	usable []string            // CSPs serving downloads now
}

// planGather builds the gather plan for the given chunk occurrences: share
// locations from the freshest source (global chunk table first, the
// version's ShareMap as fallback) and the Algorithm-1 download-source
// selection, grouped by T (dedup across configs can mix privacy levels).
// Plans — and the returned maps — are keyed by encoding key (chunk ID +
// class), since mid-demotion the same content legitimately exists under two
// encodings with different (t, n) and placements. Chunks written under a
// class with a CSP subset are selected through selector.Restricted, which
// prefers in-class sources but never drops a chunk below T candidates.
func (c *Client) planGather(m *metadata.FileMeta, wanted []metadata.ChunkRef) (map[string]*chunkState, map[string][]string, error) {
	unique := make(map[string]*chunkState)
	var order []string
	for _, ref := range wanted {
		key := ref.EncodingKey()
		if _, ok := unique[key]; ok {
			continue
		}
		st := &chunkState{ref: ref}
		if info, ok := c.table.LookupEnc(ref.ID, ref.Class); ok {
			st.shares = info.Shares
		} else {
			st.shares = slices.CompactFunc(m.SharesOf(ref.ID), func(a, b metadata.ShareLoc) bool { return a.Index == b.Index })
		}
		seen := map[string]bool{}
		for _, loc := range st.shares {
			if !seen[loc.CSP] && c.readable(loc.CSP) {
				seen[loc.CSP] = true
				st.usable = append(st.usable, loc.CSP)
			}
		}
		sort.Strings(st.usable)
		if len(st.usable) < st.ref.T {
			return nil, nil, fmt.Errorf("%w: chunk %s reachable on %d providers, need %d",
				ErrDamaged, ref.ID[:8], len(st.usable), st.ref.T)
		}
		unique[key] = st
		order = append(order, key)
	}

	// Class read affinity: restrict each classed chunk's candidates to its
	// class CSP subset when enough of them still hold shares.
	sel := c.sel
	if c.pol != nil {
		allowed := make(map[string]map[string]bool)
		for _, key := range order {
			st := unique[key]
			if st.ref.Class == "" {
				continue
			}
			cls, ok := c.pol.Class(st.ref.Class)
			if !ok || len(cls.CSPs) == 0 {
				continue
			}
			set := make(map[string]bool, len(cls.CSPs))
			for _, name := range cls.CSPs {
				set[name] = true
			}
			allowed[key] = set
		}
		if len(allowed) > 0 {
			sel = selector.Restricted{Allowed: allowed, Inner: c.sel}
		}
	}

	byT := map[int][]*chunkState{}
	for _, key := range order {
		st := unique[key]
		byT[st.ref.T] = append(byT[st.ref.T], st)
	}
	pick := make(map[string][]string)
	for t, states := range byT {
		in := selector.Instance{T: t, LinkBps: map[string]float64{}}
		for _, st := range states {
			in.Chunks = append(in.Chunks, selector.Chunk{
				ID:        st.ref.EncodingKey(),
				ShareSize: erasure.ShareSize(st.ref.Size, st.ref.T),
				StoredOn:  st.usable,
			})
			for _, cspName := range st.usable {
				in.LinkBps[cspName] = c.links.estimate(cspName)
			}
		}
		a, err := sel.Select(in)
		if err != nil {
			return nil, nil, fmt.Errorf("cyrus: download selection: %w", err)
		}
		for id, sources := range a.Pick {
			pick[id] = sources
			for _, src := range sources {
				c.obs.SelectorPick(src)
			}
		}
	}
	return unique, pick, nil
}

// gatherRes is one unique chunk's decoded plaintext in the download
// window; uses counts the window entries (chunk occurrences) still
// waiting to deliver it. buf is the pooled buffer behind data (nil after a
// correcting decode): deliver returns it to the pool with the chunk's last
// occurrence, on every exit.
type gatherRes struct {
	g    vclock.Group
	data []byte
	buf  *[]byte
	err  error
	done atomic.Bool
	uses int
}

// fetchTo gathers the chunks of [offset, offset+length) of version m and
// writes exactly those bytes to w, in order, holding at most pipelineDepth
// decoded chunks at once. When full is set (whole-file fetches) it also
// lazily migrates stale shares per chunk while its plaintext is resident —
// matching the batch Get; range fetches (GetRange) do not.
//
// Every chunk is checked against its ID as it decodes. For a v2 record that
// is the whole-file verify: Validate proved the chunk list hashes to File.ID
// when the record entered the tree. A full read of a v1 record (read-only
// legacy) still hashes the reassembled content against its content-hash ID.
func (c *Client) fetchTo(ctx context.Context, m *metadata.FileMeta, offset, length int64, w io.Writer, full bool) error {
	if length == 0 || len(m.Chunks) == 0 {
		return nil
	}

	// Chunk occurrences overlapping the byte range, in file order.
	var wanted []metadata.ChunkRef
	for _, ref := range m.Chunks {
		if ref.Offset+ref.Size <= offset || ref.Offset >= offset+length {
			continue
		}
		wanted = append(wanted, ref)
	}
	states, pick, err := c.planGather(m, wanted)
	if err != nil {
		return err
	}

	op := c.engine.Begin(ctx)
	defer op.Finish()
	// Every launched gather must join before fetchTo returns: the
	// goroutines reference the operation, and op.Finish must not run with
	// attempts still in flight.
	var launched []*gatherRes
	defer func() {
		for _, res := range launched {
			res.g.Wait()
		}
	}()

	type occEntry struct {
		ref metadata.ChunkRef
		res *gatherRes
	}
	depth := c.depth
	live := make(map[string]*gatherRes) // encoding key -> resident result
	var window []occEntry
	var contentHash hash.Hash // v1 full reads only
	if full && m.IDForm == metadata.ContentID {
		contentHash = metadata.NewHash()
	}
	var firstErr error

	// deliver pops the oldest window entry: joins its gather, writes the
	// occurrence's byte range to w, and releases the chunk once its last
	// in-window occurrence has been delivered.
	deliver := func(stallable bool) {
		e := window[0]
		window = window[1:]
		if stallable && !e.res.done.Load() {
			c.obs.PipelineStall(ctx, "get")
		}
		e.res.g.Wait()
		if e.res.err != nil {
			if firstErr == nil {
				firstErr = e.res.err
			}
			return
		}
		if firstErr == nil {
			lo := max(e.ref.Offset, offset)
			hi := min(e.ref.Offset+e.ref.Size, offset+length)
			seg := e.res.data[lo-e.ref.Offset : hi-e.ref.Offset]
			_, dsp := c.obs.Trace(ctx, "chunk.deliver")
			if contentHash != nil {
				contentHash.Write(seg)
			}
			_, werr := w.Write(seg)
			dsp.End(werr)
			if werr != nil {
				firstErr = fmt.Errorf("cyrus: writing %q: %w", m.File.Name, werr)
				op.Fail(firstErr)
			}
		}
		e.res.uses--
		if e.res.uses == 0 {
			key := e.ref.EncodingKey()
			delete(live, key)
			if full && firstErr == nil {
				// Lazy migration (paper §5.5) per chunk, while its
				// plaintext is resident in the window anyway.
				// The plan is per encoding (chunk ID + class): mid-demotion
				// the same content exists under two encodings, and each
				// migrates within its own class's placement preference.
				c.migrateStaleShares(ctx, states[key].ref, states[key].shares, e.res.data)
			}
			c.acctSub(int64(len(e.res.data)))
			bufpool.Put(e.res.buf)
			e.res.data, e.res.buf = nil, nil
		}
		c.obs.PipelineInflight("get", len(live))
	}

	for _, ref := range wanted {
		if firstErr != nil {
			break
		}
		key := ref.EncodingKey()
		res := live[key]
		if res == nil {
			// Admission: at most depth decoded chunks resident.
			for len(live) >= depth && firstErr == nil {
				deliver(true)
			}
			if firstErr != nil {
				break
			}
			st := states[key]
			res = &gatherRes{g: c.rt.NewGroup()}
			res.g.Add(1)
			live[key] = res
			launched = append(launched, res)
			c.obs.PipelineInflight("get", len(live))
			c.rt.Go(func() {
				defer res.g.Done()
				data, buf, gerr := c.gatherChunk(op, st.ref, st.shares, pick[key])
				if gerr != nil {
					res.err = gerr
					op.Fail(gerr)
				} else {
					res.data, res.buf = data, buf
					c.acctAdd(int64(len(data)))
				}
				res.done.Store(true)
			})
		}
		res.uses++
		window = append(window, occEntry{ref: ref, res: res})
	}
	for len(window) > 0 {
		deliver(false)
	}
	if firstErr != nil {
		return firstErr
	}
	if err := op.Err(); err != nil {
		return err
	}
	if contentHash != nil {
		if got := metadata.HashSum(contentHash); got != m.File.ID {
			// The mismatching bytes have already been streamed to w — the
			// error tells the caller to discard them.
			return fmt.Errorf("%w: file %q reassembled to %s, metadata says %s",
				ErrDamaged, m.File.Name, got[:8], m.File.ID[:8])
		}
	}
	return nil
}
