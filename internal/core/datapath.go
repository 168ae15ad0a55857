package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/csp"
	"repro/internal/erasure"
	"repro/internal/metadata"
	"repro/internal/transfer"
)

// Data path (DESIGN.md §5.1): every provider contact and every coded-blob
// move of this package goes through the three primitives in this file.
//
//   - attempt/call: one contact with one provider, through the transfer
//     engine — the only place a transfer.Attempt is built and a csp.Store is
//     looked up for I/O;
//   - encode + putShare: a blob's shares, coded on the codec pool and stored
//     one at a time wherever the caller's placement says;
//   - gatherBlob: the verified k-of-n read, with widening, error correction
//     and self-heal.
//
// The paper stores a metadata record exactly like a chunk, so both planes use
// the same code and differ only in the blob descriptor. Policy — which
// (t, n), which providers, what counts as success — stays with the callers.

// errProviderVanished marks an attempt against a store that was removed
// mid-operation. The engine counts it a provider fault, so the operation's
// failed set stops any other share from re-probing the ghost.
func errProviderVanished(name string) error {
	return fmt.Errorf("cyrus: provider %q vanished", name)
}

// attempt builds the engine attempt for one contact with a provider. run
// receives the provider's store and returns the payload byte count; the
// engine reports every execution of run, retries included, to recordResult.
func (c *Client) attempt(cspName, kind string, run func(ctx context.Context, store csp.Store) (int64, error)) transfer.Attempt {
	return transfer.Attempt{
		CSP:  cspName,
		Kind: kind,
		Run: func(actx context.Context) (int64, error) {
			store, ok := c.store(cspName)
			if !ok {
				return 0, errProviderVanished(cspName)
			}
			return run(actx, store)
		},
	}
}

// call runs one provider contact under the operation (transfer.Op.Do:
// failed-set skip, in-flight slots, retries).
func (c *Client) call(op *transfer.Op, ctx context.Context, cspName, kind string, run func(ctx context.Context, store csp.Store) (int64, error)) error {
	return op.Do(ctx, c.attempt(cspName, kind, run))
}

// list lists one provider's objects under prefix.
func (c *Client) list(op *transfer.Op, ctx context.Context, cspName, prefix string) (infos []csp.ObjectInfo, err error) {
	err = c.call(op, ctx, cspName, opList, func(actx context.Context, store csp.Store) (int64, error) {
		var lerr error
		infos, lerr = store.List(actx, prefix)
		return 0, lerr
	})
	return infos, err
}

// download fetches one whole object from one provider.
func (c *Client) download(op *transfer.Op, ctx context.Context, cspName, kind, name string) (data []byte, err error) {
	err = c.call(op, ctx, cspName, kind, func(actx context.Context, store csp.Store) (int64, error) {
		var derr error
		data, derr = store.Download(actx, name)
		return int64(len(data)), derr
	})
	return data, err
}

// blob describes one erasure-coded object as the providers hold it: a chunk
// (chunkBlob) or a metadata record (metaBlob). Which one it is decides how
// its shares are named and how a decoding is checked; everything else is
// the same code for both.
type blob struct {
	coder *erasure.Coder
	t, n  int
	// size is the plaintext length when known before decoding (chunks): it
	// feeds the codec byte counters and the hedge deadline prediction, and
	// lets decode reconstruct into a pooled buffer of that size.
	size int64

	// A chunk blob: the chunk, named through the user's naming scheme.
	ref   metadata.ChunkRef
	names *Names
	// A metadata blob: the record key its shares are named by, and the
	// parsed record of the last decoding verify accepted, so callers need
	// not parse the bytes a second time.
	rec    string
	record *metadata.FileMeta

	putKind, getKind string // engine op kinds (observe.go)
	cas              bool   // content-addressed, refcounted share objects (dedup mode)
	hedged           bool   // reads may launch redundant lanes (hedge or race)
}

// chunkBlob describes a chunk: key-derived or content-addressed share
// names, verified by the chunk ID, read with hedged lanes.
func (c *Client) chunkBlob(ref metadata.ChunkRef) (*blob, error) {
	// CAS chunks code with the content-derived coder, so every client
	// sharing the deployment secret produces byte-identical shares.
	// coderFor fails fast when the secret is missing, so names.Share in
	// name cannot.
	coder, err := c.coderFor(ref)
	if err != nil {
		return nil, err
	}
	return &blob{
		coder: coder, t: ref.T, n: ref.N, size: ref.Size,
		ref: ref, names: &c.names,
		putKind: opUpload, getKind: opDownload,
		cas: ref.CAS, hedged: true,
	}, nil
}

// metaBlob describes the record of one version: shares named by its record
// key (metaio.go) under the user's coder, verified against the version ID
// the key names (a corrupt or tampered share otherwise slips through as a
// consistent-but-wrong record), read without redundant lanes.
func (c *Client) metaBlob(rec string, t, n int) *blob {
	return &blob{
		coder: c.coder, t: t, n: n,
		rec:     rec,
		putKind: opMetaPut, getKind: opMetaGet,
	}
}

// desc names the blob in errors and notes: "chunk 1a2b3c4d" or
// "metadata <version>".
func (b *blob) desc() string {
	if b.rec != "" {
		return "metadata " + recordVersion(b.rec)
	}
	return "chunk " + b.ref.ID[:8]
}

// name returns the object name of share i.
func (b *blob) name(i int) string {
	if b.rec != "" {
		return metaShareName(b.rec, i)
	}
	name, _ := b.names.Share(b.ref, i)
	return name
}

// verify reports whether a decoding carries the blob's identity: a chunk's
// content hash, or — for a record — that it parses, validates, and hashes to
// the version ID it was listed under. This is the one place a fetched
// record's version ID is computed; from here on the key's ID stands for it.
func (b *blob) verify(data []byte) error {
	if b.rec == "" {
		if got := metadata.HashData(data); got != b.ref.ID {
			return fmt.Errorf("decodes to %s, expected %s", got[:8], b.ref.ID[:8])
		}
		return nil
	}
	m, err := metadata.Decode(data)
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	if !m.IsVersion(recordVersion(b.rec)) {
		return fmt.Errorf("decodes to version %s", m.VersionID())
	}
	b.record = m
	return nil
}

// encode erasure-codes data into the blob's n shares on the codec pool: the
// CPU work runs in a bounded slot, overlapping the transfers of sibling
// blobs, and the busy gauge and byte counters see every encode. The shares
// use pooled buffers; the caller releases them (erasure.ReleaseShares) once
// every put has joined.
func (c *Client) encode(b *blob, data []byte) (shares []erasure.Share, err error) {
	c.codec.run("encode", int64(len(data)), func() {
		shares, err = b.coder.EncodeTo(make([]erasure.Share, 0, b.n), data, b.t, b.n)
	})
	return shares, err
}

// putShare stores share i of an encoded blob on one provider. A
// content-addressed share goes through the probe-then-put reference protocol
// (putCASShare) unless overwrite is set: replacing a corrupt object must
// ship the payload, which PutRef skips when the object exists, and a plain
// Upload leaves the provider's reference tokens — independent of object
// content — untouched.
func (c *Client) putShare(op *transfer.Op, ctx context.Context, b *blob, shares []erasure.Share, i int, target string, overwrite bool) error {
	return c.call(op, ctx, target, b.putKind, func(actx context.Context, store csp.Store) (int64, error) {
		if b.cas && !overwrite {
			return c.putCASShare(actx, target, store, b.name(i), shares[i].Data)
		}
		return shares[i].Size(), store.Upload(actx, b.name(i), shares[i].Data)
	})
}

// putCASShare stores one content-addressed share, skipping the payload
// transfer when the provider already holds the object. The protocol is
// probe-then-put: AddRef stamps this user's reference token on an existing
// object — a dedup hit costs one round trip and zero payload bytes — and
// on ErrNotFound, PutRef creates object and token in one atomic provider
// operation (if a concurrent uploader of the same chunk wins the creation
// race, our PutRef degrades into a reference add server-side; if a
// concurrent delete drains the last token between our probe and put,
// PutRef recreates the object — no interleaving loses a referenced share).
// Providers without reference support fall back to a plain upload: names
// still converge (re-uploads are idempotent overwrites of identical
// bytes), but no refcounts exist there, so GC stays conservative.
func (c *Client) putCASShare(ctx context.Context, cspName string, store csp.Store, name string, data []byte) (int64, error) {
	rs, ok := store.(csp.RefStore)
	if !ok {
		return int64(len(data)), store.Upload(ctx, name, data)
	}
	token := c.names.RefToken()
	err := rs.AddRef(ctx, name, token)
	if err == nil {
		c.obs.DedupHit(cspName, int64(len(data)))
		return 0, nil
	}
	if !errIsNotFound(err) {
		return 0, err
	}
	created, err := rs.PutRef(ctx, name, token, data)
	if err != nil {
		return int64(len(data)), err
	}
	if !created {
		// Lost the creation race: the payload shipped but the provider
		// already held the object, so the bytes were redundant.
		c.obs.DedupHit(cspName, int64(len(data)))
		return 0, nil
	}
	c.obs.DedupMiss(cspName)
	return int64(len(data)), nil
}

// decode reconstructs the blob from shares and checks the result's
// identity, on the codec pool; verified selects the search for any t of the
// shares that decode to the identity.
//
// A blob of known size (a chunk) is reconstructed in a pooled buffer with
// room for its t stripes, so the codec neither allocates nor zeroes one per
// chunk. That buffer comes back as buf and belongs to the caller, who hands it
// to bufpool.Put once nothing reads data any more; buf is nil — and
// data ordinary garbage-collected memory — for metadata records, for the
// verified search, and on error.
func (c *Client) decode(b *blob, shares []erasure.Share, verified bool) (data []byte, buf *[]byte, err error) {
	c.codec.run("decode", b.size, func() {
		switch {
		case verified:
			data, err = b.coder.DecodeVerified(shares, erasure.MaxN, func(d []byte) bool { return b.verify(d) == nil })
			return
		case b.size > 0:
			buf = bufpool.Get(int(b.size) + b.t - 1)
			data, err = b.coder.DecodeInto((*buf)[:0], shares, erasure.MaxN)
		default:
			data, err = b.coder.Decode(shares, erasure.MaxN)
		}
		if err == nil {
			err = b.verify(data)
		}
		if err != nil {
			bufpool.Put(buf)
			data, buf = nil, nil
		}
	})
	return data, buf, err
}

// errUndecodable marks a blob fetched with quorum that does not decode to
// its identity from any t of its shares — for a metadata record, a foreign
// user's record (different key) or one with fewer than t intact shares.
// Unlike an availability failure it is a property of the blob, not of the
// attempt: no retry will change it, and Sync treats it as a complete view of
// everything readable.
var errUndecodable = fmt.Errorf("%w: undecodable", ErrDamaged)

// gatherBlob is the verified k-of-n read — Algorithm 3's Gather. Every
// primary location gets a lane; a lane whose provider fails walks on through
// the fallback locations, and for hedged blobs each primary also gets one
// hedge, a redundant lane fed from the same fallback pool and fired when the
// primary exceeds its load-predicted latency (the engine's HedgeAfter).
// Losers are cancelled the moment t shares land.
//
// Each share is downloaded into a pooled sink no larger than the share the
// record implies (shareSink); every held share goes back to the pool when
// gatherBlob returns.
//
// If the t shares do not decode to the blob's identity, one of them is
// corrupt (bit rot, a tampering provider). The read then widens — the same
// gather again over every remaining readable location — and searches what it
// holds for any t shares that decode to the identity (paper §7.1: the R-S
// code recovers through errored shares). Shares the re-encoded blob does not
// reproduce are overwritten where they were fetched (self-heal, best effort).
//
// The plaintext comes with decode's ownership contract: a non-nil buf is the
// pooled buffer behind data, the caller's to release.
func (c *Client) gatherBlob(op *transfer.Op, ctx context.Context, b *blob, primary, fallback []metadata.ShareLoc) (data []byte, buf *[]byte, err error) {
	// got, bufs, from and done are written by attempt closures, which a
	// gather loser may still execute after Gather — or this function — has
	// returned: every access stays under mu and the decodes below work on
	// snapshots. Only the first copy of an index to land is kept, so every
	// held share has one known source; any other body, and any that lands
	// once this function is done, goes straight back to the pool.
	var mu sync.Mutex
	var got []erasure.Share
	var bufs []*[]byte           // the pooled bodies behind got
	from := make(map[int]string) // share index -> provider the held copy came from
	var tries []ShareTry         // each location tried, with its latest outcome
	done := false
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		done = true
		for _, bp := range bufs {
			bufpool.Put(bp)
		}
	}()
	snapshot := func() ([]erasure.Share, map[int]string) {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(got), maps.Clone(from)
	}
	var shareSize int64 // 0: unknown until the record decodes (metadata)
	if b.size > 0 {
		shareSize = erasure.ShareSize(b.size, b.t)
	}
	fetch := func(l metadata.ShareLoc) transfer.Attempt {
		return c.attempt(l.CSP, b.getKind, func(actx context.Context, store csp.Store) (int64, error) {
			sink := newShareSink(shareSize)
			n, err := csp.DownloadTo(actx, store, b.name(l.Index), sink)
			if sink.long {
				err = fmt.Errorf("%w: %s share %d on %s runs past %d bytes", errShareTooLong, b.desc(), l.Index, l.CSP, shareSize)
			}
			mu.Lock()
			_, dup := from[l.Index]
			keep := err == nil && !dup && !done
			if !done {
				tries = noteTry(tries, ShareTry{CSP: l.CSP, Index: l.Index, Err: err})
			}
			if keep {
				got = append(got, erasure.Share{Index: l.Index, Data: sink.bytes()})
				bufs = append(bufs, sink.bp)
				from[l.Index] = l.CSP
			}
			mu.Unlock()
			if !keep {
				bufpool.Put(sink.bp)
			}
			return n, err
		})
	}

	pool := fallback // cursor over the fallback locations, guarded by mu
	g := transfer.Gather{
		Need: b.t,
		// The fallback cursor is shared by every lane, so no location is
		// fetched twice. A provider already in the operation's failed set
		// costs nothing: it is passed over, as a failed primary's lane is.
		Next: func() (a transfer.Attempt, ok bool) {
			mu.Lock()
			defer mu.Unlock()
			for len(pool) > 0 {
				cand := pool[0]
				pool = pool[1:]
				if _, dup := from[cand.Index]; dup || op.Failed(cand.CSP) || !c.readable(cand.CSP) {
					continue
				}
				return fetch(cand), true
			}
			return a, false
		},
	}
	for _, l := range primary {
		g.Primary = append(g.Primary, fetch(l))
		if b.hedged {
			g.HedgeAfter = append(g.HedgeAfter, c.hedgeAfter(ctx, l.CSP, erasure.ShareSize(b.size, b.t)))
		}
	}
	gerr := op.Gather(ctx, g)

	// A loser's share may still land later, which is harmless: the decode
	// works on this snapshot and tolerates surplus shares.
	shares, held := snapshot()
	// Gather counts successful lanes, not distinct shares: where an index has
	// two holders (a record re-placed after ring churn) a lane can walk on to
	// the second copy of an index still in flight elsewhere. Top up from the
	// rest of the pool until t distinct shares are held or it is dry.
	for len(shares) < b.t && gerr == nil {
		g.Need, g.Primary, g.HedgeAfter = b.t-len(shares), nil, nil
		for len(g.Primary) < g.Need {
			a, ok := g.Next()
			if !ok {
				break
			}
			g.Primary = append(g.Primary, a)
		}
		gerr = op.Gather(ctx, g)
		shares, held = snapshot()
	}
	if len(shares) < b.t {
		mu.Lock()
		tried := slices.Clone(tries)
		mu.Unlock()
		return nil, nil, &GatherError{Blob: b.desc(), Held: len(shares), Need: b.t, Tries: tried, Err: gerr}
	}
	if data, buf, err = c.decode(b, shares, false); err == nil {
		return data, buf, nil
	}

	// Widen, in plan order so replays launch identically. Locations that
	// fail just leave the search fewer shares.
	var wide transfer.Gather
	for _, l := range append(slices.Clone(primary), fallback...) {
		if _, dup := held[l.Index]; !dup && c.readable(l.CSP) {
			wide.Primary = append(wide.Primary, fetch(l))
		}
	}
	wide.Need = len(wide.Primary)
	_ = op.Gather(ctx, wide)
	shares, held = snapshot()
	data, _, err = c.decode(b, shares, true)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %s uncorrectable from %d shares: %v", errUndecodable, b.desc(), len(shares), err)
	}
	if good, err := c.encode(b, data); err == nil {
		// The corrupt shares are those the re-encode does not reproduce. Heal
		// only if it reproduces one as fetched: a blob written under another t
		// than the descriptor's (another MetaT, or fewer targets than MetaT)
		// would get a share its siblings do not decode with.
		var corrupt []int
		for _, s := range shares {
			if !bytes.Equal(good[s.Index].Data, s.Data) {
				corrupt = append(corrupt, s.Index)
			}
		}
		if len(corrupt) > 0 && len(corrupt) < len(shares) {
			slices.Sort(corrupt)
			c.obs.Note(ctx, "shares.corrected", b.desc()+" indices="+fmt.Sprint(corrupt))
			for _, idx := range corrupt {
				_ = c.putShare(op, ctx, b, good, idx, held[idx], true)
			}
		}
		erasure.ReleaseShares(good)
	}
	return data, nil, nil
}

// GatherError is a k-of-n read that could not hold the t distinct shares it
// needs. It names every share location the read tried, with the latest
// outcome of each, so a failure shows each provider's cause rather than the
// last one alone. It matches ErrDamaged, and every cause it lists.
type GatherError struct {
	Blob       string     // "chunk 1a2b3c4d" or "metadata <version>"
	Held, Need int        // distinct shares held, and the t a decode needs
	Tries      []ShareTry // in the order first tried
	Err        error      // the gather's own error: a skip or cancellation no try shows
}

// ShareTry is one share location a read tried, and how the latest try of it
// ended (Err nil: the share arrived).
type ShareTry struct {
	CSP   string
	Index int
	Err   error
}

func (e *GatherError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: %s: %d of %d shares", ErrDamaged, e.Blob, e.Held, e.Need)
	for i, t := range e.Tries {
		sep := "; "
		if i == 0 {
			sep = ": "
		}
		outcome := "ok"
		if t.Err != nil {
			outcome = t.Err.Error()
		}
		fmt.Fprintf(&b, "%s%s share %d: %s", sep, t.CSP, t.Index, outcome)
	}
	if len(e.Tries) == 0 && e.Err != nil {
		fmt.Fprintf(&b, ": %v", e.Err)
	}
	return b.String()
}

// Unwrap returns ErrDamaged, each try's error and the gather's own.
func (e *GatherError) Unwrap() []error {
	errs := []error{ErrDamaged}
	for _, t := range e.Tries {
		if t.Err != nil {
			errs = append(errs, t.Err)
		}
	}
	if e.Err != nil {
		errs = append(errs, e.Err)
	}
	return errs
}

// noteTry records the outcome of a try, replacing an earlier outcome of the
// same location (the engine retries a location in place).
func noteTry(tries []ShareTry, t ShareTry) []ShareTry {
	for i := range tries {
		if tries[i].CSP == t.CSP && tries[i].Index == t.Index {
			tries[i].Err = t.Err
			return tries
		}
	}
	return append(tries, t)
}

// errShareTooLong fails a share download whose body runs past the share
// size its record implies. The bytes are damaged, not late: the attempt is
// not retried against the same provider (transfer.ErrRejected), and its lane
// walks on to the next location.
var errShareTooLong = fmt.Errorf("%w: %w: share body too long", ErrDamaged, transfer.ErrRejected)

// metaShareStart is the first buffer of a sink whose size is unknown (a
// metadata share); the sink doubles it for a larger record.
const metaShareStart = 4 << 10

// shareSink is the io.Writer a share download lands in: a pooled buffer,
// filled through ReadFrom — which io.Copy, and so every StreamDownloader built
// on it, prefers to Write — straight from the connection. Given the share's
// size it never holds more: a longer body fails the download (long) instead
// of growing the buffer. Without one (a metadata share, whose size only its
// record knows) the buffer doubles in the pool as the body needs.
type shareSink struct {
	bp    *[]byte
	n     int  // bytes written
	limit bool // len(*bp) is the share's size
	long  bool // the body ran past the share's size
	probe [1]byte
}

func newShareSink(size int64) *shareSink {
	if size > 0 {
		return &shareSink{bp: bufpool.Get(int(size)), limit: true}
	}
	return &shareSink{bp: bufpool.Get(metaShareStart)}
}

// room reports whether another byte fits, growing an unlimited sink.
func (s *shareSink) room() bool {
	if s.n < len(*s.bp) {
		return true
	}
	if s.limit {
		return false
	}
	grown := bufpool.Get(2 * len(*s.bp))
	copy(*grown, (*s.bp)[:s.n])
	bufpool.Put(s.bp)
	s.bp = grown
	return true
}

func (s *shareSink) Write(p []byte) (int, error) {
	written := 0
	for len(p) > 0 {
		if !s.room() {
			s.long = true
			return written, errShareTooLong
		}
		k := copy((*s.bp)[s.n:], p)
		s.n += k
		written += k
		p = p[k:]
	}
	return written, nil
}

func (s *shareSink) ReadFrom(r io.Reader) (int64, error) {
	var read int64
	for {
		var k int
		var err error
		if s.room() {
			k, err = r.Read((*s.bp)[s.n:])
			s.n += k
			read += int64(k)
		} else if k, err = r.Read(s.probe[:]); k > 0 {
			// A full sink of known size, and the body goes on.
			s.long = true
			return read, errShareTooLong
		}
		if err == io.EOF {
			return read, nil
		}
		if err != nil {
			return read, err
		}
	}
}

// bytes returns the share as downloaded.
func (s *shareSink) bytes() []byte { return (*s.bp)[:s.n] }

// readable reports whether a provider may serve share downloads: it must
// exist and not be failed; removed providers remain readable until their
// shares migrate away.
func (c *Client) readable(name string) bool {
	c.mu.Lock()
	_, ok := c.stores[name]
	c.mu.Unlock()
	return ok && !c.est.Down(name)
}
