package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/erasure"
	"repro/internal/metadata"
	"repro/internal/transfer"
)

// Get downloads the current version of a file — get(s, f), Algorithm 3.
// The returned FileInfo reports whether the file is in a conflicted state
// (competing concurrent versions exist); the returned bytes are the
// deterministic winning head.
func (c *Client) Get(ctx context.Context, name string) (_ []byte, _ FileInfo, err error) {
	ctx, sp := c.obs.StartOp(ctx, "get")
	defer func() { sp.End(err) }()
	// Algorithm 3 line 2, short-circuited by a warm cache hit (zero
	// metadata round trips; see headForRead).
	head, conflicted, err := c.headForRead(ctx, name)
	if err != nil {
		return nil, FileInfo{}, err
	}
	info := fileInfo(head, conflicted)
	if head.File.Deleted {
		return nil, info, fmt.Errorf("%w: %q", ErrFileDeleted, name)
	}
	data, err := c.fetchVersion(ctx, head)
	if err != nil {
		return nil, info, err
	}
	return data, info, nil
}

// GetVersion downloads a specific version of a file — get(s, f, v).
func (c *Client) GetVersion(ctx context.Context, name, versionID string) (_ []byte, _ FileInfo, err error) {
	ctx, sp := c.obs.StartOp(ctx, "get")
	defer func() { sp.End(err) }()
	m, err := c.tree.Get(versionID)
	if err != nil {
		return nil, FileInfo{}, err
	}
	if m.File.Name != name {
		return nil, FileInfo{}, fmt.Errorf("cyrus: version %s belongs to %q, not %q", versionID, m.File.Name, name)
	}
	info := fileInfo(m, false)
	if m.File.Deleted {
		return nil, info, fmt.Errorf("%w: version %s", ErrFileDeleted, versionID)
	}
	data, err := c.fetchVersion(ctx, m)
	if err != nil {
		return nil, info, err
	}
	return data, info, nil
}

// fetchVersion is the batch wrapper over the streaming fetchTo: it
// collects the whole version into one buffer (accounted as resident for
// its duration) and returns it. All gather/verify/migrate logic lives in
// fetchTo (stream.go).
func (c *Client) fetchVersion(ctx context.Context, m *metadata.FileMeta) ([]byte, error) {
	if len(m.Chunks) == 0 {
		return []byte{}, nil
	}
	c.acctAdd(m.File.Size)
	defer c.acctSub(m.File.Size)
	buf := bytes.NewBuffer(make([]byte, 0, m.File.Size))
	if err := c.fetchTo(ctx, m, 0, m.File.Size, buf, true); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gatherChunk downloads t shares of one chunk (preferring the optimizer's
// pick, falling back to any other stored location on error), decodes, and
// verifies content. Algorithm 3's Gather, as one transfer.Gather: every
// picked source gets a lane, and redundant lanes fed from the fallback pool
// follow the configured schedule — by default one hedge per source, fired
// when the source exceeds its load-predicted latency; with Config.RaceReads
// up to that many lanes at t=0 instead. Losers are cancelled the moment
// ref.T shares land.
func (c *Client) gatherChunk(op *transfer.Op, file string, ref metadata.ChunkRef, locations map[int]string, sources []string) (_ []byte, err error) {
	chunkStart := c.rt.Now()
	ctx, chunkSpan := c.obs.Trace(op.Context(), "chunk.gather")
	defer func() { chunkSpan.End(err) }()
	// CAS chunks live under content-addressed names and decode with the
	// content-derived coder; coderFor fails fast when the deployment secret
	// is missing, so shareNameFor below cannot.
	coder, err := c.coderFor(ref)
	if err != nil {
		return nil, err
	}
	// Index each CSP's share index.
	idxOf := make(map[string]int, len(locations))
	for idx, cspName := range locations {
		idxOf[cspName] = idx
	}
	// Fallback pool: stored locations not in the primary pick.
	var fallback []string
	for cspName := range idxOf {
		if !slices.Contains(sources, cspName) && c.readable(cspName) {
			fallback = append(fallback, cspName)
		}
	}
	sort.Strings(fallback)

	// got is written by attempt Run closures, which a gather loser may
	// still execute after this function returned — every access stays
	// under mu and the decodes below work on snapshots.
	var mu sync.Mutex
	var got []erasure.Share
	snapshot := func() []erasure.Share {
		mu.Lock()
		defer mu.Unlock()
		return append([]erasure.Share(nil), got...)
	}

	attemptFor := func(cspName string) transfer.Attempt {
		idx := idxOf[cspName]
		return transfer.Attempt{
			CSP:  cspName,
			Kind: opDownload,
			Run: func(actx context.Context) (int64, error) {
				store, ok := c.store(cspName)
				if !ok {
					return 0, errProviderVanished(cspName)
				}
				name, _ := c.shareNameFor(ref, idx)
				data, err := store.Download(actx, name)
				if err == nil {
					mu.Lock()
					got = append(got, erasure.Share{Index: idx, Data: data})
					mu.Unlock()
				}
				return int64(len(data)), err
			},
			Done: func(aerr error, bytes int64, elapsed time.Duration) {
				c.events.emit(Event{Type: EvShareGet, File: file, ChunkID: ref.ID, Index: idx, CSP: cspName, Bytes: bytes, Duration: elapsed, Err: aerr})
			},
		}
	}

	// The launch schedule is the only thing RaceReads changes. A source
	// already in the operation's failed set costs nothing: its lane is
	// skipped straight to the fallback pool.
	g := transfer.Gather{
		Need: ref.T,
		Race: c.cfg.RaceReads,
		// The fallback cursor is shared by every lane, so no location is
		// fetched twice.
		Next: func() (transfer.Attempt, bool) {
			for len(fallback) > 0 {
				cand := fallback[0]
				fallback = fallback[1:]
				if op.Failed(cand) || !c.readable(cand) {
					continue
				}
				return attemptFor(cand), true
			}
			return transfer.Attempt{}, false
		},
	}
	for _, src := range sources {
		g.Primary = append(g.Primary, attemptFor(src))
		if g.Race == 0 {
			g.HedgeAfter = append(g.HedgeAfter, c.hedgeAfter(ctx, src, erasure.ShareSize(ref.Size, ref.T)))
		}
	}
	gerr := op.Gather(ctx, g)

	// A loser's share may still land later, which is harmless: the decode
	// works on this snapshot and tolerates surplus shares.
	shares := snapshot()
	if len(shares) < ref.T {
		return nil, fmt.Errorf("%w: chunk %s: %d of %d shares (last error: %v)",
			ErrDamaged, ref.ID[:8], len(shares), ref.T, gerr)
	}
	// Decode and verify on the codec pool: bounded CPU slots, overlapping
	// the share downloads of sibling chunks still in flight.
	var data []byte
	c.codec.run("decode", ref.Size, func() {
		data, err = coder.Decode(shares, erasure.MaxN)
		if err == nil {
			if got := metadata.HashData(data); got != ref.ID {
				err = fmt.Errorf("%w: chunk decodes to %s, expected %s", ErrDamaged, got[:8], ref.ID[:8])
			}
		}
	})
	if err != nil {
		// A fetched share may be corrupt (bit rot, a tampering provider).
		// Widen: run the same gather again over every remaining readable
		// location, in share-index order so replays launch identically, and
		// hand everything to the correcting decoder (paper §7.1: the R-S
		// code recovers through errored shares given surplus). Locations
		// that fail just leave it less surplus, and a share a draining
		// loser lands twice is deduplicated by the decoder.
		var rest []int
		for idx, cspName := range locations {
			fetched := slices.ContainsFunc(shares, func(s erasure.Share) bool { return s.Index == idx })
			if !fetched && c.readable(cspName) {
				rest = append(rest, idx)
			}
		}
		sort.Ints(rest)
		wide := transfer.Gather{Need: len(rest)}
		for _, idx := range rest {
			wide.Primary = append(wide.Primary, attemptFor(locations[idx]))
		}
		_ = op.Gather(ctx, wide)
		data, err = c.correctChunk(ctx, op, ref, coder, locations, snapshot())
		if err != nil {
			return nil, err
		}
	}
	c.events.emit(Event{Type: EvChunkComplete, File: file, ChunkID: ref.ID, Duration: c.rt.Now().Sub(chunkStart)})
	return data, nil
}

// correctChunk runs the error-correcting decode over every share a widened
// gather collected, verifying against the chunk's content hash.
// Identified-corrupt shares are re-written with correct bytes
// (self-healing) on a best-effort basis.
func (c *Client) correctChunk(ctx context.Context, op *transfer.Op, ref metadata.ChunkRef, coder *erasure.Coder, locations map[int]string, all []erasure.Share) ([]byte, error) {
	data, corrupt, err := coder.DecodeCorrecting(all, erasure.MaxN)
	if err != nil {
		return nil, fmt.Errorf("%w: chunk %s uncorrectable: %v", ErrDamaged, ref.ID[:8], err)
	}
	if got := metadata.HashData(data); got != ref.ID {
		return nil, fmt.Errorf("%w: corrected chunk decodes to %s, expected %s", ErrDamaged, got[:8], ref.ID[:8])
	}
	// Self-heal: overwrite the corrupt share objects with correct bytes.
	// Deliberately a plain Upload even for CAS objects: PutRef would see
	// the (corrupt) object exists and skip the payload, while an overwrite
	// replaces the bytes and leaves the provider's reference tokens — which
	// are independent of object content — untouched.
	if len(corrupt) > 0 {
		c.logf("corrected corrupt shares", "chunk", ref.ID[:8], "indices", fmt.Sprint(corrupt))
		if good, err := coder.Encode(data, ref.T, ref.N); err == nil {
			defer erasure.ReleaseShares(good)
			for _, idx := range corrupt {
				cspName, ok := locations[idx]
				if !ok {
					continue
				}
				_ = op.Do(ctx, transfer.Attempt{
					CSP:  cspName,
					Kind: opUpload,
					Run: func(actx context.Context) (int64, error) {
						store, ok := c.store(cspName)
						if !ok {
							return 0, errProviderVanished(cspName)
						}
						name, _ := c.shareNameFor(ref, idx)
						return good[idx].Size(), store.Upload(actx, name, good[idx].Data)
					},
				})
			}
		}
	}
	return data, nil
}

// readable reports whether a provider may serve share downloads: it must
// exist and not be failed; removed providers remain readable until their
// shares migrate away.
func (c *Client) readable(name string) bool {
	c.mu.Lock()
	_, ok := c.stores[name]
	c.mu.Unlock()
	return ok && !c.est.Down(name)
}
