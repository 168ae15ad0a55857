package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"repro/internal/erasure"
	"repro/internal/metadata"
	"repro/internal/transfer"
)

// Put uploads a file — put(s, f), Algorithm 2. It is the batch wrapper
// over PutReader: the whole-file buffer is accounted as resident for its
// duration (the streaming path accounts only its pipelineDepth window).
func (c *Client) Put(ctx context.Context, name string, data []byte) error {
	c.acctAdd(int64(len(data)))
	defer c.acctSub(int64(len(data)))
	return c.PutReader(ctx, name, bytes.NewReader(data))
}

// scatterChunk encodes one chunk and uploads its n shares to n distinct
// CSPs (at most one per platform cluster) chosen by consistent hashing on
// the chunk ID. CSPs that fail are replaced by the next candidates on the
// ring; the upload fails only when fewer than n providers accept shares.
// All uploads dispatch through the operation's transfer engine: bounded
// in-flight slots, taxonomy-driven retries, and the shared failed set
// (a provider that exhausted its retries for one share is skipped by
// every other share's fallback walk).
func (c *Client) scatterChunk(op *transfer.Op, ref metadata.ChunkRef, data []byte) (_ []metadata.ShareLoc, err error) {
	ctx, chunkSpan := c.obs.Trace(op.Context(), "chunk.scatter")
	defer func() { chunkSpan.End(err) }()
	// Full preference order: every eligible CSP, cluster-constrained,
	// starting at the chunk's ring position; the chunk's class pulls its
	// CSP subset to the front (placementOrderFor).
	prefs, err := c.placementOrderFor(ref.ID, ref.Class)
	if err != nil {
		return nil, err
	}
	if len(prefs) < ref.N {
		return nil, fmt.Errorf("%w: %d providers for %d shares of chunk %s", ErrNotEnoughCSP, len(prefs), ref.N, ref.ID[:8])
	}
	// Shares use pooled buffers, returned once every upload has finished
	// (op.Each joins before this function returns on every path).
	b, err := c.chunkBlob(ref)
	if err != nil {
		return nil, err
	}
	shares, err := c.encode(b, data)
	if err != nil {
		return nil, err
	}
	defer erasure.ReleaseShares(shares)

	var mu sync.Mutex
	next := ref.N // cursor into prefs for fallback targets
	locs := make([]metadata.ShareLoc, 0, ref.N)
	var firstErr error

	takeNext := func() (string, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next < len(prefs) {
			cur := prefs[next]
			next++
			return cur, true
		}
		return "", false
	}

	op.Each(ref.N, func(i int) {
		cur := prefs[i]
		for {
			if cerr := ctx.Err(); cerr != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = cerr
				}
				mu.Unlock()
				return
			}
			err := c.putShare(op, ctx, b, shares, i, cur, false)
			if err == nil {
				mu.Lock()
				locs = append(locs, metadata.ShareLoc{ChunkID: ref.ID, Index: i, CSP: cur})
				mu.Unlock()
				return
			}
			// Fall back to the next candidate on the ring.
			if n, ok := takeNext(); ok {
				cur = n
				continue
			}
			fatal := fmt.Errorf("cyrus: share %d of chunk %s: no provider accepted it: %w", i, ref.ID[:8], err)
			mu.Lock()
			if firstErr == nil {
				firstErr = fatal
			}
			mu.Unlock()
			// The whole Put is doomed without this share: cancel the
			// operation now so sibling share uploads (this chunk's and
			// other chunks') stop instead of finishing wasted work.
			op.Fail(fatal)
			return
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if len(locs) != ref.N {
		return nil, fmt.Errorf("cyrus: chunk %s: stored %d of %d shares", ref.ID[:8], len(locs), ref.N)
	}
	return locs, nil
}

// placementOrder returns every active CSP in ring order starting at the
// chunk's position, cluster-constrained when clustering is configured.
func (c *Client) placementOrder(chunkID string) ([]string, error) {
	max := c.clusterCount(c.activeCSPs())
	if max == 0 {
		return nil, ErrNotEnoughCSP
	}
	if c.cfg.ClusterOf != nil {
		prefs, err := c.ring.SelectClustered(chunkID, max, c.cfg.ClusterOf)
		if err != nil && len(prefs) == 0 {
			return nil, err
		}
		return prefs, nil
	}
	prefs, err := c.ring.SelectN(chunkID, max)
	if err != nil && len(prefs) == 0 {
		return nil, err
	}
	return prefs, nil
}
