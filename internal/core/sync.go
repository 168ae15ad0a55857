package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/metadata"
)

// Sync brings the local metadata replica up to date: it lists the metadata
// prefix on the reachable providers, downloads every record the local tree
// lacks, and merges them (paper §5.4: "changes at CSPs can be seen by
// looking up the list of metadata files stored in the cloud, since a new
// metadata file is created with each file upload").
//
// Sync returns the number of newly absorbed records. Individual record
// failures do not abort the sync; the first such error is returned
// alongside the count.
//
// Sync also records whether it achieved a *full view*: every active
// provider answered the metadata listing, and every failure (if any) was a
// record-level unreadable — a record fetched with quorum that does not
// decode, i.e. a foreign user's record in a shared deployment or one
// rotted beyond the correcting bound. A full view means the local tree now
// references everything this user can ever read, which is the safety
// precondition for GC's reference-token reconciliation sweep. Availability
// failures (providers down, shares unfetchable) leave the view partial.
func (c *Client) Sync(ctx context.Context) (n int, err error) {
	return c.syncMeta(ctx, "")
}

// syncMeta is the one list → Missing → fetch → absorb pipeline behind every
// sync. With name empty it is the full Sync, over the whole metadata prefix.
// With a file name it is the scoped sync a single-name operation runs first:
// the same pipeline over that name's prefix, cyrus-meta-<tag>- — O(versions
// of the name) entries however large the namespace, and exactly as fresh for
// that name. Everything that needs the whole record set — the CSP status
// list, the full-view flag GC consumes, metadata re-placement and tree
// compaction — belongs to the full Sync alone.
func (c *Client) syncMeta(ctx context.Context, name string) (n int, err error) {
	ctx, sp := c.obs.StartOp(ctx, "sync")
	defer func() { sp.End(err) }()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	scoped := name != ""
	prefix := metadata.MetaPrefix
	if scoped {
		prefix += c.names.metaTag(name) + "-"
	}
	full := false
	if !scoped {
		defer func() { c.setSyncFullView(full) }()
	}
	// One engine operation spans the listing and every record fetch, so
	// a provider that times out once is skipped by all later contacts of
	// the same sync. Individual record failures are tolerated (no Fail):
	// the sync absorbs what it can and reports the first error alongside.
	op := c.engine.Begin(ctx)
	defer op.Finish()
	locs, extras, complete, err := c.listMetaShares(op, ctx, prefix)
	if err != nil {
		return 0, err
	}
	// Apply any newer CSP status list before deciding placements (a name's
	// prefix never matches it, so a scoped listing carries none).
	c.syncCSPList(op, ctx, extras)
	// Version ID -> record key; a version held under both name forms is read
	// under the smaller key, so replays fetch the same objects.
	recOf := make(map[string]string, len(locs))
	for rec := range locs {
		vid := recordVersion(rec)
		if cur, dup := recOf[vid]; !dup || rec < cur {
			recOf[vid] = rec
		}
	}
	vids := make([]string, 0, len(recOf))
	for vid := range recOf {
		vids = append(vids, vid)
	}
	missing := c.tree.Missing(vids) // sorted by version ID; from here on, record keys
	for i, vid := range missing {
		missing[i] = recOf[vid]
	}

	// Batched resolution: one round trip per provider for the common case,
	// with per-record fallback inside (see fetchMetaBatch).
	absorbed := 0
	var firstErr error
	unreadableOnly := true
	fetched, fetchErrs := c.fetchMetaBatch(op, ctx, missing, locs)
	for _, rec := range missing {
		err := fetchErrs[rec]
		if err == nil {
			if m, ok := fetched[rec]; ok {
				err = c.absorb(m, recordVersion(rec))
			} else {
				continue
			}
		}
		if err != nil {
			// Prefer reporting an availability failure over an unreadable
			// record: the former is actionable and transient, and its
			// absence is what distinguishes a full view.
			if errors.Is(err, errUndecodable) {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				unreadableOnly = false
				if firstErr == nil || errors.Is(firstErr, errUndecodable) {
					firstErr = err
				}
			}
			continue
		}
		absorbed++
	}
	if scoped {
		return absorbed, firstErr
	}
	full = complete && unreadableOnly
	if full {
		// With the complete recoverable state in hand it is safe to re-place
		// sharded metadata after ring churn (stale holders keep their
		// copies — see repairMetaPlacement). The pass is deterministic over
		// the full record set, so independently syncing clients converge
		// on the same state.
		// The repair scan runs on every full view, not just after a ring
		// epoch change: a record uploaded during a provider outage met its
		// t-quorum with fewer than MetaShards shares, and only this pass
		// restores the shard's full replication once the provider returns.
		// A placed epoch older than the ring's forces the full per-record
		// target scan; otherwise only under-placed records are examined.
		// The epoch is raised only after a clean repair, so partial work
		// is retried, and never lowered, so a slow sync that ran under an
		// older ring cannot undo a newer one's repair.
		if c.cfg.MetaShards > 0 {
			epoch := c.ringEpoch.Load()
			if c.repairMetaPlacement(op, ctx, locs, c.placedEpoch.Load() < epoch) {
				for cur := c.placedEpoch.Load(); cur < epoch; cur = c.placedEpoch.Load() {
					if c.placedEpoch.CompareAndSwap(cur, epoch) {
						break
					}
				}
			}
		}
	}
	return absorbed, firstErr
}

// setSyncFullView / syncFullView track whether the most recent Sync saw
// the complete recoverable state (see Sync's doc comment). Consumed by GC.
func (c *Client) setSyncFullView(v bool) {
	c.mu.Lock()
	c.syncFull = v
	c.mu.Unlock()
}

func (c *Client) syncFullView() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncFull
}

// syncBestEffort runs the sync in front of the operations that tolerate
// staleness (Algorithm 3 line 2 and friends): scoped to name for an operation
// on one file, full when name is empty. Until a full Sync has seen the whole
// recoverable state the full one runs either way: only it finds records under
// legacy names, and a client with a partial view should keep looking. The
// operation proceeds whatever the outcome, but a failure is not swallowed: it
// is recorded as a failed sync op (cyrus_op_duration_seconds{op="sync",
// result="error"}) so applications can tell "fresh view" from "serving stale
// state", and reported to the caller (resolve confers no freshness from a
// sync that failed).
func (c *Client) syncBestEffort(ctx context.Context, name string) (ok bool) {
	if !c.syncFullView() {
		name = ""
	}
	_, err := c.syncMeta(ctx, name)
	return err == nil
}

// Recover rebuilds the client's state purely from the cloud — the paper's
// s' = recover(s). It is a full Sync: a fresh device with only the key and
// the provider accounts converges to the full cloud state, and since every
// absorbed record's share locations enter the chunk table as it lands, the
// table covers whatever the sync absorbed even when the sync reports an error
// (a partial view: an unreadable record, an unreachable provider), so every
// version the tree holds stays readable; the sync error is returned.
func (c *Client) Recover(ctx context.Context) error {
	if _, err := c.Sync(ctx); err != nil {
		return fmt.Errorf("cyrus: recover: %w", err)
	}
	return nil
}

// Conflicts returns the currently detected file conflicts (both types of
// Figure 8), after a best-effort sync: each conflicted name with its live
// leaves, the versions Resolve may pick a winner from.
func (c *Client) Conflicts(ctx context.Context) []ConflictInfo {
	c.syncBestEffort(ctx, "")
	return c.conflictsLocal()
}

func (c *Client) conflictsLocal() []ConflictInfo {
	raw := c.tree.Conflicts()
	out := make([]ConflictInfo, 0, len(raw))
	for _, cf := range raw {
		info := ConflictInfo{Name: cf.Name, Type: cf.Type.String()}
		for _, vid := range cf.Versions {
			if m, err := c.tree.Get(vid); err == nil {
				info.Versions = append(info.Versions, fileInfo(metadata.Version{ID: vid, FileMeta: m}, false))
			}
		}
		out = append(out, info)
	}
	return out
}

// ConflictInfo is a user-facing conflict description.
type ConflictInfo struct {
	Name     string
	Type     string
	Versions []FileInfo // the name's live leaves, by version ID
}

// Resolve settles a conflict by designating a winning version: every other
// live leaf of the name is superseded by a deletion marker, so all replicas
// converge on the winner (the paper lets clients upload conflicting files
// and "prompts users to resolve them"; this is the resolution primitive).
// The winner must be one of the live leaves Conflicts lists for the name; on
// an unconflicted name Resolve does nothing. The leaves are read after a sync
// of the name, so a replica that has not yet seen the other branch still
// settles it. The loser versions remain in history and stay recoverable.
func (c *Client) Resolve(ctx context.Context, name, winnerVersionID string) error {
	if _, _, err := c.resolve(ctx, name, "", syncAlways); err != nil {
		return err
	}
	if _, _, err := c.resolve(ctx, name, winnerVersionID, noSync); err != nil {
		return err
	}
	cf, conflicted := c.tree.Conflict(name)
	if !conflicted {
		return nil
	}
	if !slices.Contains(cf.Versions, winnerVersionID) {
		return fmt.Errorf("cyrus: resolve %q: %s is not one of its live leaves %v", name, winnerVersionID, cf.Versions)
	}
	for _, vid := range cf.Versions {
		if vid == winnerVersionID {
			continue
		}
		loser, err := c.tree.Get(vid)
		if err != nil {
			return err
		}
		if err := c.supersede(ctx, metadata.Version{ID: vid, FileMeta: loser}); err != nil {
			return err
		}
	}
	return nil
}

// supersede appends a deletion marker on top of the given version.
func (c *Client) supersede(ctx context.Context, m metadata.Version) error {
	op := c.engine.Begin(ctx)
	defer op.Finish()
	return c.publish(op, newDeletionMarker(m, c.cfg.ClientID, c.rt.Now()))
}
