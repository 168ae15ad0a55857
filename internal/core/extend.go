package core

import (
	"context"
	"fmt"

	"repro/internal/csp"
	"repro/internal/erasure"
	"repro/internal/metadata"
	"repro/internal/transfer"
)

// Extensions beyond the paper's Table-3 API, motivated by its user study
// and discussion sections: partial reads (content-defined chunking makes
// them natural), importing files users already keep at individual CSPs
// (§7.5: "One user ... suggested adding a feature to import files already
// stored at CSPs"), and explicit garbage collection of unreferenced chunk
// shares (the paper leaves shares alone on deletion because "other files
// may contain these chunks"; the chunk table's reference counts make a
// safe collection possible as an explicit user action).

// GetRange downloads only the chunks covering [offset, offset+length) of
// the file's current version and returns exactly those bytes. Chunks
// outside the range are neither selected nor transferred.
func (c *Client) GetRange(ctx context.Context, name string, offset, length int64) ([]byte, FileInfo, error) {
	return c.read(ctx, "get_range", name, "", offset, length, nil, false)
}

// Import pulls an object the user already stores at one provider (outside
// CYRUS) and re-stores it through CYRUS under destName; the original is
// left untouched.
func (c *Client) Import(ctx context.Context, providerName, objectName, destName string) (err error) {
	ctx, sp := c.obs.StartOp(ctx, "import")
	defer func() { sp.End(err) }()
	if _, ok := c.store(providerName); !ok {
		return fmt.Errorf("cyrus: CSP %q not present", providerName)
	}
	op := c.engine.Begin(ctx)
	data, err := c.download(op, ctx, providerName, opDownload, objectName)
	op.Finish()
	if err != nil {
		return fmt.Errorf("cyrus: import %s from %s: %w", objectName, providerName, err)
	}
	if destName == "" {
		destName = objectName
	}
	return c.Put(ctx, destName, data)
}

// GCStats reports what a garbage collection removed.
type GCStats struct {
	Chunks  int   // unreferenced chunks collected
	Shares  int   // share objects deleted
	Bytes   int64 // approximate bytes reclaimed (share payloads)
	Skipped int   // shares that could not be deleted (provider unreachable)
	Derefs  int   // CAS reference tokens released without deleting the object
}

// GC deletes the share objects of chunks no version in the metadata tree
// references — orphans left by interrupted uploads or pruned histories.
// Chunks referenced by any version, including deleted files' old versions
// (which remain restorable), are never touched.
//
// Content-addressed shares (dedup mode) may be referenced by other users,
// so GC never deletes them directly: it releases this user's reference
// token (csp.RefStore.DelRef) and the provider removes the object only
// when the last token drains. On providers without reference support CAS
// shares are left alone entirely (conservatively counted as Skipped).
// After the orphan pass, a reconciliation sweep replays any interrupted
// refcount update against raw provider listings: this user's token is
// re-asserted on every CAS object a tree version still references, and
// released from every one none does — including shares of uploads that
// crashed before their metadata landed, which no table entry records.
// GC must not run concurrently with this user's own uploads: the sweep
// would release tokens of chunks whose metadata is still in flight.
//
// The sweep releases tokens by comparing raw listings against the local
// tree, so it only runs when the pre-GC sync achieved a full view (every
// active provider listed, no availability failures): a stale tree would
// release the token of a sibling device's freshly published chunks.
// Record-level unreadables — foreign users' records in a shared
// deployment — do not block the sweep: they can never decode, and their
// owners' tokens are not this client's to touch. The orphan pass, which
// only frees chunks this client's own table knows, runs regardless.
func (c *Client) GC(ctx context.Context) (_ GCStats, err error) {
	ctx, sp := c.obs.StartOp(ctx, "gc")
	defer func() { sp.End(err) }()
	c.syncBestEffort(ctx, "")

	// References are per encoding (chunk ID + class): after a lifecycle
	// demotion both encodings of a chunk coexist, and only the one no
	// version references — if any — is collectible.
	referenced := map[string]bool{}
	for _, m := range c.tree.All() {
		for _, ref := range m.Chunks {
			referenced[ref.EncodingKey()] = true
		}
	}

	var stats GCStats
	// The chunk table may know encodings no record references (refs from
	// absorbed-then-pruned versions, or uploads whose metadata never
	// landed). Collect those.
	var orphans []*metadata.ChunkInfo
	for _, info := range c.table.Entries() {
		if !referenced[metadata.EncodingKey(info.ID, info.Class)] {
			orphans = append(orphans, info)
		}
	}
	// Deletes route through one engine operation: retried per the taxonomy,
	// and a provider that exhausts its retries is skipped for the rest of
	// the collection (its shares count as Skipped, not retried N more times).
	op := c.engine.Begin(ctx)
	defer op.Finish()
	handled := make(map[string]bool) // CAS object names the orphan pass released
	for _, info := range orphans {
		ref := metadata.ChunkRef{ID: info.ID, Size: info.Size, T: info.T, N: info.N, CAS: info.CAS, Class: info.Class}
		if info.CAS && c.conv == nil {
			// Content-addressed names are unrecoverable without the
			// deployment secret; leave the entry for a properly configured
			// client to collect.
			stats.Skipped += len(info.Shares)
			continue
		}
		stats.Chunks++
		shareSize := erasure.ShareSize(info.Size, info.T)
		for idx, cspName := range info.Shares {
			idx, cspName := idx, cspName
			store, ok := c.store(cspName)
			if !ok {
				stats.Skipped++
				continue
			}
			rs, hasRefs := store.(csp.RefStore)
			if info.CAS && !hasRefs {
				// No refcounts there: deleting could destroy another user's
				// only copy. Leave the object.
				stats.Skipped++
				continue
			}
			name, nerr := c.shareNameFor(ref, idx)
			if nerr != nil {
				stats.Skipped++
				continue
			}
			removed := true
			kind := opDelete
			if info.CAS {
				kind = opRef
				handled[cspName+"|"+name] = true
			}
			err := c.call(op, ctx, cspName, kind, nil, func(actx context.Context, store csp.Store) (int64, error) {
				if info.CAS {
					r, err := rs.DelRef(actx, name, c.refToken())
					removed = r
					return 0, err
				}
				return 0, store.Delete(actx, name)
			})
			if err != nil && !errIsNotFound(err) {
				stats.Skipped++
				continue
			}
			if !removed {
				stats.Derefs++
				continue
			}
			stats.Shares++
			stats.Bytes += shareSize
		}
		c.table.Drop(metadata.EncodingKey(info.ID, info.Class))
	}
	if c.conv != nil {
		if c.syncFullView() {
			c.gcReconcileCAS(op, ctx, referenced, handled, &stats)
		} else {
			c.logf("skipping CAS reconciliation sweep: last sync saw a partial view")
		}
	}
	return stats, nil
}

// gcReconcileCAS replays the refcount protocol against raw provider state.
// Crash-safety of the dedup GC rests here: any interleaving of a crash
// with an upload or a collection leaves the provider-side token sets in a
// state this sweep repairs — a token this user should hold (chunk still
// referenced) is re-asserted, a token it should not (no referencing
// version, including uploads whose metadata never landed and thus appear
// in no table entry) is released. Only this user's own token is ever
// touched, so concurrent GCs by different users cannot fight.
func (c *Client) gcReconcileCAS(op *transfer.Op, ctx context.Context, referenced, handled map[string]bool, stats *GCStats) {
	refTags := make(map[string]bool)
	sizeOfTag := make(map[string]int64)
	for key := range referenced {
		chunkID, class := metadata.SplitEncodingKey(key)
		if info, ok := c.table.LookupEnc(chunkID, class); ok && info.CAS {
			tag := c.conv.Tag(chunkID)
			refTags[tag] = true
			sizeOfTag[tag] = erasure.ShareSize(info.Size, info.T)
		}
	}
	token := c.refToken()

	type action struct {
		cspName string
		rs      csp.RefStore
		name    string
		keep    bool // referenced: assert our token; else release it
	}
	var asserts, releases []action
	for _, cspName := range c.CSPs() {
		store, ok := c.store(cspName)
		if !ok {
			continue
		}
		rs, ok := store.(csp.RefStore)
		if !ok {
			continue // no reference support: nothing to reconcile
		}
		infos, err := c.list(op, ctx, cspName, CASPrefix)
		if err != nil {
			continue
		}
		for _, info := range infos {
			tag, _, _, ok := parseCASShareName(info.Name)
			if !ok || handled[cspName+"|"+info.Name] {
				continue
			}
			a := action{cspName: cspName, rs: rs, name: info.Name, keep: refTags[tag]}
			if a.keep {
				asserts = append(asserts, a)
			} else {
				if _, ok := sizeOfTag[tag]; !ok {
					sizeOfTag[tag] = info.Size
				}
				releases = append(releases, a)
			}
		}
	}

	// Assert before releasing: a referenced object must carry this user's
	// token before any release could drain the object's token set.
	op.Each(len(asserts), func(i int) {
		a := asserts[i]
		_ = c.call(op, ctx, a.cspName, opRef, nil, func(actx context.Context, _ csp.Store) (int64, error) {
			err := a.rs.AddRef(actx, a.name, token)
			if errIsNotFound(err) {
				err = nil // deleted since the listing; nothing to assert on
			}
			return 0, err
		})
	})

	// Every release's own outcome is needed: a miss on one provider is an
	// answer, not a failure.
	removed := make([]bool, len(releases))
	errs := make([]error, len(releases))
	op.Each(len(releases), func(i int) {
		a := releases[i]
		errs[i] = c.call(op, ctx, a.cspName, opRef, nil, func(actx context.Context, _ csp.Store) (int64, error) {
			r, err := a.rs.DelRef(actx, a.name, token)
			removed[i] = r
			return 0, err
		})
	})
	for i, err := range errs {
		if err != nil && !errIsNotFound(err) {
			stats.Skipped++
			continue
		}
		if removed[i] {
			stats.Shares++
			tag, _, _, _ := parseCASShareName(releases[i].name)
			stats.Bytes += sizeOfTag[tag]
		} else if err == nil {
			stats.Derefs++
		}
	}
}
