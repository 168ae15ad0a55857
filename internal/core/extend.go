package core

import (
	"context"
	"fmt"

	"repro/internal/csp"
	"repro/internal/erasure"
	"repro/internal/transfer"
)

// Extensions beyond the paper's Table-3 API, motivated by its user study
// and discussion sections: partial reads (content-defined chunking makes
// them natural), importing files users already keep at individual CSPs
// (§7.5: "One user ... suggested adding a feature to import files already
// stored at CSPs"), and explicit garbage collection of unreferenced chunk
// shares (the paper leaves shares alone on deletion because "other files
// may contain these chunks"; the version tree says which chunks some
// version still references, which makes a safe collection possible as an
// explicit user action).

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
	Shares  int   // share objects deleted
	Bytes   int64 // approximate bytes reclaimed (share payloads)
	Skipped int   // shares that could not be deleted (provider unreachable)
	Derefs  int   // CAS reference tokens released without deleting the object
}

// GC reclaims content-addressed shares (dedup mode) no version in the
// metadata tree references. The tree only grows, so every share a record
// names stays referenced, including deleted files' old versions (which
// remain restorable); what GC can free is the residue of dedup uploads that
// crashed before their metadata landed.
//
// Content-addressed shares may be referenced by other users, so GC never
// deletes them directly: a reconciliation sweep replays any interrupted
// refcount update against raw provider listings, re-asserting this user's
// reference token on every CAS object a tree version still references and
// releasing it (csp.RefStore.DelRef) from every one none does; the provider
// removes the object only when the last token drains. Providers without
// reference support are left alone. GC must not run concurrently with
// uploads by any device of this user (the token is one per user key): the
// sweep would release tokens of chunks whose metadata is still in flight.
//
// The sweep compares raw listings against the local tree, so it only runs
// when the pre-GC sync achieved a full view (every active provider listed,
// no availability failures): a stale tree would release the token of a
// sibling device's freshly published chunks. Record-level unreadables —
// foreign users' records in a shared deployment — do not block the sweep:
// they can never decode, and their owners' tokens are not this client's to
// touch.
//
// Without a DedupSecret, GC deletes nothing: every keyed share a record
// names stays referenced by the grow-only tree, and the shares of an
// interrupted keyed upload are leaked — a keyed share name does not say
// which user owns it, so no sweep can tell an orphan from another user's
// share.
func (c *Client) GC(ctx context.Context) (_ GCStats, err error) {
	ctx, sp := c.obs.StartOp(ctx, "gc")
	defer func() { sp.End(err) }()
	c.syncBestEffort(ctx, "")

	var stats GCStats
	if c.names.conv == nil {
		return stats, nil
	}
	if !c.syncFullView() {
		c.obs.Note(ctx, "gc.cas_sweep_skipped", "last sync saw a partial view")
		return stats, nil
	}
	// Deletes route through one engine operation: retried per the taxonomy,
	// and a provider that exhausts its retries is skipped for the rest of
	// the collection (its shares count as Skipped, not retried N more times).
	op := c.engine.Begin(ctx)
	defer op.Finish()
	c.gcReconcileCAS(op, ctx, &stats)
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
func (c *Client) gcReconcileCAS(op *transfer.Op, ctx context.Context, stats *GCStats) {
	// References are per encoding (chunk ID + class): after a lifecycle
	// demotion both encodings of a chunk coexist.
	refTags := make(map[string]bool)
	sizeOfTag := make(map[string]int64)
	for _, m := range c.tree.All() {
		for _, ref := range m.Chunks {
			if info, ok := c.table.LookupEnc(ref.ID, ref.Class); ok && info.CAS {
				tag := c.names.conv.Tag(ref.ID)
				refTags[tag] = true
				sizeOfTag[tag] = erasure.ShareSize(info.Size, info.T)
			}
		}
	}
	token := c.names.RefToken()

	type action struct {
		cspName string
		rs      csp.RefStore
		name    string
		keep    bool // referenced: assert our token; else release it
	}
	var asserts, releases []action
	for _, cspName := range c.activeCSPs() {
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
			if !ok {
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
		_ = c.call(op, ctx, a.cspName, opRef, func(actx context.Context, _ csp.Store) (int64, error) {
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
		errs[i] = c.call(op, ctx, a.cspName, opRef, func(actx context.Context, _ csp.Store) (int64, error) {
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
