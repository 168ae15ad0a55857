package core

import (
	"context"

	"repro/internal/erasure"
	"repro/internal/metadata"
	"repro/internal/transfer"
)

// migrateStaleShares implements lazy share migration (paper §5.5,
// Figure 9): after a download decodes a chunk, any of its shares living on
// a removed or failed provider is re-derived from the plaintext chunk and
// uploaded to a provider not already holding one of the chunk's shares.
// The global chunk table is updated so subsequent downloads — and the next
// metadata version of any file containing the chunk — use the new location.
//
// Migration is best-effort: failures leave the old location in place (the
// chunk remains readable through its surviving shares) and will be retried
// on the next download.
func (c *Client) migrateStaleShares(ctx context.Context, file string, ref metadata.ChunkRef, locs map[int]string, data []byte) {
	var stale []int
	holding := make(map[string]bool)
	for idx, cspName := range locs {
		// Stale holders count as holding too: the old share object stays
		// behind (a removed provider may be reinstated later), and a
		// platform that physically stores one share must never receive a
		// second — t-privacy is a property of physical placement, not of
		// the chunk table.
		holding[cspName] = true
		if c.shareLocationStale(cspName) {
			stale = append(stale, idx)
		}
	}
	if len(stale) == 0 {
		return
	}
	// CAS chunks re-encode with the content-derived coder and keep their
	// content-addressed name at the new location (the name encodes no
	// provider); the put is the one CAS protocol (putCASShare: its AddRef
	// probe is one round trip beside the n listing probes each target already
	// cost) and registers our reference token, so refcounted GC covers the
	// copy. chunkBlob only fails without the deployment secret: no migration.
	b, err := c.chunkBlob(file, ref)
	if err != nil {
		return
	}
	prefs, err := c.placementOrderFor(ref.ID, ref.Class)
	if err != nil {
		return
	}
	// Every probe and move routes through one engine operation: bounded
	// slots, the taxonomy-driven retry policy, and a shared failed set (a
	// target that exhausts its retries for one move is not re-probed by
	// another). Failures never cancel siblings — each move is independent
	// best-effort.
	op := c.engine.Begin(ctx)
	defer op.Finish()

	// Candidate targets: ring order for this chunk (within its class's
	// placement preference), skipping providers that already hold one of its
	// shares. The local view can lag — another client may have migrated a
	// share of this chunk already, and old metadata still lists the
	// pre-migration location — so before committing to a candidate, probe
	// whether it physically holds any share of the chunk. Without the probe
	// two clients with stale tables can double-place shares on one platform,
	// silently breaking t-privacy.
	targets := make([]string, len(stale)) // new provider of stale[k], "" = none
	pi := 0
	for k := range stale {
		for pi < len(prefs) && targets[k] == "" {
			cand := prefs[pi]
			pi++
			if !holding[cand] && !c.holdsAnyShare(op, ctx, cand, b) {
				targets[k] = cand
			}
			holding[cand] = true
		}
	}
	// Targets are handed out in order, so if the first stale share got none,
	// none did: keep the stale locations.
	if targets[0] == "" {
		return
	}
	ctx, sp := c.obs.StartOp(ctx, "migrate")
	defer func() { sp.End(nil) }()
	shares, err := c.encode(b, data)
	if err != nil {
		return
	}
	defer erasure.ReleaseShares(shares)
	op.Each(len(stale), func(k int) {
		idx, target := stale[k], targets[k]
		if target == "" || c.putShare(op, ctx, b, shares, idx, target, false) != nil {
			return
		}
		c.table.MoveShareEnc(ref.ID, ref.Class, idx, target)
		c.logf("migrated share", "chunk", ref.ID[:8], "index", idx, "to", target)
		// The source copy is deliberately NOT deleted. Old metadata
		// records still list it, and a fresh client recovering from
		// nothing but the cloud locates shares through those records —
		// draining the source would strand such clients one share short
		// whenever another provider is unreachable. The stray copy costs
		// space, never privacy: target selection skips every physical
		// holder, so no platform ever accumulates a second share.
	})
}

// holdsAnyShare probes whether a provider physically stores any share of
// the chunk, regardless of what the local table claims. Errors count as
// holding: an unverifiable candidate is skipped rather than risked.
func (c *Client) holdsAnyShare(op *transfer.Op, ctx context.Context, cspName string, b *blob) bool {
	for i := 0; i < b.n; i++ {
		if infos, err := c.list(op, ctx, cspName, b.name(i)); err != nil || len(infos) > 0 {
			return true
		}
	}
	return false
}

// shareLocationStale reports whether shares should move off a provider:
// it was removed by the user, it vanished, or it is counted as failed.
func (c *Client) shareLocationStale(name string) bool {
	c.mu.Lock()
	_, present := c.stores[name]
	removed := c.removed[name]
	c.mu.Unlock()
	return !present || removed || c.est.Down(name)
}
