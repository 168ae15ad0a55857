package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/csp"
	"repro/internal/metadata"
	"repro/internal/transfer"
)

// CSP lifecycle propagation (paper §5.5): "A user may add a CSP to CYRUS
// by updating the list of available CSPs at the cloud" — and likewise for
// removal. The list is stored as one small object at every provider under
//
//	cyrus-meta-csplist.<seq>
//
// The sequence number is part of the object name, so the regular metadata
// listing reveals newer lists for free (no extra round trips when nothing
// changed); last writer wins by the highest sequence. The content
// enumerates removed providers; clients apply it by marking those
// providers ineligible for uploads, which also makes their shares
// candidates for lazy migration.

// cspListStem is the object-name stem of the CSP status list. It lives
// under MetaPrefix so it shows up in the metadata listing, but carries no
// ".s<idx>" suffix, so the metadata-share parser ignores it.
const cspListStem = metadata.MetaPrefix + "csplist."

func cspListName(seq int64) string { return fmt.Sprintf("%s%d", cspListStem, seq) }

// parseCSPListName extracts the sequence from a list object name.
func parseCSPListName(obj string) (int64, bool) {
	if !strings.HasPrefix(obj, cspListStem) {
		return 0, false
	}
	if !canonicalDecimal(obj[len(cspListStem):]) {
		return 0, false
	}
	seq, err := strconv.ParseInt(obj[len(cspListStem):], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// encodeCSPList renders the removed-provider set deterministically.
func encodeCSPList(removed map[string]bool) []byte {
	names := make([]string, 0, len(removed))
	for n, r := range removed {
		if r {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("cyrus-csplist v1\n")
	for _, n := range names {
		fmt.Fprintf(&b, "removed %s\n", n)
	}
	return []byte(b.String())
}

// decodeCSPList parses a list object; unknown lines are ignored for
// forward compatibility.
func decodeCSPList(data []byte) map[string]bool {
	removed := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "removed "); ok && name != "" {
			removed[name] = true
		}
	}
	return removed
}

// publishCSPList uploads the current removal set under the next sequence
// number to every eligible provider, then garbage-collects the previous
// sequence object (best effort).
func (c *Client) publishCSPList(ctx context.Context) error {
	c.mu.Lock()
	c.cspSeq++
	seq := c.cspSeq
	removed := make(map[string]bool, len(c.removed))
	for n, r := range c.removed {
		removed[n] = r
	}
	c.mu.Unlock()

	data := encodeCSPList(removed)
	targets := c.activeCSPs()
	if len(targets) == 0 {
		return fmt.Errorf("%w: no providers to publish the CSP list", ErrNotEnoughCSP)
	}
	// Best-effort fan-out through the engine: one reachable provider is
	// enough (the listing propagates the rest), so failures never cancel
	// siblings. The previous sequence object is garbage-collected only on
	// providers that accepted the new one.
	op := c.engine.Begin(ctx)
	defer op.Finish()
	var mu sync.Mutex
	succeeded := 0
	op.Each(len(targets), func(i int) {
		target := targets[i]
		err := c.call(op, ctx, target, opMetaPut, func(actx context.Context, store csp.Store) (int64, error) {
			return int64(len(data)), store.Upload(actx, cspListName(seq), data)
		})
		if err != nil {
			return
		}
		mu.Lock()
		succeeded++
		mu.Unlock()
		if seq > 1 {
			_ = c.call(op, ctx, target, opDelete, func(actx context.Context, store csp.Store) (int64, error) {
				return 0, store.Delete(actx, cspListName(seq-1))
			})
		}
	})
	if succeeded == 0 {
		return fmt.Errorf("cyrus: CSP list (seq %d) reached no provider", seq)
	}
	return nil
}

// applyCSPList reconciles the local eligibility state with a newer remote
// list. Providers named removed become upload-ineligible; providers no
// longer named (reinstated elsewhere) become eligible again if we still
// hold their store.
func (c *Client) applyCSPList(seq int64, removed map[string]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq <= c.cspSeq {
		return
	}
	c.cspSeq = seq
	for name := range c.stores {
		shouldRemove := removed[name]
		isRemoved := c.removed[name]
		switch {
		case shouldRemove && !isRemoved:
			c.removed[name] = true
			_ = c.ring.Remove(name)
			c.ringEpoch.Add(1)
		case !shouldRemove && isRemoved:
			delete(c.removed, name)
			_ = c.ring.Add(name)
			c.ringEpoch.Add(1)
		}
	}
}

// syncCSPList is called by Sync with the names seen in the metadata
// listing: if a newer list exists, fetch it from one of the providers that
// listed it and apply. It shares the caller's operation, so holders that
// already failed during the listing are skipped, not re-probed.
func (c *Client) syncCSPList(op *transfer.Op, ctx context.Context, listings map[string][]string) {
	var bestSeq int64 = -1
	var holders []string
	for obj, csps := range listings {
		if seq, ok := parseCSPListName(obj); ok && seq > bestSeq {
			bestSeq = seq
			holders = csps
		}
	}
	c.mu.Lock()
	cur := c.cspSeq
	c.mu.Unlock()
	if bestSeq <= cur {
		return
	}
	for _, holder := range holders {
		data, err := c.download(op, ctx, holder, opMetaGet, cspListName(bestSeq))
		if err != nil {
			continue
		}
		c.applyCSPList(bestSeq, decodeCSPList(data))
		return
	}
}

// ReinstateCSP clears a provider's removed mark (e.g. after an outage the
// user decided was temporary) and publishes the change to all clients.
func (c *Client) ReinstateCSP(ctx context.Context, name string) error {
	c.mu.Lock()
	_, present := c.stores[name]
	wasRemoved := c.removed[name]
	if present && wasRemoved {
		delete(c.removed, name)
		_ = c.ring.Add(name)
		c.ringEpoch.Add(1)
	}
	c.mu.Unlock()
	if !present {
		return fmt.Errorf("cyrus: CSP %q not present", name)
	}
	if !wasRemoved {
		return nil
	}
	return c.publishCSPList(ctx)
}

// ProbeFailed contacts every provider currently counted as failed (paper
// §5.5: "CYRUS periodically checks if the failed CSP is back up") and
// clears the failure state of any that respond. It returns the providers
// that recovered.
func (c *Client) ProbeFailed(ctx context.Context) []string {
	c.mu.Lock()
	var down []string
	for name := range c.stores {
		if c.est.Down(name) {
			down = append(down, name)
		}
	}
	c.mu.Unlock()
	sort.Strings(down)

	// Probes run through the engine like any other traffic: bounded slots,
	// the standard retry policy, and results recorded through
	// recordResult — a provider that answers any attempt counts as back.
	// The probe lists the CSP-list stem, which holds at most a few objects,
	// so its answer does not grow with the records the provider stores.
	op := c.engine.Begin(ctx)
	defer op.Finish()
	var mu sync.Mutex
	var recovered []string
	op.Each(len(down), func(i int) {
		name := down[i]
		_, err := c.list(op, ctx, name, cspListStem)
		if err == nil {
			mu.Lock()
			recovered = append(recovered, name)
			mu.Unlock()
		}
	})
	sort.Strings(recovered)
	return recovered
}
