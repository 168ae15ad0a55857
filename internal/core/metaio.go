package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/csp"
	"repro/internal/erasure"
	"repro/internal/metadata"
	"repro/internal/transfer"
)

// Metadata records are secret-shared with (MetaT, m) across all active
// CSPs (the paper stores metadata pieces at *all* CSPs so that clients can
// always find them — footnote 3). Each share is one object, named by the
// record's key (names.go): its name tag and version ID.
//
// The erasure coder's evaluation points are prefix-stable in n, so shares
// decode with any n ≥ max index: readers need not know how many CSPs
// existed at write time.

// metaKey is the hashring key for a file's metadata placement. It is
// distinct from the chunk keyspace (chunks hash content; metadata hashes
// the name with a domain prefix), so a file's records and its shares land
// independently.
func metaKey(fileName string) string { return "cyrus-meta|" + fileName }

// metaTargetsFor returns the providers that receive a file's metadata
// shares, sorted so every client derives the same share-index assignment.
// Unsharded (MetaShards == 0), that is every active provider — the paper's
// footnote-3 placement. Sharded, it is the first MetaShards distinct
// providers clockwise from the file name's ring position; if the ring
// cannot yield at least MetaT providers (churn shrank it), placement falls
// back to the full active set rather than under-replicate. A storage class
// with dedicated MetaCSPs overrides both (metaTargetsForClass, class.go).
func (c *Client) metaTargetsFor(fileName string) []string {
	return c.metaTargetsForClass(fileName, c.metaTargetsBase(fileName))
}

func (c *Client) metaTargetsBase(fileName string) []string {
	active := c.activeCSPs()
	m := c.cfg.MetaShards
	if m <= 0 || m >= len(active) {
		return active
	}
	picked, err := c.ring.SelectN(metaKey(fileName), m)
	if err != nil || len(picked) < c.cfg.MetaT {
		return active
	}
	sort.Strings(picked)
	return picked
}

// uploadMeta scatters one metadata record through the operation's
// transfer engine. It succeeds when at least MetaT shares are stored (the
// record is then recoverable); individual share failures never cancel the
// operation — quorum, not all-or-nothing, is the success rule. Providers
// already in the operation's failed set (e.g. they just rejected chunk
// shares of the same Put) are skipped, not re-probed; a skip counts as a
// failed share toward the quorum, exactly as the doomed attempt would
// have.
func (c *Client) uploadMeta(op *transfer.Op, m *metadata.FileMeta, id string) error {
	targets := c.metaTargetsFor(m.File.Name)
	b, shares, err := c.codeMeta(m, c.names.recordKey(m.File.Name, id), targets)
	if err != nil {
		return err
	}
	defer erasure.ReleaseShares(shares)

	var mu sync.Mutex
	succeeded := 0
	var firstErr error
	op.Each(len(targets), func(i int) {
		err := c.putShare(op, op.Context(), b, shares, i, targets[i], false)
		mu.Lock()
		if err == nil {
			succeeded++
		} else if firstErr == nil || errors.Is(firstErr, transfer.ErrSkipped) {
			firstErr = err
		}
		mu.Unlock()
	})
	if succeeded < b.t {
		return fmt.Errorf("cyrus: metadata for %q stored on %d of %d providers (need %d): %w",
			m.File.Name, succeeded, len(targets), b.t, firstErr)
	}
	return nil
}

// codeMeta encodes a record for the given placement, under the given record
// key: share i of the returned blob belongs on targets[i]. The caller
// releases the shares.
func (c *Client) codeMeta(m *metadata.FileMeta, rec string, targets []string) (*blob, []erasure.Share, error) {
	data, err := metadata.Encode(m)
	if err != nil {
		return nil, nil, err
	}
	if len(targets) == 0 {
		return nil, nil, fmt.Errorf("%w: no providers for metadata", ErrNotEnoughCSP)
	}
	b := c.metaBlob(rec, min(c.cfg.MetaT, len(targets)), len(targets))
	shares, err := c.encode(b, data)
	return b, shares, err
}

// metaCopy is one listed copy of a metadata share: its index, the provider
// holding it, and its object name as listed.
type metaCopy struct {
	index int
	csp   string
	name  string
}

// listMetaShares lists prefix — the whole metadata prefix, or one name's
// cyrus-meta-<tag>- — on every reachable provider and returns, per record
// key, the listed copies of its shares in provider order (a slice sized for
// one copy per answering provider, so a record costs one allocation), plus
// the non-share objects under the prefix (the CSP status list) as object
// name -> providers listing it. complete reports whether every active
// provider answered the listing: metadata lands with a quorum, not on all
// providers, so only a listing that covered the full active set is
// guaranteed to surface every recoverable record.
func (c *Client) listMetaShares(op *transfer.Op, ctx context.Context, prefix string) (_ map[string][]metaCopy, _ map[string][]string, complete bool, err error) {
	c.mu.Lock()
	var names []string
	for name := range c.stores {
		names = append(names, name)
	}
	c.mu.Unlock()
	sort.Strings(names)

	results := make([][]csp.ObjectInfo, len(names))
	answered := make([]bool, len(names))
	op.Each(len(names), func(i int) {
		if c.est.Down(names[i]) {
			return
		}
		infos, err := c.list(op, ctx, names[i], prefix)
		results[i], answered[i] = infos, err == nil
	})

	listed, longest := 0, 0
	for i := range names {
		if answered[i] {
			listed++
			longest = max(longest, len(results[i]))
		}
	}
	if listed == 0 {
		return nil, nil, false, fmt.Errorf("%w: no provider reachable for metadata listing", csp.ErrUnavailable)
	}
	out := make(map[string][]metaCopy, longest)
	extras := make(map[string][]string)
	for i, name := range names {
		if !answered[i] {
			continue
		}
		for _, info := range results[i] {
			rec, idx, ok := parseMetaShareName(info.Name)
			if !ok {
				extras[info.Name] = append(extras[info.Name], name)
				continue
			}
			copies, seen := out[rec]
			if !seen {
				copies = make([]metaCopy, 0, listed)
			}
			out[rec] = append(copies, metaCopy{idx, name, info.Name})
		}
	}
	complete = !slices.ContainsFunc(c.activeCSPs(), func(name string) bool {
		i, found := slices.BinarySearch(names, name)
		return !found || !answered[i]
	})
	return out, extras, complete, nil
}

// metaWant is one share on a provider's batch want-list: its object name,
// and the position of its record in the batch.
type metaWant struct {
	name       string
	rec, index int
}

// fetchMetaBatch resolves many records in O(providers) round trips instead
// of O(records): it turns the records' read plans into one want-list per
// provider, fetches each list through a single csp.DownloadBatch attempt on
// the shared operation (bounded fan-out, shared failed-provider set), and
// decodes every record that gathered a MetaT quorum. Records the batch pass
// cannot decode — their providers failed, a share came back corrupt, the
// quorum fell short — fall back to the shared per-blob reader (gatherBlob).
// Returns the decoded records and the errors of the ones that stayed
// unreadable, both by record key.
func (c *Client) fetchMetaBatch(op *transfer.Op, ctx context.Context, recs []string, locs map[string][]metaCopy) (map[string]*metadata.FileMeta, map[string]error) {
	// Assignment pass: each record's read plan names one readable holder
	// for each of its MetaT lowest indices, spreading load by want-list
	// length; inverted, that is one want-list per provider.
	plans := make([]metaPlan, len(recs))
	wants := make(map[string][]metaWant) // provider -> shares asked of it
	for i, rec := range recs {
		plans[i] = c.metaReadPlan(i, locs[rec], wants)
	}

	providers := make([]string, 0, len(wants))
	for p := range wants {
		providers = append(providers, p)
	}
	sort.Strings(providers)

	// Fetch pass: one batched attempt per provider, all concurrent under
	// the operation's in-flight caps. A record's shares land in its own
	// MetaT-wide window of one array: its plan asks for at most that many.
	var mu sync.Mutex
	held := make([]erasure.Share, len(recs)*c.cfg.MetaT)
	shares := make([][]erasure.Share, len(recs))
	for i := range shares {
		shares[i] = held[i*c.cfg.MetaT : i*c.cfg.MetaT : (i+1)*c.cfg.MetaT]
	}
	op.Each(len(providers), func(i int) {
		provider := providers[i]
		ws := wants[provider]
		slices.SortFunc(ws, func(a, b metaWant) int { return strings.Compare(a.name, b.name) })
		names := make([]string, len(ws))
		for j, w := range ws {
			names[j] = w.name
		}
		var got map[string][]byte
		err := c.call(op, ctx, provider, opMetaGet, func(actx context.Context, store csp.Store) (int64, error) {
			out, err := csp.DownloadBatch(actx, store, names)
			var bytes int64
			for _, d := range out {
				bytes += int64(len(d))
			}
			if err == nil {
				got = out
			}
			return bytes, err
		})
		if err != nil {
			return
		}
		c.obs.MetaBatchFetch(provider)
		mu.Lock()
		// The want-list, not the answer, says which shares this provider
		// was asked for: a key outside it would enter some record's share
		// set as a second copy of an index and fail its quorum decode.
		for _, w := range ws {
			if data, ok := got[w.name]; ok {
				shares[w.rec] = append(shares[w.rec], erasure.Share{Index: w.index, Data: data})
			}
		}
		mu.Unlock()
	})

	// Decode pass; stragglers go through the data path's verified gather,
	// which shares this operation's failed set (a provider that just failed
	// its batch is skipped, not re-probed), probes alternate holders, and
	// widens to surplus shares for error correction.
	out := make(map[string]*metadata.FileMeta, len(recs))
	errs := make(map[string]error)
	for i, rec := range recs {
		p := plans[i]
		b := c.metaBlob(rec, c.cfg.MetaT, p.n)
		if ss := shares[i]; len(ss) >= b.t {
			if _, _, _, err := c.decode(b, ss, false); err == nil {
				out[rec] = b.record
				continue
			}
		}
		if _, _, err := c.gatherBlob(op, ctx, b, p.primary, p.fallback); err != nil {
			errs[rec] = err
			continue
		}
		out[rec] = b.record
	}
	return out, errs
}

// metaPlan orders a record's listed share copies for reading: one readable
// holder of each of the MetaT lowest indices up front; as fallback, a holder
// of every further index, then the alternate holders of an index re-placed
// after ring churn (a second copy of an index adds nothing to the quorum).
// n is the share count to re-encode under (the coder's evaluation points
// are prefix-stable in n).
type metaPlan struct {
	primary, fallback []metadata.ShareLoc
	n                 int
}

// metaReadPlan plans the read of record rec (its position in the batch) from
// its listed copies, and adds its primary shares to the per-provider
// want-lists. Of an index's readable holders the one with the shortest
// want-list serves it, so no provider serves every record alone. The copies
// are put in index order in place (a stable sort keeps each index's holders
// in provider order).
func (c *Client) metaReadPlan(rec int, copies []metaCopy, wants map[string][]metaWant) (p metaPlan) {
	slices.SortStableFunc(copies, func(a, b metaCopy) int { return a.index - b.index })
	// One array holds the plan: primaries at the front, then fallbacks,
	// then alternates.
	locs := make([]metadata.ShareLoc, 0, len(copies))
	var alternates []metadata.ShareLoc
	for lo := 0; lo < len(copies); {
		idx := copies[lo].index
		hi := lo
		best := ""
		for ; hi < len(copies) && copies[hi].index == idx; hi++ {
			if provider := copies[hi].csp; c.readable(provider) && (best == "" || len(wants[provider]) < len(wants[best])) {
				best = provider
			}
		}
		for _, cp := range copies[lo:hi] {
			l := metadata.ShareLoc{Index: idx, CSP: cp.csp}
			switch {
			case cp.csp != best:
				if c.readable(cp.csp) {
					alternates = append(alternates, l)
				}
			case len(p.primary) < c.cfg.MetaT:
				locs = append(locs, l)
				p.primary = locs[:len(locs):len(locs)]
				wants[cp.csp] = append(wants[cp.csp], metaWant{cp.name, rec, idx})
			default:
				locs = append(locs, l)
			}
		}
		p.n = idx + 1
		lo = hi
	}
	p.fallback = append(locs[len(p.primary):], alternates...)
	return p
}

// repairMetaPlacement is the background re-placement path for sharded
// metadata: records whose current shard set is missing shares are
// re-scattered to it. Two conditions degrade a placement — ring churn
// moves a record's shard set, and a provider outage lets uploadMeta ack a
// record at the t-quorum with fewer than the full shard width of shares —
// and both heal here. It follows the migrate.go doctrine: the listing (not
// a probe) identifies holders, new copies are uploaded, and source copies
// are NEVER deleted, so a client with a stale ring (or a reader mid-walk)
// still resolves every record where it used to be. Share bytes are
// index-stable (prefix-stable evaluation points), so re-placing share i on
// a new provider duplicates, never forks, the share.
//
// fullScan recomputes every record's targets (required after ring churn,
// where a record can hold enough shares on the wrong providers); without
// it only records with fewer listed share indices than the shard width —
// the outage-window signature — are examined, keeping the steady-state
// sync cost independent of namespace size. The return value reports
// whether every needed re-placement succeeded; callers persist the ring
// epoch only on a clean pass so a partial repair is retried next sync.
func (c *Client) repairMetaPlacement(op *transfer.Op, ctx context.Context, locs map[string][]metaCopy, fullScan bool) (healthy bool) {
	healthy = true
	width := c.cfg.MetaShards
	if active := len(c.activeCSPs()); width > active {
		width = active
	}
	repaired := 0
	for rec, copies := range locs {
		if !fullScan && distinctIndices(copies) >= width {
			continue
		}
		m, err := c.tree.Get(recordVersion(rec))
		if err != nil {
			continue // not ours to re-place (unreadable or foreign record)
		}
		targets := c.metaTargetsFor(m.File.Name)
		var missing []int
		for i, target := range targets {
			if !slices.ContainsFunc(copies, func(cp metaCopy) bool { return cp.index == i && cp.csp == target }) {
				missing = append(missing, i)
			}
		}
		if len(missing) == 0 {
			continue
		}
		b, shares, err := c.codeMeta(m, rec, targets)
		if err != nil {
			healthy = false
			continue
		}
		for _, i := range missing {
			if c.putShare(op, ctx, b, shares, i, targets[i], false) != nil {
				healthy = false
			}
		}
		erasure.ReleaseShares(shares)
		repaired++
	}
	if repaired > 0 {
		c.obs.Note(ctx, "meta.replaced", "records="+strconv.Itoa(repaired))
	}
	return healthy
}

// MetaShardCounts returns, per provider, how many known file names the
// current ring routes metadata to — the shard-skew view `cyrusctl stats`
// renders.
func (c *Client) MetaShardCounts() map[string]int {
	out := make(map[string]int)
	for _, name := range c.tree.Names() {
		for _, target := range c.metaTargetsFor(name) {
			out[target]++
		}
	}
	return out
}

// distinctIndices counts the share indices among a record's listed copies.
func distinctIndices(copies []metaCopy) int {
	n := 0
	for i, cp := range copies {
		if !slices.ContainsFunc(copies[:i], func(o metaCopy) bool { return o.index == cp.index }) {
			n++
		}
	}
	return n
}

// absorb inserts a record into the local replica and records its share
// locations in the chunk table, once per new record. Every record the tree
// holds — fetched by a sync or published by this client — enters through
// here, so the table knows every chunk a tree version references. The
// record is valid and id is its version ID: a fetched record was decoded and
// checked against the ID it was listed under, and a published one was
// encoded and hashed by publish.
func (c *Client) absorb(m *metadata.FileMeta, id string) error {
	if !c.tree.InsertVerified(m, id) {
		return nil
	}
	for _, chunk := range m.Chunks {
		c.table.Record(chunk, m.Shares)
	}
	// Any new record supersedes what the name's fresh mark vouched for.
	c.fresh.clear(m.File.Name)
	return nil
}

// errIsNotFound reports a missing-object error (vs provider failure).
func errIsNotFound(err error) bool { return errors.Is(err, csp.ErrNotFound) }
