package core

import (
	"context"
	"crypto/sha1"
	"encoding/hex"
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
// always find them — footnote 3). Each share is one object named
//
//	cyrus-meta-<tag>-<versionID>.s<index>
//
// where <tag> is a 16-hex-digit keyed hash of the file name (metaTag): every
// key holder derives the same tag, so the records of one name are found by
// listing the prefix cyrus-meta-<tag>- — O(versions of that name) entries —
// instead of the whole namespace. A provider can group the records of one
// opaque name by it; it learns neither the name nor any content. Records
// written before the tag existed are named cyrus-meta-<versionID>.s<index>;
// they match only the whole-prefix listing of a full Sync.
//
// The erasure coder's evaluation points are prefix-stable in n, so shares
// decode with any n ≥ max index: readers need not know how many CSPs
// existed at write time.

// metaTagLen is the length of the name tag in a metadata share name.
const metaTagLen = 16

// metaTag is the keyed hash of a file name that groups the name's records
// (the keyHash idiom of shareName, with its own domain label).
func (c *Client) metaTag(fileName string) string {
	h := sha1.New()
	fmt.Fprintf(h, "%s|meta-name|%s", c.keyHash, fileName)
	return hex.EncodeToString(h.Sum(nil))[:metaTagLen]
}

// metaRecordKey returns the record key new shares of a version are written
// under. A record key is the part of a record's share names between
// MetaPrefix and ".s<index>": "<tag>-<versionID>", or the bare version ID of
// a legacy record. Listings are keyed by it, so a record is read, healed and
// re-placed under the names it was found under.
func (c *Client) metaRecordKey(fileName, versionID string) string {
	return c.metaTag(fileName) + "-" + versionID
}

// recordVersion returns the version ID of a record key.
func recordVersion(rec string) string {
	return rec[strings.LastIndexByte(rec, '-')+1:]
}

// metaShareName builds the object name of one metadata share.
func metaShareName(rec string, index int) string {
	return fmt.Sprintf("%s%s.s%d", metadata.MetaPrefix, rec, index)
}

// parseMetaShareName splits an object name into record key and share index.
func parseMetaShareName(obj string) (rec string, index int, ok bool) {
	if !strings.HasPrefix(obj, metadata.MetaPrefix) {
		return "", 0, false
	}
	rest := obj[len(metadata.MetaPrefix):]
	dot := strings.LastIndex(rest, ".s")
	if dot <= 0 {
		return "", 0, false
	}
	idx, err := strconv.Atoi(rest[dot+2:])
	if err != nil || idx < 0 {
		return "", 0, false
	}
	rec = rest[:dot]
	if tag, vid, tagged := strings.Cut(rec, "-"); tagged && (len(tag) != metaTagLen || vid == "" || strings.Contains(vid, "-")) {
		return "", 0, false
	}
	return rec, idx, true
}

// ParseMetaShareObjectName is the inverse of MetaShareObjectName, exposed
// for tools that audit raw provider state (the chaos harness classifies
// every stored object; metadata share names are the only parseable ones).
// tag is empty for a legacy, untagged name.
func ParseMetaShareObjectName(obj string) (tag, versionID string, index int, ok bool) {
	rec, index, ok := parseMetaShareName(obj)
	if !ok {
		return "", "", 0, false
	}
	if tag, versionID, tagged := strings.Cut(rec, "-"); tagged {
		return tag, versionID, index, true
	}
	return "", rec, index, true
}

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
	active := c.CSPs()
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
func (c *Client) uploadMeta(op *transfer.Op, m *metadata.FileMeta) error {
	targets := c.metaTargetsFor(m.File.Name)
	b, shares, err := c.codeMeta(m, c.metaRecordKey(m.File.Name, m.VersionID()), targets)
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
	b := c.metaBlob(m.File.Name, rec, min(c.cfg.MetaT, len(targets)), len(targets))
	shares, err := c.encode(b, data)
	return b, shares, err
}

// listMetaShares lists prefix — the whole metadata prefix, or one name's
// cyrus-meta-<tag>- — on every reachable provider and returns
// record key -> share index -> providers holding that share, plus
// the non-share objects under the prefix (the CSP status list) as
// object name -> providers listing it. complete reports whether every
// active provider answered the listing: metadata lands with a quorum, not
// on all providers, so only a listing that covered the full active set is
// guaranteed to surface every recoverable record.
func (c *Client) listMetaShares(op *transfer.Op, ctx context.Context, prefix string) (_ map[string]map[int][]string, _ map[string][]string, complete bool, err error) {
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

	out := make(map[string]map[int][]string)
	extras := make(map[string][]string)
	listed := make(map[string]bool)
	for i, name := range names {
		if !answered[i] {
			continue
		}
		listed[name] = true
		for _, info := range results[i] {
			rec, idx, ok := parseMetaShareName(info.Name)
			if !ok {
				extras[info.Name] = append(extras[info.Name], name)
				continue
			}
			if out[rec] == nil {
				out[rec] = make(map[int][]string)
			}
			out[rec][idx] = append(out[rec][idx], name)
		}
	}
	if len(listed) == 0 {
		return nil, nil, false, fmt.Errorf("%w: no provider reachable for metadata listing", csp.ErrUnavailable)
	}
	complete = !slices.ContainsFunc(c.CSPs(), func(name string) bool { return !listed[name] })
	return out, extras, complete, nil
}

// fetchMetaBatch resolves many records in O(providers) round trips instead
// of O(records): it inverts the listing's (version, index) → providers map
// into one want-list per provider, fetches each list through a single
// csp.DownloadBatch attempt on the shared operation (bounded fan-out,
// shared failed-provider set), and decodes every record that gathered a
// MetaT quorum. Records the batch pass cannot decode — their providers
// failed, a share came back corrupt, the quorum fell short — fall back to
// the shared per-blob reader (gatherBlob). Returns the decoded records and
// the errors of the ones that stayed unreadable, both by record key.
func (c *Client) fetchMetaBatch(op *transfer.Op, ctx context.Context, recs []string, locs map[string]map[int][]string) (map[string]*metadata.FileMeta, map[string]error) {
	// Assignment pass: each record's read plan names one readable holder
	// for each of its MetaT lowest indices, spreading load by want-list
	// length; inverted, that is one want-list per provider.
	plans := make([]metaPlan, len(recs))
	wants := make(map[string][]string) // provider -> object names
	for i, rec := range recs {
		plans[i] = c.metaReadPlan(rec, locs[rec], wants)
	}

	providers := make([]string, 0, len(wants))
	for p := range wants {
		providers = append(providers, p)
	}
	sort.Strings(providers)

	// Fetch pass: one batched attempt per provider, all concurrent under
	// the operation's in-flight caps.
	var mu sync.Mutex
	shares := make(map[string][]erasure.Share, len(recs))
	op.Each(len(providers), func(i int) {
		provider := providers[i]
		names := wants[provider]
		sort.Strings(names)
		var got map[string][]byte
		err := c.call(op, ctx, provider, opMetaGet, &Event{Type: EvMetaGet}, func(actx context.Context, store csp.Store) (int64, error) {
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
		for _, name := range names {
			if data, ok := got[name]; ok {
				rec, idx, _ := parseMetaShareName(name)
				shares[rec] = append(shares[rec], erasure.Share{Index: idx, Data: data})
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
		b := c.metaBlob("", rec, c.cfg.MetaT, p.n)
		if ss := shares[rec]; len(ss) >= b.t {
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

// metaReadPlan plans one record's read and adds its primary shares to the
// per-provider want-lists. Of an index's readable holders the one with the
// shortest want-list serves it, so no provider serves every record alone.
func (c *Client) metaReadPlan(rec string, byIdx map[int][]string, wants map[string][]string) (p metaPlan) {
	idxs := make([]int, 0, len(byIdx))
	for idx := range byIdx {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	var alternates []metadata.ShareLoc
	for _, idx := range idxs {
		best := ""
		for _, provider := range byIdx[idx] {
			if c.readable(provider) && (best == "" || len(wants[provider]) < len(wants[best])) {
				best = provider
			}
		}
		for _, provider := range byIdx[idx] {
			l := metadata.ShareLoc{Index: idx, CSP: provider}
			switch {
			case provider != best:
				if c.readable(provider) {
					alternates = append(alternates, l)
				}
			case len(p.primary) < c.cfg.MetaT:
				p.primary = append(p.primary, l)
				wants[provider] = append(wants[provider], metaShareName(rec, idx))
			default:
				p.fallback = append(p.fallback, l)
			}
		}
		p.n = idx + 1
	}
	p.fallback = append(p.fallback, alternates...)
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
func (c *Client) repairMetaPlacement(op *transfer.Op, ctx context.Context, locs map[string]map[int][]string, fullScan bool) (healthy bool) {
	healthy = true
	width := c.cfg.MetaShards
	if active := len(c.CSPs()); width > active {
		width = active
	}
	repaired := 0
	for rec, byIdx := range locs {
		if !fullScan && len(byIdx) >= width {
			continue
		}
		m, err := c.tree.Get(recordVersion(rec))
		if err != nil {
			continue // not ours to re-place (unreadable or foreign record)
		}
		targets := c.metaTargetsFor(m.File.Name)
		var missing []int
		for i, target := range targets {
			if !slices.Contains(byIdx[i], target) {
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
		c.logf("re-placed sharded metadata", "records", repaired)
	}
	return healthy
}

// MetaShardCounts returns, per provider, how many known file names the
// current ring routes metadata to — the shard-skew view `cyrusctl stats`
// renders. It also refreshes the cyrus_metashard_records gauge.
func (c *Client) MetaShardCounts() map[string]int {
	out := make(map[string]int)
	for _, name := range c.tree.Names() {
		for _, target := range c.metaTargetsFor(name) {
			out[target]++
		}
	}
	for cspName, n := range out {
		c.obs.MetaShardRecords(cspName, n)
	}
	return out
}

// absorb inserts a fetched record into the local replica, updating the
// chunk table exactly once per new record.
func (c *Client) absorb(m *metadata.FileMeta) error {
	added, err := c.tree.Insert(m)
	if err != nil {
		return err
	}
	if !added {
		return nil
	}
	for _, chunk := range m.Chunks {
		// Record the referencing version, so the chunk table's Referencers
		// sets stay the ground truth the dedup GC reconciles provider-side
		// reference tokens against.
		c.table.AddVersionRef(chunk, m.SharesOf(chunk.ID), m.VersionID())
	}
	// Any new record supersedes what the name's fresh mark vouched for.
	c.fresh.clear(m.File.Name)
	c.events.emit(Event{Type: EvMetaAbsorbed, File: m.File.Name})
	return nil
}

// errIsNotFound reports a missing-object error (vs provider failure).
func errIsNotFound(err error) bool { return errors.Is(err, csp.ErrNotFound) }
