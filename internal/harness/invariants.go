package harness

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/erasure"
	"repro/internal/metadata"
)

// checkpoint quiesces the simulated world and audits every system-wide
// invariant by direct inspection of provider durable state and the
// clients' version trees. It is called at least once, at the end of the
// run; mid-run Checkpoint schedule steps call it too.
func (h *Harness) checkpoint(ctx context.Context) {
	h.joinLifecycle()
	h.quiesce(ctx)
	h.checkConvergence()
	h.checkCacheCoherence()

	st := h.buildWorldState()
	h.absorbDemotions(st)
	h.report.Versions = len(st.records)
	h.report.Chunks = len(st.chunkRefs)
	h.classifyObjects(st)
	h.checkPlacementAndPrivacy(st)
	h.checkStructuralDurability(st)
	h.checkMetaReplication(st)
	h.checkMetaTags(st)
	h.checkBehavioralDurability(ctx)
	h.report.Checkpoints++
}

// absorbDemotions folds lifecycle-published versions into the durability
// oracle. A demotion republishes acknowledged content under a new version
// ID the workload never acked; any non-deleted record that holds the bytes
// of an acknowledged write (metadata.FileMeta.Holds) is that write's demoted
// (or re-encoded) form and must satisfy the same read-back guarantee —
// the behavioral durability sweep then re-reads it through its own class's
// encoding. Records that match nothing are left alone: an unacked version
// a Get serves is still flagged by the read oracle.
func (h *Harness) absorbDemotions(st *worldState) {
	if len(h.opts.Classes) == 0 {
		return
	}
	acked := h.acked // the writes acknowledged before this pass
	for _, m := range st.records {
		vid := m.VersionID()
		if _, known := h.ackedByVID[vid]; known || m.File.Deleted {
			continue
		}
		u := st.owner[vid]
		i := slices.IndexFunc(acked, func(aw AckedWrite) bool {
			return aw.User == u && int64(len(aw.Data)) == m.File.Size && m.Holds(aw.Data)
		})
		if i < 0 {
			continue
		}
		data := acked[i].Data
		h.ackedByVID[vid] = data
		h.acked = append(h.acked, AckedWrite{File: m.File.Name, VersionID: vid, Client: "lifecycle", User: u, Data: data})
	}
}

// quiesce restores every provider and link, lets the clients probe failed
// providers back in, and syncs everyone so the trees can converge.
func (h *Harness) quiesce(ctx context.Context) {
	for _, name := range h.names {
		b := h.backends[name]
		b.SetAvailable(true)
		b.FailNext(0)
	}
	h.scaleLinks("", 1)
	for _, c := range h.clients {
		c.ProbeFailed(ctx)
	}
	// Two rounds: round one may publish resolution markers or migrated
	// state that round two then distributes to every replica.
	for round := 0; round < 2; round++ {
		for _, c := range h.clients {
			_, _ = c.Sync(ctx)
		}
	}
}

// checkConvergence verifies every client agrees with its user's first
// client on the version set, on every file's head, and on the detected
// conflicts (users never see each other's records).
func (h *Harness) checkConvergence() {
	for i := h.opts.Users; i < len(h.clients); i++ {
		ref, c := h.clients[i%h.opts.Users], h.clients[i]
		refClient, client := h.ids[i%h.opts.Users], h.ids[i]
		refIDs, ids := ref.Tree().VersionIDs(), c.Tree().VersionIDs()
		refConf, conf := fmt.Sprint(ref.Tree().Conflicts()), fmt.Sprint(c.Tree().Conflicts())
		if !equalStrings(refIDs, ids) {
			h.violate("convergence", "%s and %s disagree on the version set (%d vs %d records)",
				refClient, client, len(refIDs), len(ids))
		} else if conf != refConf {
			h.violate("convergence", "%s and %s disagree on conflicts: %s vs %s", refClient, client, refConf, conf)
		}
		for _, name := range ref.Tree().Names() {
			h0, conflicted0, err0 := ref.Tree().Head(name)
			hc, conflictedC, errC := c.Tree().Head(name)
			if (err0 == nil) != (errC == nil) || conflicted0 != conflictedC {
				h.violate("convergence", "%s and %s disagree on head state of %s", refClient, client, name)
				continue
			}
			if err0 == nil && h0.VersionID() != hc.VersionID() {
				h.violate("convergence", "%s and %s disagree on head of %s: %s vs %s",
					refClient, client, name, short(h0.VersionID()), short(hc.VersionID()))
			}
		}
	}
}

// checkCacheCoherence verifies no client would serve a superseded version
// from its metadata cache. After quiesce every client has absorbed every
// record (absorbing invalidates the name's cached entries), so whatever
// survives in a cache must be exactly the tree's live head — a stale or
// deleted cached head means an invalidation was missed and a read would
// have served a superseded version.
func (h *Harness) checkCacheCoherence() {
	for i, c := range h.clients {
		id := h.ids[i]
		for _, name := range c.Tree().Names() {
			vid, ok := c.CachedHeadVersion(name)
			if !ok {
				continue
			}
			head, _, err := c.Tree().Head(name)
			if err != nil {
				h.violate("cache", "%s caches head %s of %s but the tree has no head", id, short(vid), name)
				continue
			}
			if head.File.Deleted {
				h.violate("cache", "%s caches head %s of deleted file %s", id, short(vid), name)
				continue
			}
			if head.VersionID() != vid {
				h.violate("cache", "%s caches stale head %s of %s (tree head %s)",
					id, short(vid), name, short(head.VersionID()))
			}
		}
	}
}

// worldState is everything the offline checks need: which encodings exist,
// their parameters and contents, the expected bytes of every share, and
// which provider physically holds which share index. Everything is keyed
// by *encoding key* — metadata.EncodingKey(chunkID, class) — not by chunk
// ID: a lifecycle demotion legitimately leaves two coexisting encodings of
// one chunk (the hot original, still referenced by old versions, and the
// cold re-encode), each with its own (t, n). Without dedup each user names
// and codes its shares under its own key, so the key is also scoped by
// user (encKey).
type worldState struct {
	records      []*metadata.FileMeta               // every user's converged records
	owner        map[string]int                     // version ID -> user whose record it is
	tokenUser    map[string]int                     // reference token -> its user
	refUsers     map[string]map[int]bool            // encoding key -> users whose records reference it
	tried        map[string]map[int]bool            // chunk ID -> users who tried to upload it
	chunkRefs    map[string]metadata.ChunkRef       // encoding key -> referenced encoding
	chunkShares  map[string][]erasure.Share         // encoding key -> expected shares (content known)
	shareNames   map[string][]shareKey              // object name -> every encoding it could serve
	metaShares   map[string][]metaObject            // version ID -> its share objects, either name form
	presence     map[string]map[string]map[int]bool // encoding -> csp -> indices physically present
	intact       map[string]map[int]bool            // encoding -> indices with >= 1 byte-exact copy
	ghostIndices map[string]map[int]bool            // unknown vid -> meta share indices present
}

// metaObject is one metadata share object as a provider holds it, parsed
// from its raw name (tag is empty for a legacy, untagged name).
type metaObject struct {
	csp, name, tag string
	index          int
}

type shareKey struct {
	enc        string // encoding key
	index      int
	referenced bool
}

// encodingCandidate is one (class, t, n) tuple the run's class config can
// produce; used to account residue of failed or in-flight re-encodes.
type encodingCandidate struct {
	class string
	t, n  int
}

// classEncodings lists every encoding the configured classes could write,
// default class first. Harness class scenarios declare explicit per-class
// (t, n) so the candidates are exact.
func (h *Harness) classEncodings() []encodingCandidate {
	out := []encodingCandidate{{class: "", t: h.opts.T, n: h.opts.N}}
	for _, cls := range h.opts.Classes {
		t, n := cls.T, cls.N
		if t == 0 {
			t = h.opts.T
		}
		if n == 0 {
			n = h.opts.N
		}
		out = append(out, encodingCandidate{class: cls.Name, t: t, n: n})
	}
	return out
}

// encKey is the world-state key of one encoding of a chunk stored by user
// u: the plain encoding key, scoped by user unless the shares are
// content-addressed (dedup) or the user is user 0.
func (h *Harness) encKey(u int, id, class string) string {
	ek := metadata.EncodingKey(id, class)
	if h.conv == nil && u > 0 {
		ek = fmt.Sprintf("u%d:%s", u, ek)
	}
	return ek
}

// addUser adds user u to the set m[key].
func addUser(m map[string]map[int]bool, key string, u int) {
	if m[key] == nil {
		m[key] = make(map[int]bool)
	}
	m[key][u] = true
}

// buildWorldState gathers every user's records (from the user's first
// client, converged by now) and recomputes the expected shares of every
// content any user tried to upload.
func (h *Harness) buildWorldState() *worldState {
	st := &worldState{
		owner:        make(map[string]int),
		tokenUser:    make(map[string]int),
		refUsers:     make(map[string]map[int]bool),
		tried:        make(map[string]map[int]bool),
		chunkRefs:    make(map[string]metadata.ChunkRef),
		chunkShares:  make(map[string][]erasure.Share),
		shareNames:   make(map[string][]shareKey),
		metaShares:   make(map[string][]metaObject),
		presence:     make(map[string]map[string]map[int]bool),
		intact:       make(map[string]map[int]bool),
		ghostIndices: make(map[string]map[int]bool),
	}
	for u := 0; u < h.opts.Users; u++ {
		st.tokenUser[h.naming[u].RefToken()] = u
		for _, m := range h.clients[u].Tree().All() {
			st.records = append(st.records, m)
			st.owner[m.VersionID()] = u
		}
	}
	for _, m := range st.records {
		u := st.owner[m.VersionID()]
		for _, ref := range m.Chunks {
			// A version's chunks are published atomically, so they all carry
			// the class the write (or re-encode) resolved — a mix means a
			// torn class transition escaped metadata atomicity.
			if ref.Class != m.Chunks[0].Class {
				h.violate("placement", "version %s mixes storage classes %q and %q (torn class transition)",
					short(m.VersionID()), m.Chunks[0].Class, ref.Class)
			}
			ek := h.encKey(u, ref.ID, ref.Class)
			if prev, ok := st.chunkRefs[ek]; ok && (prev.T != ref.T || prev.N != ref.N) {
				h.violate("placement", "chunk %s class %q referenced with conflicting parameters (%d,%d) vs (%d,%d)",
					short(ref.ID), ref.Class, prev.T, prev.N, ref.T, ref.N)
				continue
			}
			st.chunkRefs[ek] = ref
			addUser(st.refUsers, ek, u)
		}
	}

	// Recompute expected share bytes for every chunk whose content the
	// oracle knows (all of them, unless a Put raced a crash so oddly that
	// even its residue is unknowable — impossible here, since the oracle
	// records contents before the Put runs). Shares are named as the
	// uploading user's clients name them.
	candidates := h.classEncodings()
	seen := make(map[string]bool)
	addContent := func(u int, data []byte) {
		for _, chunk := range h.chunk.Split(data) {
			id := metadata.HashData(chunk.Data)
			addUser(st.tried, id, u)
			sk := h.encKey(u, id, "")
			if seen[sk] {
				continue
			}
			seen[sk] = true
			// Dedup runs disperse with the content-derived coder, so the
			// expected bytes come from it too (the names below are
			// content-addressed whenever the run is).
			coder := h.coders[u]
			if h.conv != nil {
				coder = h.conv.For(id)
			}
			// Every referenced encoding of this chunk gets its expected
			// share bytes recomputed under its own (t, n).
			for _, cand := range candidates {
				ek := h.encKey(u, id, cand.class)
				ref, referenced := st.chunkRefs[ek]
				t, n := cand.t, cand.n
				if referenced {
					t, n = ref.T, ref.N
				}
				if referenced {
					shares, err := coder.Encode(chunk.Data, t, n)
					if err != nil {
						continue
					}
					st.chunkShares[ek] = shares
				}
				// Share names are (chunk, index, t): unreferenced candidate
				// encodings are residue of failed Puts or failed/in-flight
				// re-encodes — legitimate, accounted, not durability-tracked.
				for i := 0; i < n; i++ {
					obj := h.shareName(u, id, i, t)
					st.shareNames[obj] = append(st.shareNames[obj], shareKey{enc: ek, index: i, referenced: referenced})
				}
			}
		}
	}
	for u, contents := range h.tried {
		for _, data := range contents {
			addContent(u, data)
		}
	}
	return st
}

// classifyObjects walks every object on every provider and accounts for
// it: a share of a known chunk, a metadata share of a known version,
// residue of a failed metadata upload, or the CSP status list. Anything
// else is garbage — and a metadata record durable enough to be readable
// (>= MetaT shares) that no client's tree contains is a lost update.
// Dedup runs audit every content-addressed object's tokens (checkRefcount).
func (h *Harness) classifyObjects(st *worldState) {
	for _, cspName := range h.names {
		b := h.backends[cspName]
		for _, obj := range b.ObjectNames("") {
			if h.conv != nil && core.IsCASShareObjectName(obj) {
				h.checkRefcount(st, cspName, obj)
			}
			if keys, ok := st.shareNames[obj]; ok {
				// One object name can serve several encodings (share names
				// depend on t, not class): account it toward every
				// referenced encoding it belongs to.
				for _, key := range keys {
					if !key.referenced {
						continue // residue of a failed Put or re-encode
					}
					if st.presence[key.enc] == nil {
						st.presence[key.enc] = make(map[string]map[int]bool)
					}
					if st.presence[key.enc][cspName] == nil {
						st.presence[key.enc][cspName] = make(map[int]bool)
					}
					st.presence[key.enc][cspName][key.index] = true
					data, _ := b.PeekObject(obj)
					expected := st.chunkShares[key.enc][key.index].Data
					if bytes.Equal(data, expected) {
						if st.intact[key.enc] == nil {
							st.intact[key.enc] = make(map[int]bool)
						}
						st.intact[key.enc][key.index] = true
					} else if !h.corrupted[cspName+"/"+obj] {
						h.violate("durability", "%s: share object %s has unexplained content rot", cspName, short(obj))
					}
				}
				continue
			}
			if tag, vid, idx, ok := core.ParseMetaShareObjectName(obj); ok {
				if _, known := st.owner[vid]; known {
					// verified by checkMetaReplication and checkMetaTags
					st.metaShares[vid] = append(st.metaShares[vid], metaObject{csp: cspName, name: obj, tag: tag, index: idx})
					continue
				}
				if st.ghostIndices[vid] == nil {
					st.ghostIndices[vid] = make(map[int]bool)
				}
				st.ghostIndices[vid][idx] = true
				continue
			}
			if isCSPList(obj) {
				continue
			}
			h.violate("garbage", "%s: unaccounted object %q", cspName, obj)
		}
	}
	for vid, idxs := range st.ghostIndices {
		if len(idxs) >= h.opts.MetaT {
			h.violate("garbage", "version %s is recoverable from %d metadata shares but in no client's tree (lost update)",
				short(vid), len(idxs))
		}
	}
}

// checkRefcount audits one content-addressed object's provider-side token
// set: no object survives its last token, every token is that of a user who
// referenced or tried to upload the object's content, and every user whose
// records reference the object holds a token on it.
func (h *Harness) checkRefcount(st *worldState, cspName, obj string) {
	toks := h.backends[cspName].RefTokens(obj)
	if len(toks) == 0 {
		h.violate("refcount", "%s: %s has zero reference tokens but still exists", cspName, obj)
		return
	}
	keys := st.shareNames[obj]
	var id string
	if len(keys) > 0 {
		id, _ = metadata.SplitEncodingKey(keys[0].enc)
	}
	for _, tok := range toks {
		if u, ok := st.tokenUser[tok]; !ok || !st.tried[id][u] {
			h.violate("refcount", "%s: %s carries token %s of no user who referenced or uploaded it", cspName, obj, tok)
		}
	}
	for u := 0; u < h.opts.Users; u++ {
		referenced := slices.ContainsFunc(keys, func(k shareKey) bool { return st.refUsers[k.enc][u] })
		if referenced && !slices.Contains(toks, h.naming[u].RefToken()) {
			h.violate("refcount", "%s: %s lacks the token of user %d, whose records reference it", cspName, obj, u)
		}
	}
}

// checkPlacementAndPrivacy enforces the dispersal constraints on physical
// state: no provider holds two shares of a chunk, no platform (cluster)
// holds two, and no platform accumulates t or more distinct shares — the
// reconstruction threshold (paper §4.3: at most one share per platform).
func (h *Harness) checkPlacementAndPrivacy(st *worldState) {
	for ek, perCSP := range st.presence {
		ref := st.chunkRefs[ek]
		perPlatform := make(map[string]map[int]bool)
		for cspName, idxs := range perCSP {
			if len(idxs) > 1 {
				h.violate("placement", "provider %s holds %d distinct shares of chunk %s", cspName, len(idxs), encLabel(ek))
			}
			platform := cspName
			if h.clusters != nil {
				platform = h.clusters[cspName]
			}
			if perPlatform[platform] == nil {
				perPlatform[platform] = make(map[int]bool)
			}
			for idx := range idxs {
				perPlatform[platform][idx] = true
			}
		}
		for platform, idxs := range perPlatform {
			if h.clusters != nil && len(idxs) > 1 {
				h.violate("placement", "platform %s holds %d distinct shares of chunk %s", platform, len(idxs), encLabel(ek))
			}
			if len(idxs) >= ref.T {
				h.violate("privacy", "platform %s holds %d shares of chunk %s — enough to reconstruct it (t=%d)",
					platform, len(idxs), encLabel(ek), ref.T)
			}
		}
	}
}

// encLabel renders an encoding key for violation messages.
func encLabel(ek string) string {
	id, class := metadata.SplitEncodingKey(ek)
	if class == "" {
		return short(id)
	}
	return short(id) + "(" + class + ")"
}

// checkStructuralDurability verifies at the object level that every
// referenced encoding still has all n share objects somewhere and at
// least t of them intact — i.e. the system never silently dropped below
// its declared fault tolerance, and neither deletion nor a lifecycle
// demotion ever removed shares that other versions still reference (a
// demoted object's hot encoding must survive as long as any version
// references it).
func (h *Harness) checkStructuralDurability(st *worldState) {
	for ek, ref := range st.chunkRefs {
		distinct := make(map[int]bool)
		for _, idxs := range st.presence[ek] {
			for idx := range idxs {
				distinct[idx] = true
			}
		}
		if len(distinct) < ref.N {
			h.violate("durability", "chunk %s: only %d of %d share objects exist", encLabel(ek), len(distinct), ref.N)
		}
		if _, known := st.chunkShares[ek]; known && len(st.intact[ek]) < ref.T {
			h.violate("durability", "chunk %s: only %d intact shares, need %d to decode", encLabel(ek), len(st.intact[ek]), ref.T)
		}
	}
}

// checkMetaReplication recomputes the expected bytes of every metadata
// share with its record owner's coder (the codec is deterministic and the
// coder's evaluation points are prefix-stable in n) and verifies each
// version stays recoverable from at least MetaT intact shares spread over
// the providers.
func (h *Harness) checkMetaReplication(st *worldState) {
	n := len(h.names)
	metaT := h.opts.MetaT
	if metaT > n {
		metaT = n
	}
	for _, m := range st.records {
		vid := m.VersionID()
		blob, err := metadata.Encode(m)
		if err != nil {
			h.violate("meta-replication", "version %s does not re-encode: %v", short(vid), err)
			continue
		}
		expected, err := h.coders[st.owner[vid]].Encode(blob, metaT, n)
		if err != nil {
			h.violate("meta-replication", "version %s share recomputation failed: %v", short(vid), err)
			continue
		}
		intact := make(map[int]bool)
		present := make(map[int]bool)
		for _, o := range st.metaShares[vid] {
			if o.index >= n {
				continue
			}
			present[o.index] = true
			if data, ok := h.backends[o.csp].PeekObject(o.name); ok && bytes.Equal(data, expected[o.index].Data) {
				intact[o.index] = true
			}
		}
		if len(intact) < metaT {
			h.violate("meta-replication", "version %s: %d intact metadata shares (%d present), need %d",
				short(vid), len(intact), len(present), metaT)
		}
	}
}

// checkMetaTags audits the name tag that scopes a single-name sync, on raw
// provider state: every listed metadata share of a record carries the tag
// its user's naming scheme derives for the record's file name, and distinct
// names of one user carry distinct tags. A record filed under another tag is
// invisible to the scoped listing of its name — a lost update for every
// per-op sync.
func (h *Harness) checkMetaTags(st *worldState) {
	nameOf := make(map[string]string) // user/tag -> file name
	for _, m := range st.records {
		vid, name, u := m.VersionID(), m.File.Name, st.owner[m.VersionID()]
		want, _, _, _ := core.ParseMetaShareObjectName(h.naming[u].MetaShare(name, vid, 0))
		key := fmt.Sprint(u, "/", want)
		if other, taken := nameOf[key]; taken && other != name {
			h.violate("meta-tag", "files %s and %s share the name tag %s", other, name, want)
		}
		nameOf[key] = name
		for _, o := range st.metaShares[vid] {
			if o.tag != "" && o.tag != want {
				h.violate("meta-tag", "%s: version %s of %s stored under tag %s, its name's tag is %s",
					o.csp, short(vid), name, o.tag, want)
			}
		}
	}
}

// checkBehavioralDurability is the end-to-end read check: for every
// provider subset of the configured kill size, fail the subset, build a
// fresh client of each user from nothing but the user's key and the
// accounts (the paper's recover()), and re-read every write that user
// acknowledged byte-for-byte.
func (h *Harness) checkBehavioralDurability(ctx context.Context) {
	kills := h.opts.N - h.opts.T
	if h.opts.CheckKills > 0 {
		kills = h.opts.CheckKills
	} else if h.opts.CheckKills < 0 {
		kills = 0
	}
	// Deduplicate the oracle: re-putting identical content acks the same
	// version node again.
	seen := make(map[string]bool)
	var writes []AckedWrite
	for _, aw := range h.acked {
		if !seen[aw.VersionID] {
			seen[aw.VersionID] = true
			writes = append(writes, aw)
		}
	}
	for si, subset := range combinations(h.names, kills) {
		for _, name := range subset {
			h.backends[name].SetAvailable(false)
		}
		for u := 0; u < h.opts.Users; u++ {
			id := fmt.Sprintf("inspector-%d-%d", h.report.Checkpoints, si)
			if u > 0 {
				id += fmt.Sprintf("-u%d", u)
			}
			insp, err := h.buildClient(id, u, "", nil)
			if err != nil {
				h.violate("durability", "building recovery client failed: %v", err)
				continue
			}
			// Recover errors are tolerated here only because residue of
			// failed metadata uploads, and other users' records, are
			// unreadable by design; any acked version the sync failed to
			// absorb is caught by the reads below.
			_ = insp.Recover(ctx)
			for _, aw := range writes {
				if aw.User != u {
					continue
				}
				var got bytes.Buffer
				if _, err := insp.GetVersionTo(ctx, aw.File, aw.VersionID, &got); err != nil {
					h.violate("durability", "with %v failed: %s version %s unreadable: %v",
						subset, aw.File, short(aw.VersionID), err)
					continue
				}
				if !bytes.Equal(got.Bytes(), aw.Data) {
					h.violate("durability", "with %v failed: %s version %s read back wrong bytes",
						subset, aw.File, short(aw.VersionID))
				}
			}
		}
		for _, name := range subset {
			h.backends[name].SetAvailable(true)
		}
	}
}

// combinations returns every size-k subset of names, in deterministic
// order. k == 0 yields the single empty subset (the all-up read check).
func combinations(names []string, k int) [][]string {
	if k <= 0 {
		return [][]string{nil}
	}
	if k > len(names) {
		k = len(names)
	}
	var out [][]string
	subset := make([]string, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(subset) == k {
			out = append(out, append([]string(nil), subset...))
			return
		}
		for i := start; i <= len(names)-(k-len(subset)); i++ {
			subset = append(subset, names[i])
			rec(i + 1)
			subset = subset[:len(subset)-1]
		}
	}
	rec(0)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	a2 := append([]string(nil), a...)
	b2 := append([]string(nil), b...)
	sort.Strings(a2)
	sort.Strings(b2)
	for i := range a2 {
		if a2[i] != b2[i] {
			return false
		}
	}
	return true
}
