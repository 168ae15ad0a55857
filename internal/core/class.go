package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bufpool"
	"repro/internal/chunker"
	"repro/internal/metadata"
	"repro/internal/policy"
	"repro/internal/reliability"
)

// Storage classes (DESIGN.md §13). A class bundles one client-defined
// trade-off point — CSP subset, per-class (t, n)/Epsilon, chunking, tier,
// lifecycle rule — and the policy engine resolves one class per object:
// per-request override > longest-prefix rule > default. The resolved class
// is persisted in every ChunkRef the object's versions carry, so readers,
// lazy migration, GC, and dedup refcounting honor the writing class without
// consulting the (possibly changed) configuration. The implicit default
// class "" is exactly the pre-class behavior, and records written under it
// are byte-identical to pre-class records (metadata/codec.go).

// PutOptions tunes one upload beyond the Table-3 defaults.
type PutOptions struct {
	// Class overrides the policy engine's class resolution for this put.
	// Naming an unconfigured class is an error, not a silent fallback.
	Class string
}

// chunkerFor returns the chunker for a class: the class override when one
// is configured, the client chunker otherwise. Chunking only affects fresh
// writes — existing chunk boundaries are immutable content addresses.
func (c *Client) chunkerFor(class string) *chunker.Chunker {
	if ch, ok := c.chunkers[class]; ok {
		return ch
	}
	return c.chunk
}

// classPool returns the providers among active eligible for a class's chunk
// shares: the class CSP subset intersected with the active set, or all of
// active when the class does not restrict placement.
func classPool(cls policy.Class, active []string) []string {
	if len(cls.CSPs) == 0 {
		return active
	}
	var out []string
	for _, name := range active {
		if slices.Contains(cls.CSPs, name) {
			out = append(out, name)
		}
	}
	return out
}

// clusterCount counts distinct platform clusters among the given providers —
// the n cap for a provider pool.
func (c *Client) clusterCount(names []string) int {
	if c.cfg.ClusterOf == nil {
		return len(names)
	}
	seen := map[string]bool{}
	for _, name := range names {
		cl, ok := c.cfg.ClusterOf[name]
		if !ok {
			cl = "\x00" + name
		}
		seen[cl] = true
	}
	return len(seen)
}

// shareParams returns the (t, n) for new chunks of a class: the paper's
// two-step §4.2 procedure, with the failure probability the conservative
// maximum over observed per-CSP estimates. The default class "" is the class
// with no overrides: the client's T, N and Epsilon over every active provider.
// A named class sizes within its own provider pool: an explicit N may exceed
// the pool (placement spills to out-of-class providers — durability over
// affinity — so the cap is the full active cluster count), while an
// Epsilon-derived N is computed against the class pool, falling back to the
// full set only when the pool cannot even host t distinct clusters.
func (c *Client) shareParams(cls policy.Class) (int, int, error) {
	t, n, eps := cls.T, cls.N, cls.Epsilon
	if t == 0 {
		t = c.cfg.T
	}
	if cls.Name == "" {
		n = c.cfg.N
	}
	if eps == 0 {
		eps = c.cfg.Epsilon
	}
	active := c.activeCSPs()
	full := c.clusterCount(active)
	pool := classPool(cls, active)
	maxN := c.clusterCount(pool)
	if maxN < t {
		pool, maxN = active, full
	}
	if n > 0 {
		if n > full {
			return 0, 0, fmt.Errorf("%w: class %q needs %d, have %d clusters", ErrNotEnoughCSP, cls.Name, n, full)
		}
		return t, n, nil
	}
	if maxN < t {
		return 0, 0, fmt.Errorf("%w: class %q needs at least %d, have %d clusters", ErrNotEnoughCSP, cls.Name, t, maxN)
	}
	p := c.est.MaxFailureProb(pool, failureProbPrior)
	n, err := reliability.MinShares(t, p, eps, maxN)
	if err != nil {
		if errors.Is(err, reliability.ErrUnreachable) {
			// Not enough clouds to hit the bound: store as wide as we can.
			return t, maxN, nil
		}
		return 0, 0, err
	}
	return t, n, nil
}

// placementOrderFor is placementOrder biased by the chunk's class: in-class
// providers keep their ring order and come first, everyone else follows.
// Spilling past the subset is deliberate — a class whose providers are
// degraded still stores all n shares rather than under-replicating — and
// mirrors the read side (selector.Restricted), where the class subset is a
// preference that never costs feasibility. An unknown class (a record from
// a richer configuration) places unrestricted.
func (c *Client) placementOrderFor(chunkID, class string) ([]string, error) {
	prefs, err := c.placementOrder(chunkID)
	if err != nil {
		return nil, err
	}
	if class == "" {
		return prefs, nil
	}
	cls, ok := c.pol.Class(class)
	if !ok || len(cls.CSPs) == 0 {
		return prefs, nil
	}
	in := make(map[string]bool, len(cls.CSPs))
	for _, name := range cls.CSPs {
		in[name] = true
	}
	ordered := make([]string, 0, len(prefs))
	for _, p := range prefs {
		if in[p] {
			ordered = append(ordered, p)
		}
	}
	for _, p := range prefs {
		if !in[p] {
			ordered = append(ordered, p)
		}
	}
	return ordered, nil
}

// versionClass returns the storage class a version's content was written
// under: the class its chunks carry ("" for legacy and default-class
// records, and for empty files, which store no chunks to re-encode).
func versionClass(m *metadata.FileMeta) string {
	if len(m.Chunks) == 0 {
		return ""
	}
	return m.Chunks[0].Class
}

// ClassUsage is one storage class as the client sees it now: its
// definition, the (t, n) new chunks of the class are stored at, and its live
// objects.
type ClassUsage struct {
	Class   policy.Class // the definition; the default class "" is {Tier: hot}
	T, N    int          // for a chunk stored now; 0, 0 when no width is achievable
	Objects int
	Bytes   int64 // logical file bytes (pre-encoding)
}

// ClassStats reports every configured class and the default class "": the
// definition, its current (t, n), and the object and byte counts over the
// live heads of the local replica. It refreshes the cyrus_class_objects /
// cyrus_class_bytes gauges, writing every class even when empty, so a
// drained class reads 0 instead of holding its last value.
func (c *Client) ClassStats() map[string]ClassUsage {
	out := map[string]ClassUsage{}
	for _, cls := range append([]policy.Class{{Tier: policy.TierHot}}, c.pol.Classes()...) {
		u := ClassUsage{Class: cls}
		if t, n, err := c.shareParams(cls); err == nil {
			u.T, u.N = t, n
		}
		out[cls.Name] = u
	}
	for _, name := range c.tree.Names() {
		head, _, err := c.tree.Head(name)
		if err != nil || head.File.Deleted {
			continue
		}
		u := out[versionClass(head.FileMeta)]
		u.Objects++
		u.Bytes += head.File.Size
		out[versionClass(head.FileMeta)] = u
	}
	for cls, u := range out {
		c.obs.ClassUsage(cls, u.Objects, u.Bytes)
	}
	return out
}

// ReencodeClass re-encodes a file's current version into the target class —
// the lifecycle migrator's demotion primitive, also usable directly
// (cyrusctl) to promote or repack an object. It publishes a NEW version
// (PrevID = current head, same content ID) whose chunks carry the target
// class and its (t, n), re-scattering every chunk not already stored under
// that class's encoding. Per the migrate.go doctrine the source encoding's
// shares are NEVER deleted — old versions keep resolving, and readers
// mid-transition see either the old or the new complete version, never a
// torn mix (version atomicity: metadata uploads only after every share is
// stored). Returns false when the head is already in the target class.
//
// The operation is crash-safe by construction: a crash before the metadata
// quorum leaves the head untouched (scattered shares are idempotent
// re-uploads on retry), and a crash after it is a completed transition.
func (c *Client) ReencodeClass(ctx context.Context, name, targetClass string) (changed bool, err error) {
	ctx, sp := c.obs.StartOp(ctx, "reencode")
	defer func() { sp.End(err) }()
	if _, ok := c.pol.Class(targetClass); !ok {
		return false, fmt.Errorf("cyrus: unknown storage class %q", targetClass)
	}
	head, _, err := c.resolve(ctx, name, "", syncAlways)
	if err != nil {
		return false, err
	}
	if head.File.Deleted {
		return false, fmt.Errorf("%w: %q", ErrFileDeleted, name)
	}
	if len(head.Chunks) == 0 || versionClass(head.FileMeta) == targetClass {
		return false, nil
	}
	cls, _ := c.pol.Class(targetClass)
	t, n, err := c.shareParams(cls)
	if err != nil {
		return false, err
	}

	op := c.engine.Begin(ctx)
	defer op.Finish()
	states, pick, err := c.planGather(head.FileMeta, head.Chunks)
	if err != nil {
		return false, err
	}

	newMeta := &metadata.FileMeta{
		File: metadata.FileMap{
			ID:       head.File.ID,
			PrevID:   head.ID,
			ClientID: c.cfg.ClientID,
			Name:     name,
			Size:     head.File.Size,
			Modified: c.rt.Now(),
		},
		// Class and (t, n) are not part of either file ID form, so the ID
		// carries over unchanged in its own form.
		IDForm: head.IDForm,
	}
	seen := make(map[string]bool)
	for _, ref := range head.Chunks {
		newRef := ref
		newRef.T, newRef.N, newRef.Class = t, n, targetClass
		newMeta.Chunks = append(newMeta.Chunks, newRef)
		if seen[ref.ID] {
			continue
		}
		seen[ref.ID] = true
		// A chunk already encoded under the target class (shared content,
		// or a partially completed earlier attempt that crashed before its
		// metadata landed) is referenced, not re-scattered — this is what
		// makes retrying an interrupted demotion cheap.
		if info, ok := c.table.LookupEnc(ref.ID, targetClass); ok && info.T == t && info.N == n {
			newMeta.Chunks[len(newMeta.Chunks)-1].T = info.T
			newMeta.Chunks[len(newMeta.Chunks)-1].N = info.N
			newMeta.Shares = append(newMeta.Shares, info.Shares...)
			continue
		}
		st := states[ref.EncodingKey()]
		data, buf, gerr := c.gatherChunk(op, st.ref, st.shares, pick[ref.EncodingKey()])
		if gerr != nil {
			return false, gerr
		}
		locs, serr := c.scatterChunk(op, newRef, data)
		bufpool.Put(buf) // the scatter has joined: nothing reads the plaintext any more
		if serr != nil {
			return false, serr
		}
		newMeta.Shares = append(newMeta.Shares, locs...)
	}
	if err := op.Err(); err != nil {
		return false, err
	}
	if err := c.publish(op, newMeta); err != nil {
		return false, err
	}
	return true, nil
}

// metaTargetsForClass applies a class's dedicated metadata placement: when
// the resolved class pins MetaCSPs and enough of them are active to host a
// MetaT quorum, records go exactly there; otherwise the client's normal
// placement stands (never under-replicate metadata for a class's sake).
// Class resolution here uses only the object name (rules + default, no
// per-request override), so every client — and the background re-placement
// repair — derives the same targets from the record alone.
func (c *Client) metaTargetsForClass(fileName string, fallback []string) []string {
	if c.pol == nil {
		return fallback
	}
	cls, err := c.pol.Resolve(fileName, "")
	if err != nil || len(cls.MetaCSPs) == 0 {
		return fallback
	}
	activeSet := make(map[string]bool)
	for _, name := range c.activeCSPs() {
		activeSet[name] = true
	}
	var picked []string
	for _, name := range cls.MetaCSPs {
		if activeSet[name] {
			picked = append(picked, name)
		}
	}
	if len(picked) < c.cfg.MetaT {
		return fallback
	}
	sort.Strings(picked)
	return picked
}
