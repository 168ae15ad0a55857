// Package cloudsim provides CYRUS's cloud-storage-provider implementations
// for offline use: an in-memory simulated provider (SimStore) that
// reproduces the API quirks of commercial CSPs, and a filesystem-backed
// provider (DirStore) for the CLI and integration tests.
//
// A Backend holds the provider's durable state (objects, capacity,
// availability) and is shared by every client; each client wraps it in a
// SimStore bound to that client's transport (its netsim node, or nothing
// for instant transfers). This mirrors reality: one Dropbox account, many
// devices, each with its own network path.
package cloudsim

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/csp"
)

// Backend is the durable state of one simulated provider.
type Backend struct {
	name     string
	identity csp.ObjectIdentity

	mu        sync.Mutex
	objects   map[string][]version       // name -> versions (id-keyed keeps all)
	refs      map[string]map[string]bool // name -> reference tokens (dedup)
	used      int64
	capacity  int64 // 0 = unlimited
	available bool
	failNext  int // fail the next N operations (fault injection)

	// op counters for assertions and the Figure-18 share-distribution
	// experiment.
	uploads, downloads, lists, deletes int64
	bytesIn, bytesOut                  int64
}

type version struct {
	data     []byte
	modified time.Time
}

// NewBackend creates a provider with the given object-identity semantics.
// capacity of 0 means unlimited.
func NewBackend(name string, identity csp.ObjectIdentity, capacity int64) *Backend {
	return &Backend{
		name:      name,
		identity:  identity,
		objects:   make(map[string][]version),
		refs:      make(map[string]map[string]bool),
		capacity:  capacity,
		available: true,
	}
}

// Name returns the provider name.
func (b *Backend) Name() string { return b.name }

// Identity returns the provider's object identity model.
func (b *Backend) Identity() csp.ObjectIdentity { return b.identity }

// SetAvailable flips the provider's availability; unavailable providers
// fail every call with csp.ErrUnavailable (long outages, paper §5.5).
func (b *Backend) SetAvailable(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.available = ok
}

// Available reports current availability.
func (b *Backend) Available() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.available
}

// FailNext makes the next n operations fail with csp.ErrUnavailable, then
// recover — transient fault injection.
func (b *Backend) FailNext(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failNext = n
}

// SetCapacity changes the provider's byte capacity mid-simulation (0 =
// unlimited). Shrinking below the bytes already used does not delete
// anything; it only makes subsequent uploads fail with ErrOverCapacity —
// the way a real account behaves when its quota is reduced.
func (b *Backend) SetCapacity(bytes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.capacity = bytes
}

// Capacity returns the current byte capacity (0 = unlimited).
func (b *Backend) Capacity() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity
}

// The methods below are the state-dump and fault-injection surface used by
// the chaos harness (internal/harness). They bypass availability gating,
// op counters, and transport costs on purpose: they model an omniscient
// observer (or a byzantine operator) acting directly on the provider's
// durable state, not a client performing API calls.

// ObjectNames returns the names of all stored objects under prefix, sorted.
// Ungated: works even while the provider is marked unavailable.
func (b *Backend) ObjectNames(prefix string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for name, vs := range b.objects {
		if len(vs) > 0 && hasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// PeekObject returns a copy of the latest stored bytes of an object without
// counting as a download and without availability gating.
func (b *Backend) PeekObject(name string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	vs := b.objects[name]
	if len(vs) == 0 {
		return nil, false
	}
	return append([]byte(nil), vs[len(vs)-1].data...), true
}

// MutateObject applies fn to the latest version of an object in place —
// bit rot and tampering injection. fn receives a copy and returns the new
// bytes; returning nil keeps the object unchanged. Reports whether the
// object existed.
func (b *Backend) MutateObject(name string, fn func([]byte) []byte) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	vs := b.objects[name]
	if len(vs) == 0 {
		return false
	}
	old := vs[len(vs)-1].data
	mutated := fn(append([]byte(nil), old...))
	if mutated == nil {
		return false
	}
	b.used += int64(len(mutated)) - int64(len(old))
	vs[len(vs)-1].data = mutated
	return true
}

// InjectObject writes an object directly into the store, bypassing
// capacity, availability, and identity semantics — used by the harness to
// seed deliberately invalid states (e.g. a share placed on a provider the
// placement guard would have refused).
func (b *Backend) InjectObject(name string, data []byte, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, v := range b.objects[name] {
		b.used -= int64(len(v.data))
	}
	cp := append([]byte(nil), data...)
	b.objects[name] = []version{{data: cp, modified: now}}
	b.used += int64(len(cp))
}

// RemoveObject deletes an object directly (all versions), bypassing gating
// and counters — models silent durable-state loss at the provider.
func (b *Backend) RemoveObject(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	vs := b.objects[name]
	if len(vs) == 0 {
		return false
	}
	for _, v := range vs {
		b.used -= int64(len(v.data))
	}
	delete(b.objects, name)
	delete(b.refs, name)
	return true
}

// gate applies availability and fault injection; callers hold b.mu.
func (b *Backend) gateLocked() error {
	if !b.available {
		return fmt.Errorf("%w: %s is down", csp.ErrUnavailable, b.name)
	}
	if b.failNext > 0 {
		b.failNext--
		return fmt.Errorf("%w: %s injected fault", csp.ErrUnavailable, b.name)
	}
	return nil
}

// Stats is a snapshot of backend counters.
type Stats struct {
	Objects   int
	UsedBytes int64
	Uploads   int64
	Downloads int64
	Lists     int64
	Deletes   int64
	BytesIn   int64
	BytesOut  int64
}

// Stats returns a snapshot of the op counters.
func (b *Backend) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, vs := range b.objects {
		n += len(vs)
	}
	return Stats{
		Objects:   n,
		UsedBytes: b.used,
		Uploads:   b.uploads,
		Downloads: b.downloads,
		Lists:     b.lists,
		Deletes:   b.deletes,
		BytesIn:   b.bytesIn,
		BytesOut:  b.bytesOut,
	}
}

// ResetStats zeroes the op counters (not the objects).
func (b *Backend) ResetStats() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.uploads, b.downloads, b.lists, b.deletes = 0, 0, 0, 0
	b.bytesIn, b.bytesOut = 0, 0
}

func (b *Backend) upload(name string, data []byte, now time.Time) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.gateLocked(); err != nil {
		return err
	}
	delta := int64(len(data))
	if b.identity == csp.NameKeyed {
		if old := b.objects[name]; len(old) > 0 {
			delta -= int64(len(old[len(old)-1].data))
		}
	}
	if b.capacity > 0 && b.used+delta > b.capacity {
		return fmt.Errorf("%w: %s used %d of %d bytes", csp.ErrOverCapacity, b.name, b.used, b.capacity)
	}
	cp := append([]byte(nil), data...)
	v := version{data: cp, modified: now}
	if b.identity == csp.NameKeyed {
		// Name-keyed (Dropbox): overwrite.
		b.objects[name] = []version{v}
	} else {
		// ID-keyed (Google Drive): duplicate object under the same name.
		b.objects[name] = append(b.objects[name], v)
	}
	b.used += delta
	b.uploads++
	b.bytesIn += int64(len(data))
	return nil
}

func (b *Backend) download(name string) ([]byte, error) {
	data, err := b.view(name)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), nil
}

// view is download without the copy: the stored bytes themselves, which
// the caller must not modify. Stored versions are never written in place
// (MutateObject swaps in a new slice), so reading them needs no lock.
func (b *Backend) view(name string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.gateLocked(); err != nil {
		return nil, err
	}
	vs := b.objects[name]
	if len(vs) == 0 {
		return nil, fmt.Errorf("%w: %s has no %q", csp.ErrNotFound, b.name, name)
	}
	latest := vs[len(vs)-1]
	b.downloads++
	b.bytesOut += int64(len(latest.data))
	return latest.data, nil
}

func (b *Backend) list(prefix string) ([]csp.ObjectInfo, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.gateLocked(); err != nil {
		return nil, err
	}
	b.lists++
	var out []csp.ObjectInfo
	for name, vs := range b.objects {
		if len(vs) == 0 || !hasPrefix(name, prefix) {
			continue
		}
		latest := vs[len(vs)-1]
		out = append(out, csp.ObjectInfo{Name: name, Size: int64(len(latest.data)), Modified: latest.modified})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func (b *Backend) delete(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.gateLocked(); err != nil {
		return err
	}
	vs := b.objects[name]
	if len(vs) == 0 {
		return fmt.Errorf("%w: %s has no %q", csp.ErrNotFound, b.name, name)
	}
	for _, v := range vs {
		b.used -= int64(len(v.data))
	}
	delete(b.objects, name)
	delete(b.refs, name) // plain delete bypasses refcounts; tokens die with the object
	b.deletes++
	return nil
}

// Reference-token operations (csp.RefStore semantics). Tokens live in
// durable state alongside the objects — they survive availability flips
// (crash/restart) like everything else — and every call is gated and
// atomic under b.mu, which is exactly the capability the refcounted-GC
// protocol needs from a provider.

func (b *Backend) putRef(name, ref string, data []byte, now time.Time) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.gateLocked(); err != nil {
		return false, err
	}
	if len(b.objects[name]) > 0 {
		b.addRefLocked(name, ref)
		return false, nil
	}
	delta := int64(len(data))
	if b.capacity > 0 && b.used+delta > b.capacity {
		return false, fmt.Errorf("%w: %s used %d of %d bytes", csp.ErrOverCapacity, b.name, b.used, b.capacity)
	}
	cp := append([]byte(nil), data...)
	b.objects[name] = []version{{data: cp, modified: now}}
	b.used += delta
	b.uploads++
	b.bytesIn += delta
	b.addRefLocked(name, ref)
	return true, nil
}

func (b *Backend) addRef(name, ref string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.gateLocked(); err != nil {
		return err
	}
	if len(b.objects[name]) == 0 {
		return fmt.Errorf("%w: %s has no %q", csp.ErrNotFound, b.name, name)
	}
	b.addRefLocked(name, ref)
	return nil
}

func (b *Backend) delRef(name, ref string) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.gateLocked(); err != nil {
		return false, err
	}
	vs := b.objects[name]
	if len(vs) == 0 {
		return false, fmt.Errorf("%w: %s has no %q", csp.ErrNotFound, b.name, name)
	}
	if toks := b.refs[name]; toks != nil {
		delete(toks, ref)
		if len(toks) > 0 {
			return false, nil
		}
	}
	// Last token drained (or the object never had any): remove the object
	// and its token set in one atomic step — there is no window in which a
	// zero-referenced share object lingers or a referenced one is gone.
	for _, v := range vs {
		b.used -= int64(len(v.data))
	}
	delete(b.objects, name)
	delete(b.refs, name)
	b.deletes++
	return true, nil
}

func (b *Backend) refList(name string) ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.gateLocked(); err != nil {
		return nil, err
	}
	if len(b.objects[name]) == 0 {
		return nil, fmt.Errorf("%w: %s has no %q", csp.ErrNotFound, b.name, name)
	}
	out := make([]string, 0, len(b.refs[name]))
	for tok := range b.refs[name] {
		out = append(out, tok)
	}
	sort.Strings(out)
	return out, nil
}

func (b *Backend) addRefLocked(name, ref string) {
	toks := b.refs[name]
	if toks == nil {
		toks = make(map[string]bool)
		b.refs[name] = toks
	}
	toks[ref] = true
}

// RefTokens returns the reference tokens registered on an object, sorted.
// Ungated oracle dump for the harness: works while the provider is down.
func (b *Backend) RefTokens(name string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.refs[name]))
	for tok := range b.refs[name] {
		out = append(out, tok)
	}
	sort.Strings(out)
	return out
}

// objectSize returns the size of the latest version, for transport costing.
func (b *Backend) objectSize(name string) (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	vs := b.objects[name]
	if len(vs) == 0 {
		return 0, false
	}
	return int64(len(vs[len(vs)-1].data)), true
}

// DuplicateCount reports how many stored objects share the given name —
// > 1 only on id-keyed providers.
func (b *Backend) DuplicateCount(name string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.objects[name])
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}
