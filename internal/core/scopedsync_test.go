package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/csp"
	"repro/internal/metadata"
)

// listAudit is what listingStore decorators of one client share: how many
// entries its listings returned, which prefixes it listed, and a switch that
// makes listings come back empty (a provider whose listing lags its writes).
type listAudit struct {
	entries atomic.Int64
	stale   atomic.Bool

	mu       sync.Mutex
	prefixes []string
}

func (a *listAudit) reset() {
	a.entries.Store(0)
	a.mu.Lock()
	a.prefixes = nil
	a.mu.Unlock()
}

// fullListings counts the listings of the whole metadata prefix.
func (a *listAudit) fullListings() (n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, p := range a.prefixes {
		if p == metadata.MetaPrefix {
			n++
		}
	}
	return n
}

type listingStore struct {
	csp.Store
	audit *listAudit
}

func (s *listingStore) List(ctx context.Context, prefix string) ([]csp.ObjectInfo, error) {
	infos, err := s.Store.List(ctx, prefix)
	if s.audit.stale.Load() {
		infos = nil
	}
	s.audit.entries.Add(int64(len(infos)))
	s.audit.mu.Lock()
	s.audit.prefixes = append(s.audit.prefixes, prefix)
	s.audit.mu.Unlock()
	return infos, err
}

// auditedClient builds a client whose every listing goes through a listAudit.
func auditedClient(t *testing.T, env *testEnv, id string) (*Client, *listAudit) {
	t.Helper()
	audit := &listAudit{}
	var stores []csp.Store
	for _, name := range env.names {
		stores = append(stores, &listingStore{Store: cloudsimStore(t, env, name), audit: audit})
	}
	c, err := New(Config{ClientID: id, Key: "shared-user-key", T: 2, N: 3}, stores)
	if err != nil {
		t.Fatal(err)
	}
	return c, audit
}

// The listing cost of an operation on one file is bounded by that file's
// versions, not by the namespace: each of Put / Get / Stat / Put-again /
// Delete lists at most 2·providers entries, and exactly as many with 200
// files in the namespace as with 50.
func TestSmallOpListingIndependentOfNamespace(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	c, audit := auditedClient(t, env, "alice")
	files := 0
	fill := func(n int) {
		for ; files < n; files++ {
			if err := c.Put(bg, fmt.Sprintf("ns/file-%03d", files), randData(int64(files), 600)); err != nil {
				t.Fatal(err)
			}
		}
	}
	measure := func(probe string) []int64 {
		var costs []int64
		step := func(op string, fn func() error) {
			t.Helper()
			audit.reset()
			if err := fn(); err != nil {
				t.Fatalf("%s %s at %d files: %v", op, probe, files, err)
			}
			got := audit.entries.Load()
			if limit := int64(2 * len(env.names)); got > limit {
				t.Errorf("%s at %d files listed %d entries, want <= %d", op, files, got, limit)
			}
			if n := audit.fullListings(); n != 0 {
				t.Errorf("%s at %d files listed the whole metadata prefix %d times", op, files, n)
			}
			costs = append(costs, got)
		}
		step("Put", func() error { return c.Put(bg, probe, randData(1, 900)) })
		step("Get", func() error { _, _, err := c.Get(bg, probe); return err })
		step("Stat", func() error { _, err := c.Stat(bg, probe); return err })
		step("Put", func() error { return c.Put(bg, probe, randData(2, 900)) })
		step("Delete", func() error { return c.Delete(bg, probe) })
		return costs
	}
	fill(50)
	at50 := measure("probe-50")
	fill(200)
	at200 := measure("probe-200")
	for i := range at50 {
		if at50[i] != at200[i] {
			t.Errorf("step %d listed %d entries at 50 files, %d at 200: per-op cost grows with the namespace", i, at50[i], at200[i])
		}
	}
	if at50[1] == 0 {
		t.Error("Get listed no entries: the scoped sync is not looking at the name's records")
	}
}

// A client sees another client's new version of a name — and a fork of it —
// through the scoped sync of its own next operation on that name, with no
// full Sync in between.
func TestScopedSyncSeesOtherClientsWrites(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	a, auditA := auditedClient(t, env, "alice")
	b, auditB := auditedClient(t, env, "bob")
	v1 := randData(1, 3000)
	if err := a.Put(bg, "doc", v1); err != nil {
		t.Fatal(err)
	}
	if got, _, err := b.Get(bg, "doc"); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("bob's first Get: %v", err) // no full view yet: this one runs the full Sync
	}
	auditA.reset()
	auditB.reset()

	// Alice moves on; bob's next Get of the name must serve her version.
	v2 := randData(2, 3000)
	if err := a.Put(bg, "doc", v2); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(bg, "unrelated", randData(3, 500)); err != nil {
		t.Fatal(err)
	}
	if got, _, err := b.Get(bg, "doc"); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("bob does not see alice's new version of the name (err %v)", err)
	}
	if _, err := b.Stat(bg, "unrelated"); err != nil {
		t.Fatalf("bob cannot find a name created since his full Sync: %v", err)
	}

	// Concurrent Puts: both write on top of v2 (bob's listings lag, so his
	// pre-op sync does not show alice's v3). The fork must surface as a
	// conflict on each side's next operation on the name.
	if err := a.Put(bg, "doc", randData(4, 3000)); err != nil {
		t.Fatal(err)
	}
	auditB.stale.Store(true)
	if err := b.Put(bg, "doc", randData(5, 3000)); err != nil {
		t.Fatal(err)
	}
	auditB.stale.Store(false)
	for _, c := range []*Client{a, b} {
		info, err := c.Stat(bg, "doc")
		if err != nil {
			t.Fatal(err)
		}
		if !info.Conflicted {
			t.Errorf("%s: concurrent Puts to one name did not surface as a conflict", c.cfg.ClientID)
		}
	}
	if n := auditA.fullListings() + auditB.fullListings(); n != 0 {
		t.Fatalf("%d listings of the whole metadata prefix: the per-op sync is not scoped", n)
	}
}

// Records written before the name tag existed — cyrus-meta-<vid>.s<i> — stay
// readable: a client without a full view runs the full Sync, whose listing
// matches both name forms, absorbs them and serves Get; new versions of the
// same name are written tagged on top of the legacy parent.
func TestLegacyMetaNamesReadable(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	w := env.client("writer", nil)
	want := map[string][]byte{"doc": randData(1, 5000), "dir/other": randData(2, 700)}
	for name, data := range want {
		if err := w.Put(bg, name, data); err != nil {
			t.Fatal(err)
		}
	}
	// Rewrite the provider state the way the previous naming left it.
	renamed := 0
	for _, provider := range env.names {
		b := env.backends[provider]
		for _, obj := range b.ObjectNames(metadata.MetaPrefix) {
			tag, vid, idx, ok := ParseMetaShareObjectName(obj)
			if !ok || tag == "" {
				continue
			}
			data, _ := b.PeekObject(obj)
			b.InjectObject(metaShareName(vid, idx), data, time.Now())
			b.RemoveObject(obj)
			renamed++
		}
	}
	if renamed == 0 {
		t.Fatal("fixture renamed nothing")
	}

	r := env.client("reader", nil)
	for name, data := range want {
		got, _, err := r.Get(bg, name) // first op of a fresh client: full Sync
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get %s over legacy names: %v", name, err)
		}
	}
	fresh := env.client("fresh", nil)
	if n, err := fresh.Sync(bg); err != nil || n != len(want) {
		t.Fatalf("Sync over legacy names absorbed %d records (%v), want %d", n, err, len(want))
	}

	// A legacy share rotted at rest is corrected and healed where it lies,
	// under its legacy name.
	legacy := metaShareName(headOf(t, r, "doc").VersionID(), 0)
	holder, intact := "", []byte(nil)
	for _, provider := range env.names {
		if data, ok := env.backends[provider].PeekObject(legacy); ok {
			holder, intact = provider, data
		}
	}
	env.backends[holder].MutateObject(legacy, func(d []byte) []byte {
		d[len(d)/2] ^= 0x5a
		return d
	})
	if _, err := env.client("healer", nil).Sync(bg); err != nil {
		t.Fatal(err)
	}
	if healed, _ := env.backends[holder].PeekObject(legacy); !bytes.Equal(healed, intact) {
		t.Error("rotten legacy share was not healed in place")
	}

	// New versions go out tagged, chained to the legacy parent, and the
	// scoped sync of the name finds them.
	v2 := randData(3, 5000)
	if err := r.Put(bg, "doc", v2); err != nil {
		t.Fatal(err)
	}
	if got, _, err := fresh.Get(bg, "doc"); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("tagged version on top of a legacy parent not served: %v", err)
	}
	if hist, err := fresh.History(bg, "doc"); err != nil || len(hist) != 2 {
		t.Fatalf("history over mixed name forms = %d versions, %v", len(hist), err)
	}
}
