package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metadata"
)

// --- freshness marks (Config.MetaCacheEntries) -----------------------------

// A warm cache hit serves Stat and Get with ZERO metadata round trips: no
// listing, no metadata share downloads. This is the acceptance bar for the
// metadata cache.
func TestMetaCacheWarmHitZeroMetaRoundTrips(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	c, lists, downloads, _ := countingEnv(t, env, "alice", func(cfg *Config) {
		cfg.MetaCacheEntries = 64
	})
	data := randData(7, 8000)
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}

	// Put populated the cache (read-your-writes): Stat must do no I/O.
	lists.Store(0)
	downloads.Store(0)
	info, err := c.Stat(bg, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != int64(len(data)) {
		t.Fatalf("Stat size = %d", info.Size)
	}
	if n := lists.Load() + downloads.Load(); n != 0 {
		t.Fatalf("warm Stat cost %d round trips, want 0", n)
	}

	// Get still transfers chunk shares, but no metadata listing.
	got, _, err := c.Get(bg, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch")
	}
	if n := lists.Load(); n != 0 {
		t.Fatalf("warm Get ran %d listings, want 0", n)
	}
	if c.MetaCacheLen() == 0 {
		t.Fatal("cache empty after warm operations")
	}
}

// Absorbing any record for a name — here a sibling's new version arriving
// via Sync — must invalidate the cached head, and the next read must serve
// the new version.
func TestMetaCacheInvalidatedByRemoteUpdate(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	cacheCfg := func(cfg *Config) { cfg.MetaCacheEntries = 64 }
	c1 := env.client("c1", cacheCfg)
	c2 := env.client("c2", cacheCfg)

	v1 := randData(1, 3000)
	if err := c1.Put(bg, "shared", v1); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Stat(bg, "shared"); err != nil { // sync + cache v1
		t.Fatal(err)
	}
	v1id, ok := c2.CachedHeadVersion("shared")
	if !ok {
		t.Fatal("v1 not cached after Stat")
	}

	v2 := randData(2, 3000)
	if err := c1.Put(bg, "shared", v2); err != nil {
		t.Fatal(err)
	}

	// Before c2 syncs, the cache legitimately serves v1 (CYRUS eventual
	// consistency: remote updates are seen at the next sync).
	info, err := c2.Stat(bg, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if info.VersionID != v1id {
		t.Fatalf("pre-sync Stat served %s, want cached %s", info.VersionID, v1id)
	}

	if _, err := c2.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if vid, ok := c2.CachedHeadVersion("shared"); ok && vid == v1id {
		t.Fatal("absorbing v2 did not invalidate the cached v1 head")
	}
	got, info, err := c2.Get(bg, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) || info.VersionID == v1id {
		t.Fatal("post-sync read did not serve the new version")
	}

	// Deletion: markers are never cached, so a deleted file keeps resolving
	// through sync (a remote recreate must be observable).
	if err := c1.Delete(bg, "shared"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.CachedHeadVersion("shared"); ok {
		t.Fatal("deletion marker cached as a head")
	}
	info, err = c2.Stat(bg, "shared")
	if err != nil || !info.Deleted {
		t.Fatalf("Stat after delete: info=%+v err=%v", info, err)
	}
}

// The cache respects its entry bound via LRU eviction.
func TestMetaCacheEviction(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	c := env.client("alice", func(cfg *Config) { cfg.MetaCacheEntries = 4 })
	for i := 0; i < 10; i++ {
		if err := c.Put(bg, fmt.Sprintf("f%d", i), randData(int64(i), 600)); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.MetaCacheLen(); n > 4 {
		t.Fatalf("cache holds %d entries, bound is 4", n)
	}
}

// --- resolve ---------------------------------------------------------------

// A read of the local replica asked the providers nothing, so it must not
// confer freshness: after Sync → (remote writer publishes v2) → StatLocal, the
// next Get has to sync and serve v2.
func TestLocalReadDoesNotMarkFresh(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	w := env.client("writer", nil)
	r, lists, _, _ := countingEnv(t, env, "reader", func(cfg *Config) { cfg.MetaCacheEntries = 64 })

	if err := w.Put(bg, "shared", randData(1, 3000)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Sync(bg); err != nil {
		t.Fatal(err)
	}
	v2 := randData(2, 3000)
	if err := w.Put(bg, "shared", v2); err != nil {
		t.Fatal(err)
	}
	stale, err := r.StatLocal("shared")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.CachedHeadVersion("shared"); ok {
		t.Error("StatLocal marked the name fresh")
	}
	lists.Store(0)
	got, info, err := r.Get(bg, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if lists.Load() == 0 {
		t.Fatal("Get after StatLocal ran no listing")
	}
	if !bytes.Equal(got, v2) || info.VersionID == stale.VersionID {
		t.Fatal("Get after StatLocal served the stale version")
	}
}

// resolve is the one (name, version) → record lookup: this pins when it
// syncs, when a fresh mark stands in for the sync, and what each miss maps to.
func TestResolve(t *testing.T) {
	t.Parallel()
	type world struct {
		w, r   *Client
		v1, v2 string // version IDs of "f": v1 before the reader last synced, v2 after
	}
	put := func(t *testing.T, c *Client, name string, seed int64) string {
		t.Helper()
		if err := c.Put(bg, name, randData(seed, 2000)); err != nil {
			t.Fatal(err)
		}
		info, err := c.StatLocal(name)
		if err != nil {
			t.Fatal(err)
		}
		return info.VersionID
	}
	cases := []struct {
		name string
		// marked: the reader Stats "f" (sync + mark) before the writer's v2;
		// otherwise it runs a full Sync (no mark).
		marked bool
		// prepare runs last, against the finished world.
		prepare   func(t *testing.T, x *world)
		file      string
		version   func(x *world) string // nil = head
		gate      syncGate
		wantSync  bool
		wantErr   error                 // sentinel, or
		wantErrIn string                // message fragment
		want      func(x *world) string // resolved version ID; nil (and no error wanted) = a deletion marker
		wantMark  bool                  // "f" carries a mark afterwards
	}{
		{name: "head/mark miss syncs and marks", file: "f", gate: syncUnlessFresh,
			wantSync: true, want: func(x *world) string { return x.v2 }, wantMark: true},
		{name: "head/mark hit skips the sync", marked: true, file: "f", gate: syncUnlessFresh,
			want: func(x *world) string { return x.v1 }, wantMark: true},
		{name: "head/mark whose record no longer hashes to it misses", marked: true, file: "f", gate: syncUnlessFresh,
			prepare: func(t *testing.T, x *world) {
				m, err := x.r.tree.Get(x.v1)
				if err != nil {
					t.Fatal(err)
				}
				m.File.ClientID = "aliased" // the tree's own record: what a hit would serve
			},
			wantSync: true, want: func(x *world) string { return x.v2 }, wantMark: true},
		{name: "head/write gate ignores the mark", marked: true, file: "f", gate: syncAlways,
			wantSync: true, want: func(x *world) string { return x.v2 }, wantMark: true},
		{name: "head/local gate neither syncs nor marks", file: "f", gate: noSync,
			want: func(x *world) string { return x.v1 }},
		{name: "head/deleted is returned, never marked", file: "f", gate: syncUnlessFresh,
			prepare: func(t *testing.T, x *world) {
				if err := x.w.Delete(bg, "f"); err != nil {
					t.Fatal(err)
				}
			},
			wantSync: true},
		{name: "head/unknown name", file: "nope", gate: syncUnlessFresh,
			wantSync: true, wantErr: ErrNoSuchFile},
		{name: "version/known costs no round trip", file: "f", gate: syncUnlessFresh,
			version: func(x *world) string { return x.v1 }, want: func(x *world) string { return x.v1 }},
		{name: "version/foreign name", file: "g", gate: syncUnlessFresh,
			version: func(x *world) string { return x.v1 }, wantErrIn: `belongs to "f", not "g"`},
		{name: "version/unknown everywhere", file: "f", gate: syncUnlessFresh,
			version:  func(*world) string { return strings.Repeat("0", 40) },
			wantSync: true, wantErr: metadata.ErrUnknownVersion},
		{name: "version/unknown then synced", file: "f", gate: syncUnlessFresh,
			version:  func(x *world) string { return x.v2 },
			wantSync: true, want: func(x *world) string { return x.v2 }},
		{name: "version/unknown stays unknown to the local gate", file: "f", gate: noSync,
			version: func(x *world) string { return x.v2 }, wantErr: metadata.ErrUnknownVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			env := newEnv(t, 5)
			x := &world{w: env.client("writer", nil)}
			var lists *atomic.Int64
			x.r, lists, _, _ = countingEnv(t, env, "reader", func(cfg *Config) { cfg.MetaCacheEntries = 64 })
			x.v1 = put(t, x.w, "f", 1)
			put(t, x.w, "g", 2)
			if _, err := x.r.Sync(bg); err != nil {
				t.Fatal(err)
			}
			if tc.marked {
				if _, err := x.r.Stat(bg, "f"); err != nil {
					t.Fatal(err)
				}
			}
			x.v2 = put(t, x.w, "f", 3)
			if tc.prepare != nil {
				tc.prepare(t, x)
			}
			vid := ""
			if tc.version != nil {
				vid = tc.version(x)
			}

			lists.Store(0)
			m, _, err := x.r.resolve(bg, tc.file, vid, tc.gate)
			if synced := lists.Load() > 0; synced != tc.wantSync {
				t.Errorf("synced = %v (%d listings), want %v", synced, lists.Load(), tc.wantSync)
			}
			switch {
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			case tc.wantErrIn != "":
				if err == nil || !strings.Contains(err.Error(), tc.wantErrIn) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErrIn)
				}
			case err != nil:
				t.Fatal(err)
			case tc.want == nil:
				if !m.File.Deleted {
					t.Fatalf("resolved live version %s, want the deletion marker", m.VersionID())
				}
			case m.VersionID() != tc.want(x):
				t.Fatalf("resolved %s, want %s", m.VersionID(), tc.want(x))
			}
			if _, marked := x.r.CachedHeadVersion("f"); marked != tc.wantMark {
				t.Errorf("fresh mark on f = %v, want %v", marked, tc.wantMark)
			}
		})
	}
}

// A version another client published since this one last synced is found by
// the exported version reads too (they used to answer "unknown version" where
// Restore of the same ID worked).
func TestGetVersionSyncsUnknownVersion(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	w, r := env.client("writer", nil), env.client("reader", nil)
	if err := w.Put(bg, "f", randData(1, 2000)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Sync(bg); err != nil {
		t.Fatal(err)
	}
	v2 := randData(2, 2000)
	if err := w.Put(bg, "f", v2); err != nil {
		t.Fatal(err)
	}
	info, err := w.StatLocal("f")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := r.GetVersion(bg, "f", info.VersionID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("content mismatch")
	}
}

// The marks are reached from every goroutine that reads, writes or syncs on
// one client. Whatever interleaving ran, a mark that survives quiesce must be
// the tree's live head (the harness's cache-coherence oracle, under -race).
func TestFreshMarksConcurrent(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	remote := env.client("remote", nil)
	c := env.client("local", func(cfg *Config) { cfg.MetaCacheEntries = 2 })
	names := []string{"a", "b", "c", "d"}
	for i, name := range names {
		if err := remote.Put(bg, name, randData(int64(i), 700)); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 15
	var wg sync.WaitGroup
	run := func(step func(round int, name string) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := step(i, names[i%len(names)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	run(func(_ int, name string) error { _, err := c.Stat(bg, name); return err })
	run(func(_ int, name string) error { _, _, err := c.Get(bg, name); return err })
	run(func(_ int, name string) error { _, err := c.StatLocal(name); return ignoreNoSuchFile(err) })
	run(func(i int, name string) error { return c.Put(bg, name, randData(int64(100+i), 700)) })
	run(func(i int, name string) error { return remote.Put(bg, name, randData(int64(200+i), 700)) })
	// A sync racing a writer can list a record whose shares are still landing;
	// it absorbs the rest and reports that one, which the next sync picks up.
	run(func(int, string) error { c.Sync(bg); return nil })
	wg.Wait()

	if _, err := c.Sync(bg); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		vid, ok := c.CachedHeadVersion(name)
		if !ok {
			continue
		}
		head, conflicted, err := c.tree.Head(name)
		if err != nil || conflicted || head.File.Deleted || head.VersionID() != vid {
			t.Errorf("%s: mark %s survives, tree head %v (conflicted %v, err %v)", name, vid, head, conflicted, err)
		}
	}
	if n := c.MetaCacheLen(); n > 2 {
		t.Errorf("%d names marked, bound is 2", n)
	}
}

func ignoreNoSuchFile(err error) error {
	if errors.Is(err, ErrNoSuchFile) {
		return nil
	}
	return err
}
