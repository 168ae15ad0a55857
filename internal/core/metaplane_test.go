package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/csp"
	"repro/internal/metadata"
)

// --- sharded placement -----------------------------------------------------

// With MetaShards set, a file's metadata shares must land exactly on the
// ring-selected subset — and a fresh client with the same configuration must
// still recover everything (same key, same ring, same subsets).
func TestShardedMetaPlacement(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 6)
	shardCfg := func(cfg *Config) { cfg.MetaShards = 3 }
	w := env.client("writer", shardCfg)

	files := map[string][]byte{}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("dir/file-%d.dat", i)
		files[name] = randData(int64(i), 2000+i*37)
		if err := w.Put(bg, name, files[name]); err != nil {
			t.Fatal(err)
		}
	}

	for name := range files {
		head, _, err := w.Tree().Head(name)
		if err != nil {
			t.Fatal(err)
		}
		vid := head.VersionID()
		targets := map[string]bool{}
		for _, p := range w.metaTargetsFor(name) {
			targets[p] = true
		}
		if len(targets) != 3 {
			t.Fatalf("%s: shard set has %d providers, want 3", name, len(targets))
		}
		for _, provider := range env.names {
			held := len(env.backends[provider].ObjectNames(metadata.MetaPrefix + w.metaRecordKey(name, vid)))
			if targets[provider] && held == 0 {
				t.Errorf("%s: shard member %s holds no metadata share", name, provider)
			}
			if !targets[provider] && held != 0 {
				t.Errorf("%s: non-member %s holds %d metadata shares", name, provider, held)
			}
		}
	}

	r := env.client("reader", shardCfg)
	if err := r.Recover(bg); err != nil {
		t.Fatal(err)
	}
	for name, want := range files {
		got, _, err := r.Get(bg, name)
		if err != nil {
			t.Fatalf("Get %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: content mismatch", name)
		}
	}
}

// After ring churn, the next full-view sync re-places sharded metadata onto
// the new shard sets without deleting the old copies, so a client still
// running the old ring resolves every record where it used to live.
func TestShardRepairAfterChurn(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 6)
	shardCfg := func(cfg *Config) { cfg.MetaShards = 3 }
	w := env.client("writer", shardCfg)

	files := map[string][]byte{}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("f%02d", i)
		files[name] = randData(int64(100+i), 1500)
		if err := w.Put(bg, name, files[name]); err != nil {
			t.Fatal(err)
		}
	}

	// Snapshot the pre-churn holdings of the provider about to leave.
	removed := env.names[0]
	before := env.backends[removed].ObjectNames(metadata.MetaPrefix)

	if err := w.RemoveCSP(bg, removed); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sync(bg); err != nil {
		t.Fatal(err)
	}

	// The new shard sets must be fully populated...
	for name := range files {
		head, _, err := w.Tree().Head(name)
		if err != nil {
			t.Fatal(err)
		}
		vid := head.VersionID()
		for i, provider := range w.metaTargetsFor(name) {
			obj := w.MetaShareObjectName(name, vid, i)
			if _, ok := env.backends[provider].PeekObject(obj); !ok {
				t.Errorf("%s: share %d missing on new shard member %s", name, i, provider)
			}
		}
	}
	// ...and the departed provider's copies untouched (stale-ring readers).
	after := env.backends[removed].ObjectNames(metadata.MetaPrefix)
	if len(after) < len(before) {
		t.Fatalf("repair deleted source copies: %d -> %d objects on %s", len(before), len(after), removed)
	}

	// A fresh client (which learns the removal from the CSP list mid-sync,
	// i.e. starts with a stale ring) still reads everything.
	r := env.client("reader", shardCfg)
	if err := r.Recover(bg); err != nil {
		t.Fatal(err)
	}
	for name, want := range files {
		got, _, err := r.Get(bg, name)
		if err != nil {
			t.Fatalf("Get %s after churn: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: content mismatch after churn", name)
		}
	}
}

// --- round-trip counting ---------------------------------------------------

// metaCountingStore wraps a SimStore and counts operations by kind. It forwards
// DownloadBatch so the batched path stays one round trip.
type metaCountingStore struct {
	csp.Store
	lists, downloads, batches *atomic.Int64
}

func (s *metaCountingStore) List(ctx context.Context, prefix string) ([]csp.ObjectInfo, error) {
	s.lists.Add(1)
	return s.Store.List(ctx, prefix)
}

func (s *metaCountingStore) Download(ctx context.Context, name string) ([]byte, error) {
	s.downloads.Add(1)
	return s.Store.Download(ctx, name)
}

func (s *metaCountingStore) DownloadBatch(ctx context.Context, names []string) (map[string][]byte, error) {
	s.batches.Add(1)
	return csp.DownloadBatch(ctx, s.Store, names)
}

// countingEnv builds one client over counting wrappers plus the shared
// counters.
func countingEnv(t *testing.T, env *testEnv, id string, tweak func(*Config)) (*Client, *atomic.Int64, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var lists, downloads, batches atomic.Int64
	var stores []csp.Store
	for _, name := range env.names {
		stores = append(stores, &metaCountingStore{
			Store: cloudsimStore(t, env, name),
			lists: &lists, downloads: &downloads, batches: &batches,
		})
	}
	cfg := Config{ClientID: id, Key: "shared-user-key", T: 2, N: 3}
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := New(cfg, stores)
	if err != nil {
		t.Fatal(err)
	}
	return c, &lists, &downloads, &batches
}

// --- batched metadata fetch ------------------------------------------------

// A fresh client's sync over a K-file namespace must resolve all records in
// O(providers) metadata round trips, not O(K): one listing per provider plus
// one batched download per provider.
func TestSyncBatchedRoundTrips(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	w := env.client("writer", nil)
	const K = 20
	for i := 0; i < K; i++ {
		if err := w.Put(bg, fmt.Sprintf("n/%02d", i), randData(int64(i), 1200)); err != nil {
			t.Fatal(err)
		}
	}

	r, lists, downloads, batches := countingEnv(t, env, "reader", nil)
	if _, err := r.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Tree().Names()); got != K {
		t.Fatalf("sync absorbed %d names, want %d", got, K)
	}
	// One listing per provider; metadata shares fetched in batches — the
	// per-record fallback (individual downloads) must not have fired.
	if n := lists.Load(); n > int64(len(env.names)) {
		t.Fatalf("sync ran %d listings for %d providers", n, len(env.names))
	}
	if n := batches.Load(); n > int64(len(env.names)) {
		t.Fatalf("sync ran %d batch fetches for %d providers", n, len(env.names))
	}
	if n := downloads.Load(); n != 0 {
		t.Fatalf("sync fell back to %d per-record downloads", n)
	}
}

// unaskedShareStore answers every batch with one share more than was asked
// for: the sibling index of the first requested record, carrying bytes that
// are not that share's.
type unaskedShareStore struct{ *metaCountingStore }

func (s unaskedShareStore) DownloadBatch(ctx context.Context, names []string) (map[string][]byte, error) {
	out, err := s.metaCountingStore.DownloadBatch(ctx, names)
	for _, name := range names {
		if rec, idx, ok := parseMetaShareName(name); ok && out[name] != nil {
			out[metaShareName(rec, idx^1)] = out[name]
			break
		}
	}
	return out, err
}

// A batch answer is filed by the keys the provider chose, so a key outside
// that provider's want-list must be dropped: filed, it lands in a record's
// share set as a second copy of an index, fails the quorum decode and costs
// a per-record gather that nothing called for.
func TestBatchFetchDropsSharesItDidNotAskFor(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	w := env.client("writer", nil)
	const K = 6
	for i := 0; i < K; i++ {
		if err := w.Put(bg, fmt.Sprintf("n/%02d", i), randData(int64(i), 1200)); err != nil {
			t.Fatal(err)
		}
	}
	var lists, downloads, batches atomic.Int64
	var stores []csp.Store
	for _, name := range env.names {
		stores = append(stores, unaskedShareStore{&metaCountingStore{
			Store: cloudsimStore(t, env, name),
			lists: &lists, downloads: &downloads, batches: &batches,
		}})
	}
	r, err := New(Config{ClientID: "reader", Key: "shared-user-key", T: 2, N: 3}, stores)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Sync(bg); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Tree().Names()); got != K {
		t.Fatalf("sync absorbed %d names, want %d", got, K)
	}
	if batches.Load() == 0 {
		t.Fatal("sync never took the batch path")
	}
	if n := downloads.Load(); n != 0 {
		t.Fatalf("an unrequested share in a batch answer cost %d per-record downloads", n)
	}
}

// When a share fetched by the batch pass is corrupt, the record must still
// resolve through the per-record fallback (surplus shares + error
// correction), not fail the sync.
func TestBatchFetchFallsBackOnCorruptShare(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	w := env.client("writer", nil)
	data := randData(3, 4000)
	if err := w.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	head, _, err := w.Tree().Head("doc")
	if err != nil {
		t.Fatal(err)
	}
	vid := head.VersionID()

	// Corrupt share index 0 wherever it lives: the batch pass prefers the
	// lowest indices, so it will fetch the rotten share and fail to decode.
	obj := w.MetaShareObjectName("doc", vid, 0)
	intact := make(map[string][]byte) // holder -> the share's bytes as written
	for _, name := range env.names {
		env.backends[name].MutateObject(obj, func(d []byte) []byte {
			intact[name] = bytes.Clone(d)
			d[len(d)/2] ^= 0x5a
			return d
		})
	}
	if len(intact) == 0 {
		t.Fatal("share .s0 not found on any provider")
	}

	r := env.client("reader", nil)
	if _, err := r.Sync(bg); err != nil {
		t.Fatalf("sync failed despite recoverable corruption: %v", err)
	}
	got, _, err := r.Get(bg, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch")
	}
	// The correcting read is the chunk plane's: it heals the rotten share
	// object in place with the bytes the writer stored.
	for name, want := range intact {
		if healed, _ := env.backends[name].PeekObject(obj); !bytes.Equal(healed, want) {
			t.Errorf("metadata share %s on %s was not rewritten with correct bytes after the sync", obj, name)
		}
	}
}

// A reader whose MetaT differs from the writer's still corrects a rotten
// share (the shares carry their own t), but must not "heal" it: re-encoded
// under the reader's t the share would not decode with its siblings.
func TestMetaSelfHealSkippedOnForeignT(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	w := env.client("writer", nil) // MetaT 2
	if err := w.Put(bg, "doc", randData(4, 4000)); err != nil {
		t.Fatal(err)
	}
	head, _, err := w.Tree().Head("doc")
	if err != nil {
		t.Fatal(err)
	}
	obj := w.MetaShareObjectName("doc", head.VersionID(), 0)
	env.backends["cspa"].MutateObject(obj, func(d []byte) []byte {
		d[len(d)/2] ^= 0x5a
		return d
	})
	rotten, _ := env.backends["cspa"].PeekObject(obj)

	r := env.client("reader", func(cfg *Config) { cfg.MetaT = 3 })
	if _, err := r.Sync(bg); err != nil {
		t.Fatalf("sync failed despite recoverable corruption: %v", err)
	}
	if _, _, err := r.Tree().Head("doc"); err != nil {
		t.Fatal(err)
	}
	if after, _ := env.backends["cspa"].PeekObject(obj); !bytes.Equal(after, rotten) {
		t.Fatal("share re-encoded under the reader's MetaT overwrote the writer's share object")
	}
}

// slowStore delays every Download of one provider.
type slowStore struct {
	csp.Store
	delay time.Duration
}

func (s *slowStore) Download(ctx context.Context, name string) ([]byte, error) {
	time.Sleep(s.delay)
	return s.Store.Download(ctx, name)
}

// After ring churn a share index has two holders. The gather counts
// successful lanes, so when the lane of a failed provider walks on to the
// alternate holder of an index whose primary fetch is still out, both land
// and the quorum resolves on one distinct share. The read must keep going
// over the rest of the pool — the record still has t distinct readable
// shares — instead of reporting damage.
func TestGatherBlobToppedUpAfterDuplicateIndex(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	w := env.client("writer", nil)
	if err := w.Put(bg, "doc", randData(5, 4000)); err != nil {
		t.Fatal(err)
	}
	head, _, err := w.Tree().Head("doc")
	if err != nil {
		t.Fatal(err)
	}
	rec := w.metaRecordKey("doc", head.VersionID())
	// Share i lives on the i-th provider; copy s1 to cspc as churn repair
	// would.
	s1, ok := env.backends["cspb"].PeekObject(metaShareName(rec, 1))
	if !ok {
		t.Fatal("share .s1 not on cspb")
	}
	env.backends["cspc"].InjectObject(metaShareName(rec, 1), s1, time.Now())

	var stores []csp.Store
	for _, name := range env.names {
		store := cloudsimStore(t, env, name)
		if name == "cspb" {
			store = &slowStore{Store: store, delay: 50 * time.Millisecond}
		}
		stores = append(stores, store)
	}
	r, err := New(Config{ClientID: "reader", Key: "shared-user-key", T: 2, N: 3}, stores)
	if err != nil {
		t.Fatal(err)
	}
	loc := func(i int, name string) metadata.ShareLoc { return metadata.ShareLoc{Index: i, CSP: name} }
	for _, fallback := range [][]metadata.ShareLoc{
		// The order a plan must not produce but the reader must survive: the
		// alternate holder of s1 ahead of the fresh indices.
		{loc(1, "cspc"), loc(2, "cspc"), loc(3, "cspd"), loc(4, "cspe")},
		// No fresh index left: only one distinct share is readable.
		{loc(1, "cspc")},
	} {
		op := r.engine.Begin(bg)
		op.MarkFailed("cspa") // the s0 holder just failed its batch
		b := r.metaBlob("", rec, 2, 5)
		_, _, err := r.gatherBlob(op, bg, b, []metadata.ShareLoc{loc(0, "cspa"), loc(1, "cspb")}, fallback)
		op.Finish()
		if len(fallback) == 1 {
			if !errors.Is(err, ErrDamaged) || errors.Is(err, errUndecodable) || strings.Contains(err.Error(), "%!") {
				t.Fatalf("one distinct share: got %v, want a well-formed availability ErrDamaged", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("record with t distinct readable shares: %v", err)
		}
		if b.record == nil || b.record.VersionID() != head.VersionID() {
			t.Fatal("gather returned no verified record")
		}
	}
}

// MetaShardCounts reflects the ring's routing of known names.
func TestMetaShardCounts(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 6)
	w := env.client("writer", func(cfg *Config) { cfg.MetaShards = 3 })
	const K = 30
	for i := 0; i < K; i++ {
		if err := w.Put(bg, fmt.Sprintf("s/%02d", i), randData(int64(i), 800)); err != nil {
			t.Fatal(err)
		}
	}
	counts := w.MetaShardCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != K*3 {
		t.Fatalf("shard counts sum to %d, want %d names x 3 shards", total, K*3)
	}
}
