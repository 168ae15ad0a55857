package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/metadata"
)

// MetaPlaneConfig parameterizes the metadata-plane experiment (BENCH id
// "8"): a sharded namespace is populated through the real client, then a
// fresh reader measures the cost of resolving and serving it — batched
// sync round trips vs. the per-record baseline, cold vs. warm Stat, and
// the warm-cache Get path that must cost zero metadata round trips.
type MetaPlaneConfig struct {
	Seed      int64
	Scale     float64 // namespace scale: 1.0 = the 100k-file target (default 0.01 -> 1k files)
	Providers int     // simulated CSPs (default 6)
	Shards    int     // MetaShards for the sharded universe (default 3)
	FileBytes int     // payload per file (default 256; metadata, not content, is under test)
}

func (c *MetaPlaneConfig) defaults() {
	if c.Scale == 0 {
		c.Scale = 0.01
	}
	if c.Providers == 0 {
		c.Providers = 6
	}
	if c.Shards == 0 {
		c.Shards = 3
	}
	if c.FileBytes == 0 {
		c.FileBytes = 256
	}
}

// MetaPlaneResult carries the measurements (BENCH_8.json).
type MetaPlaneResult struct {
	Report    Report
	Files     int `json:"files"`
	Providers int `json:"providers"`
	Shards    int `json:"shards"`

	// Per-file metadata upload round trips during population: the sharded
	// plane scatters each record to Shards providers, the unsharded one to
	// all of them.
	PutMetaRTsPerFileSharded   float64 `json:"put_meta_rts_per_file_sharded"`
	PutMetaRTsPerFileUnsharded float64 `json:"put_meta_rts_per_file_unsharded"`

	// A fresh client resolving the whole namespace: one listing plus at
	// most one batched fetch per provider, against the per-record baseline
	// of MetaT share downloads per file.
	ColdResolveRTs       int64   `json:"cold_resolve_rts"`
	PerRecordBaselineRTs int64   `json:"per_record_baseline_rts"`
	BatchReduction       float64 `json:"batch_reduction"`

	// Stat latency over a name sample: cold (every call revalidates
	// against the providers) vs. warm (served from the version-aware
	// cache). Warm calls must not touch the network at all.
	ColdStatOpsPerSec float64 `json:"cold_stat_ops_per_sec"`
	ColdStatP99Micros float64 `json:"cold_stat_p99_micros"`
	WarmStatOpsPerSec float64 `json:"warm_stat_ops_per_sec"`
	WarmStatP99Micros float64 `json:"warm_stat_p99_micros"`
	WarmStatMetaRTs   int64   `json:"warm_stat_meta_rts"`
	WarmGetMetaRTs    int64   `json:"warm_get_meta_rts"`

	// Shard skew: records routed per provider by the hashring.
	ShardRecordsMin int `json:"shard_records_min"`
	ShardRecordsMax int `json:"shard_records_max"`
}

// metaplaneCounters tallies metadata round trips across a client's stores.
type metaplaneCounters struct {
	lists, metaDownloads, metaUploads, batches atomic.Int64
}

func (c *metaplaneCounters) reads() int64 {
	return c.lists.Load() + c.metaDownloads.Load() + c.batches.Load()
}

func (c *metaplaneCounters) reset() {
	c.lists.Store(0)
	c.metaDownloads.Store(0)
	c.metaUploads.Store(0)
	c.batches.Store(0)
}

// metaplaneStore wraps a provider store and counts metadata round trips:
// listings, per-object metadata transfers, and batched fetches. Chunk-share
// traffic is not counted — it scales with content, not namespace size.
type metaplaneStore struct {
	csp.Store
	n *metaplaneCounters
}

func (s *metaplaneStore) List(ctx context.Context, prefix string) ([]csp.ObjectInfo, error) {
	s.n.lists.Add(1)
	return s.Store.List(ctx, prefix)
}

func (s *metaplaneStore) Download(ctx context.Context, name string) ([]byte, error) {
	if strings.HasPrefix(name, metadata.MetaPrefix) {
		s.n.metaDownloads.Add(1)
	}
	return s.Store.Download(ctx, name)
}

func (s *metaplaneStore) Upload(ctx context.Context, name string, data []byte) error {
	if strings.HasPrefix(name, metadata.MetaPrefix) {
		s.n.metaUploads.Add(1)
	}
	return s.Store.Upload(ctx, name, data)
}

func (s *metaplaneStore) DownloadBatch(ctx context.Context, names []string) (map[string][]byte, error) {
	s.n.batches.Add(1)
	return csp.DownloadBatch(ctx, s.Store, names)
}

// metaplaneUniverse is one isolated set of simulated providers.
type metaplaneUniverse struct {
	backends map[string]*cloudsim.Backend
	names    []string
}

func newMetaplaneUniverse(providers int) *metaplaneUniverse {
	u := &metaplaneUniverse{backends: make(map[string]*cloudsim.Backend)}
	for i := 0; i < providers; i++ {
		name := fmt.Sprintf("csp%c", 'a'+i)
		u.backends[name] = cloudsim.NewBackend(name, csp.NameKeyed, 0)
		u.names = append(u.names, name)
	}
	return u
}

func (u *metaplaneUniverse) client(id string, shards, cacheEntries int, n *metaplaneCounters) (*core.Client, error) {
	cfg := core.Config{
		ClientID:         id,
		Key:              "metaplane-bench",
		T:                2,
		N:                3,
		MetaT:            2,
		MetaShards:       shards,
		MetaCacheEntries: cacheEntries,
	}
	var stores []csp.Store
	for _, name := range u.names {
		s := cloudsim.NewSimStore(u.backends[name])
		if err := s.Authenticate(context.Background(), csp.Credentials{Token: "bench"}); err != nil {
			return nil, err
		}
		if n != nil {
			stores = append(stores, &metaplaneStore{Store: s, n: n})
		} else {
			stores = append(stores, s)
		}
	}
	return core.New(cfg, stores)
}

// populate uploads the namespace through the real client and returns the
// file names.
func populateMetaplane(c *core.Client, files, fileBytes int, seed int64) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, files)
	data := make([]byte, fileBytes)
	for i := range names {
		names[i] = fmt.Sprintf("d%02d/f%05d", i%37, i)
		rng.Read(data)
		if err := c.Put(context.Background(), names[i], data); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// statLatencies times one Stat per sampled name and returns ops/sec and
// the p99 in microseconds.
func statLatencies(c *core.Client, sample []string) (opsPerSec, p99Micros float64, err error) {
	durs := make([]time.Duration, 0, len(sample))
	var total time.Duration
	for _, name := range sample {
		start := time.Now()
		if _, serr := c.Stat(context.Background(), name); serr != nil {
			return 0, 0, serr
		}
		d := time.Since(start)
		durs = append(durs, d)
		total += d
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	p99 := durs[(len(durs)*99)/100]
	if p99 == durs[len(durs)-1] && len(durs) > 1 {
		p99 = durs[len(durs)-2] // soften the single-worst outlier on tiny samples
	}
	return float64(len(sample)) / total.Seconds(), float64(p99.Microseconds()), nil
}

// MetaPlane measures the sharded, cached, batched metadata plane on a
// scaled namespace. The reproduction targets are shapes, not absolutes:
// warm-cache reads cost zero metadata round trips, and a fresh client
// resolves the namespace in at least 5x fewer round trips than the
// per-record baseline.
func MetaPlane(cfg MetaPlaneConfig) (MetaPlaneResult, error) {
	cfg.defaults()
	var res MetaPlaneResult
	res.Files = int(cfg.Scale*100_000 + 0.5)
	if res.Files < 10 {
		res.Files = 10
	}
	res.Providers = cfg.Providers
	res.Shards = cfg.Shards
	ctx := context.Background()

	// Sharded universe: populate, then measure a fresh reader.
	var writeN metaplaneCounters
	shardedU := newMetaplaneUniverse(cfg.Providers)
	writer, err := shardedU.client("writer", cfg.Shards, 0, &writeN)
	if err != nil {
		return res, err
	}
	names, err := populateMetaplane(writer, res.Files, cfg.FileBytes, cfg.Seed)
	if err != nil {
		return res, err
	}
	res.PutMetaRTsPerFileSharded = float64(writeN.metaUploads.Load()) / float64(res.Files)

	counts := writer.MetaShardCounts()
	res.ShardRecordsMin, res.ShardRecordsMax = -1, 0
	for _, n := range counts {
		if res.ShardRecordsMin < 0 || n < res.ShardRecordsMin {
			res.ShardRecordsMin = n
		}
		if n > res.ShardRecordsMax {
			res.ShardRecordsMax = n
		}
	}

	// Unsharded comparison universe: the same namespace with every record
	// scattered to all providers. Only the upload fan-out is compared.
	var unshardedN metaplaneCounters
	unshardedU := newMetaplaneUniverse(cfg.Providers)
	uw, err := unshardedU.client("writer", 0, 0, &unshardedN)
	if err != nil {
		return res, err
	}
	if _, err := populateMetaplane(uw, res.Files, cfg.FileBytes, cfg.Seed); err != nil {
		return res, err
	}
	res.PutMetaRTsPerFileUnsharded = float64(unshardedN.metaUploads.Load()) / float64(res.Files)

	// Fresh reader, cold resolve: the whole namespace in one sync.
	var readN metaplaneCounters
	reader, err := shardedU.client("reader", cfg.Shards, res.Files+16, &readN)
	if err != nil {
		return res, err
	}
	if _, err := reader.Sync(ctx); err != nil {
		return res, err
	}
	res.ColdResolveRTs = readN.reads()
	res.PerRecordBaselineRTs = int64(res.Files)*2 + int64(cfg.Providers) // MetaT share fetches per record + the listings
	if res.ColdResolveRTs > 0 {
		res.BatchReduction = float64(res.PerRecordBaselineRTs) / float64(res.ColdResolveRTs)
	}

	// Stat sample: cold pass (every call misses the cache and revalidates
	// with the providers), then warm pass (served from cache, no network).
	sampleSize := len(names)
	if sampleSize > 256 {
		sampleSize = 256
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	sample := make([]string, sampleSize)
	for i, j := range rng.Perm(len(names))[:sampleSize] {
		sample[i] = names[j]
	}
	if res.ColdStatOpsPerSec, res.ColdStatP99Micros, err = statLatencies(reader, sample); err != nil {
		return res, err
	}
	readN.reset()
	if res.WarmStatOpsPerSec, res.WarmStatP99Micros, err = statLatencies(reader, sample); err != nil {
		return res, err
	}
	res.WarmStatMetaRTs = readN.reads()

	// Warm-cache Get: the head is cached and verified by version-ID hash,
	// so the read goes straight to the chunk shares.
	if _, err := reader.GetTo(ctx, sample[0], io.Discard); err != nil {
		return res, err
	}
	readN.reset()
	if _, err := reader.GetTo(ctx, sample[0], io.Discard); err != nil {
		return res, err
	}
	res.WarmGetMetaRTs = readN.reads()

	res.Report = Report{
		ID:      "8",
		Title:   "metadata plane: batched resolve, warm cache, shard fan-out",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"files", fmt.Sprintf("%d", res.Files)},
			{"providers / shards", fmt.Sprintf("%d / %d", res.Providers, res.Shards)},
			{"put meta RTs per file (sharded)", fmt.Sprintf("%.1f", res.PutMetaRTsPerFileSharded)},
			{"put meta RTs per file (unsharded)", fmt.Sprintf("%.1f", res.PutMetaRTsPerFileUnsharded)},
			{"cold namespace resolve RTs", fmt.Sprintf("%d", res.ColdResolveRTs)},
			{"per-record baseline RTs", fmt.Sprintf("%d", res.PerRecordBaselineRTs)},
			{"batch reduction", fmt.Sprintf("%.1fx", res.BatchReduction)},
			{"cold Stat ops/sec", fmt.Sprintf("%.0f", res.ColdStatOpsPerSec)},
			{"cold Stat p99 (us)", fmt.Sprintf("%.0f", res.ColdStatP99Micros)},
			{"warm Stat ops/sec", fmt.Sprintf("%.0f", res.WarmStatOpsPerSec)},
			{"warm Stat p99 (us)", fmt.Sprintf("%.0f", res.WarmStatP99Micros)},
			{"warm Stat meta RTs", fmt.Sprintf("%d", res.WarmStatMetaRTs)},
			{"warm Get meta RTs", fmt.Sprintf("%d", res.WarmGetMetaRTs)},
			{"shard records min/max per CSP", fmt.Sprintf("%d / %d", res.ShardRecordsMin, res.ShardRecordsMax)},
		},
		Notes: []string{
			"acceptance: warm Get/Stat meta RTs = 0; batch reduction >= 5x vs the per-record baseline",
			"scale 1.0 = 100k files; the CI run uses -scale 0.01 (1k files)",
		},
	}
	return res, nil
}
