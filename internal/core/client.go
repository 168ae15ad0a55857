// Package core implements the CYRUS client: the paper's Table-3 API over
// any set of csp.Store providers.
//
// A Client owns no server-side logic whatsoever. It chunks files
// (internal/chunker), secret-shares every chunk (internal/erasure),
// scatters shares to CSPs chosen by consistent hashing under platform
// constraints (internal/hashring + internal/topology), stores per-file
// metadata — itself secret-shared — at a fixed set of metadata CSPs,
// selects download sources with the Algorithm-1 optimizer
// (internal/selector), and detects concurrent-update conflicts from the
// metadata version tree (internal/metadata). All of it runs through a
// vclock.Runtime, so the identical code executes in production (real
// goroutines and clocks) and in the latency experiments (virtual time).
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunker"
	"repro/internal/csp"
	"repro/internal/erasure"
	"repro/internal/hashring"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/reliability"
	"repro/internal/selector"
	"repro/internal/transfer"
	"repro/internal/vclock"
)

// Errors returned by the client.
var (
	ErrNoSuchFile   = errors.New("cyrus: no such file")
	ErrFileDeleted  = errors.New("cyrus: file is deleted")
	ErrNotEnoughCSP = errors.New("cyrus: not enough available CSPs")
	ErrDamaged      = errors.New("cyrus: cannot reconstruct data")
)

// Config tunes a client. Zero values take documented defaults.
type Config struct {
	// ClientID identifies this device in metadata records. Required.
	ClientID string
	// Key is the user's key string; it derives the Reed-Solomon dispersal
	// matrices and share names. All clients sharing a cloud must share the
	// key. Required.
	Key string

	// T is the privacy level: shares (hence CSPs) needed to reconstruct a
	// chunk. Default 2 (no single CSP can read anything).
	T int
	// N is the reliability level: shares stored per chunk. If 0, N is
	// derived from Epsilon and the estimated CSP failure probability via
	// Eq. (1).
	N int
	// Epsilon is the reliability bound used when N == 0, in (0, 1).
	// Default 1e-4.
	Epsilon float64

	// MetaT is the privacy level for metadata records, shared to all
	// metadata CSPs. Default 2.
	MetaT int

	// MetaShards, when positive, routes each file's metadata records to a
	// hashring-chosen subset of this many providers (keyed on the file
	// name) instead of every active CSP — the sharded metadata plane that
	// keeps per-record fan-out constant as providers are added. Must be at
	// least MetaT. 0 (the default) keeps the paper's all-CSPs placement.
	// Reads are placement-agnostic either way: records are found through
	// the metadata listing, so clients with a stale ring still resolve
	// records placed under older shard sets.
	MetaShards int

	// MetaCacheEntries, when positive, lets reads (Stat, History, the Gets)
	// skip their metadata sync for up to this many file names (LRU) whose
	// head this client has synced or written and has absorbed no record for
	// since — a freshness mark over the local tree, verified by version-ID
	// hash on every hit (DESIGN.md §11). 0 (the default) syncs before every
	// read.
	MetaCacheEntries int

	// DedupMode enables cross-user convergent dedup: dispersal matrices are
	// derived from chunk content (keyed by DedupSecret), shares are named by
	// content address, and uploads of shares the CSP already holds are
	// skipped via a reference probe. Equal chunks from different clients
	// sharing the same DedupSecret produce byte-identical share objects.
	// Off by default: convergent keys trade the paper's per-user matrix
	// secrecy for dedup, and confirm-a-chunk attacks become possible for
	// anyone holding the deployment secret.
	DedupMode bool
	// DedupSecret is the per-deployment secret keying the convergent key
	// derivation. Required when DedupMode is set; all clients that should
	// dedup against each other must share it. It is deliberately distinct
	// from Key: per-user keys still protect metadata and legacy shares.
	DedupSecret string

	// Chunking configures content-defined chunking.
	Chunking chunker.Config

	// Classes declares the storage classes available to this client: named
	// bundles of CSP subset, per-class (t, n)/Epsilon, chunking parameters,
	// a tier, and an optional lifecycle demotion rule. Empty = no classes;
	// every object lives in the implicit default class (exactly the
	// pre-class behavior of the fields above).
	Classes []policy.Class
	// ClassRules routes object names to classes by longest-prefix match
	// (see policy.Engine). Only meaningful alongside Classes.
	ClassRules []policy.Rule
	// DefaultClass names the class applied when no rule matches and no
	// per-request override is given. "" keeps the implicit default class.
	DefaultClass string

	// ClusterOf maps CSP name -> platform cluster (from
	// topology.InferClusters); share placement uses at most one CSP per
	// cluster. nil disables the constraint.
	ClusterOf map[string]string

	// Selector chooses download sources. Default selector.Optimized.
	Selector selector.Selector

	// Runtime supplies concurrency and time. Default vclock.Real().
	Runtime vclock.Runtime

	// LinkBps seeds the per-CSP bandwidth estimates (bytes/second) used by
	// the selector before any transfers have been observed. Optional.
	LinkBps map[string]float64

	// FailureThreshold is how long a CSP must be consistently unreachable
	// before it is counted as failed. Default 24h.
	FailureThreshold time.Duration

	// Transfer bounds the transfer engine: its global in-flight cap and
	// its download-hedging deadline. Zero values take the engine's
	// documented defaults.
	Transfer transfer.Tunables

	// Obs, when set, receives metrics, spans, and per-CSP state from
	// every operation: op latency histograms, provider request and byte
	// counters, one attempt record per provider try in the flight
	// recorder, and the link-model gauges. The observer's
	// clock is re-pointed at this client's Runtime, so virtual-time runs
	// record virtual durations. One observer may be shared by several
	// clients; it only records, so nothing the client decides depends on
	// it. nil disables instrumentation entirely.
	Obs *obs.Observer
}

// Fixed client policy. No caller has ever run with other values.
const (
	// pipelineDepth bounds how many chunks the streaming Put/Get pipeline
	// (PutReader/GetTo) holds resident at once: chunk k+1 is scanned,
	// hashed, and encoded while chunk k's shares are still in flight, but
	// never more than pipelineDepth plaintext chunk buffers exist
	// concurrently, so client memory is O(pipelineDepth × MaxSize × n/t)
	// instead of O(file).
	pipelineDepth = 4
	// failureProbPrior is the per-CSP failure probability Eq. (1) assumes
	// for a provider with no contact history (≈ 18 downtime-hours/year).
	failureProbPrior = 0.002
)

func (c Config) withDefaults() (Config, error) {
	if c.ClientID == "" {
		return c, errors.New("cyrus: Config.ClientID is required")
	}
	if c.Key == "" {
		return c, errors.New("cyrus: Config.Key is required")
	}
	if c.T == 0 {
		c.T = 2
	}
	if c.T < 1 {
		return c, fmt.Errorf("cyrus: T=%d", c.T)
	}
	if c.N != 0 && c.N < c.T {
		return c, fmt.Errorf("cyrus: N=%d < T=%d", c.N, c.T)
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-4
	}
	if c.Epsilon < 0 || c.Epsilon >= 1 {
		return c, fmt.Errorf("cyrus: Epsilon=%g, want 0 < Epsilon < 1", c.Epsilon)
	}
	if c.MetaT == 0 {
		c.MetaT = 2
	}
	if c.MetaT < 0 {
		return c, fmt.Errorf("cyrus: MetaT=%d", c.MetaT)
	}
	if c.MetaShards < 0 {
		return c, fmt.Errorf("cyrus: MetaShards=%d", c.MetaShards)
	}
	if c.MetaShards > 0 && c.MetaShards < c.MetaT {
		return c, fmt.Errorf("cyrus: MetaShards=%d < MetaT=%d", c.MetaShards, c.MetaT)
	}
	if c.MetaCacheEntries < 0 {
		return c, fmt.Errorf("cyrus: MetaCacheEntries=%d", c.MetaCacheEntries)
	}
	if c.DedupMode && c.DedupSecret == "" {
		return c, errors.New("cyrus: DedupMode requires Config.DedupSecret")
	}
	if c.Selector == nil {
		c.Selector = selector.Optimized{}
	}
	if c.Runtime == nil {
		c.Runtime = vclock.Real()
	}
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 24 * time.Hour
	}
	return c, nil
}

// FileInfo describes one file visible through List/Stat.
type FileInfo struct {
	Name       string
	Size       int64
	Modified   time.Time
	VersionID  string
	Class      string // storage class the version's content is stored under
	Deleted    bool
	Conflicted bool
}

// Client is a CYRUS endpoint. It is safe for concurrent use.
type Client struct {
	cfg   Config
	coder *erasure.Coder
	// names also holds the convergent coder CAS chunks code with. It is
	// built whenever DedupSecret is set — not only in DedupMode — so a
	// client with dedup switched off still reads (and GCs) CAS shares
	// written by its dedup-enabled peers.
	names    Names
	chunk    *chunker.Chunker
	pol      *policy.Engine              // class resolution; nil = no classes
	chunkers map[string]*chunker.Chunker // per-class override chunkers
	ring     *hashring.Ring
	tree     *metadata.Tree
	table    *metadata.ChunkTable
	est      *reliability.Estimator
	links    *linkModel
	engine   *transfer.Engine
	rt       vclock.Runtime
	sel      selector.Selector
	codec    *codecPool
	fresh    *freshSet     // nil = disabled
	obs      *obs.Observer // nil = disabled
	depth    int           // pipelineDepth; the package's tests vary it

	// ringEpoch counts ring-membership changes; placedEpoch is the epoch
	// metadata placements were last reconciled under (it never moves
	// backward), so a sync after churn knows to re-scatter sharded records
	// (metaio.go). Both live in memory only.
	ringEpoch   atomic.Uint64
	placedEpoch atomic.Uint64

	mu       sync.Mutex
	stores   map[string]csp.Store
	removed  map[string]bool // removed or failed CSPs: no uploads go there
	cspSeq   int64           // highest CSP-list sequence seen or published
	syncFull bool            // last Sync saw the complete recoverable state

	// Accounted data-plane payload bytes currently resident (plaintext
	// chunk buffers in the streaming window, plus whole-file buffers on the
	// batch wrappers) and the high-water mark, read through BufferBytes.
	bufCur  atomic.Int64
	bufPeak atomic.Int64
}

// New builds a client over the given providers — the paper's s = create()
// followed by add(s, c) for each provider. Providers must already be
// authenticated (or be authenticated by the caller before use).
func New(cfg Config, stores []csp.Store) (*Client, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ch, err := chunker.New(full.Chunking)
	if err != nil {
		return nil, err
	}
	pol, err := policy.NewEngine(full.Classes, full.ClassRules, full.DefaultClass)
	if err != nil {
		return nil, err
	}
	if len(full.Classes) == 0 && len(full.ClassRules) == 0 && full.DefaultClass == "" {
		pol = nil // classless client: resolution short-circuits to ""
	}
	// Per-class chunkers are built once: class resolution must be cheap on
	// the Put hot path, and chunker.New validates the config eagerly so a
	// bad class fails construction, not the first upload into it.
	chunkers := make(map[string]*chunker.Chunker)
	for _, cls := range pol.Classes() {
		if !cls.HasChunking() {
			continue
		}
		cch, err := chunker.New(cls.Chunking)
		if err != nil {
			return nil, fmt.Errorf("cyrus: class %q chunking: %w", cls.Name, err)
		}
		chunkers[cls.Name] = cch
	}
	c := &Client{
		cfg:      full,
		coder:    erasure.NewCoder(full.Key),
		names:    NewNames(full.Key, full.DedupSecret),
		chunk:    ch,
		pol:      pol,
		chunkers: chunkers,
		ring:     hashring.New(0),
		tree:     metadata.NewTree(),
		table:    metadata.NewChunkTable(),
		est:      reliability.NewEstimator(full.FailureThreshold),
		links:    newLinkModel(full.LinkBps),
		rt:       full.Runtime,
		sel:      full.Selector,
		obs:      full.Obs,
		stores:   make(map[string]csp.Store),
		removed:  make(map[string]bool),
		depth:    pipelineDepth,
	}
	c.codec = newCodecPool(c.obs)
	if full.MetaCacheEntries > 0 {
		c.fresh = newFreshSet(full.MetaCacheEntries, c.tree, c.obs)
	}
	// All provider I/O dispatches through one engine: bounded in-flight
	// slots, taxonomy-driven retries on the client's clock, per-operation
	// failed sets, and hedged gathers (internal/transfer).
	c.engine = transfer.New(transfer.Config{
		Runtime:  c.rt,
		Obs:      c.obs,
		Report:   c.recordResult,
		Tunables: full.Transfer,
	})
	if c.obs != nil {
		// Durations must follow this client's notion of time.
		c.obs.SetClock(c.rt.Now)
	}
	for _, s := range stores {
		if err := c.AddCSP(s); err != nil {
			return nil, err
		}
	}
	// The construction-time membership is the baseline epoch: re-placement
	// only reacts to churn observed after this point.
	c.placedEpoch.Store(c.ringEpoch.Load())
	return c, nil
}

// AddCSP registers a provider — add(s, c). Subsequent uploads may place
// shares there; existing shares are not rebalanced (paper §5.5: adding a
// CSP never degrades previously uploaded chunks).
func (c *Client) AddCSP(s csp.Store) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := s.Name()
	if _, ok := c.stores[name]; ok {
		return fmt.Errorf("cyrus: CSP %q already added", name)
	}
	if err := c.ring.Add(name); err != nil {
		return err
	}
	c.ringEpoch.Add(1)
	c.stores[name] = s
	delete(c.removed, name)
	return nil
}

// RemoveCSP marks a provider as removed — remove(s, c) — and publishes the
// change to the cloud's CSP list so other clients stop uploading there
// (paper §5.5). Its shares are migrated lazily: whenever a later download
// touches a chunk with a share on the removed provider, the share is
// reconstructed and re-uploaded elsewhere (Figure 9).
func (c *Client) RemoveCSP(ctx context.Context, name string) error {
	c.mu.Lock()
	if _, ok := c.stores[name]; !ok {
		c.mu.Unlock()
		return fmt.Errorf("cyrus: CSP %q not present", name)
	}
	changed := false
	if !c.removed[name] {
		c.removed[name] = true
		changed = true
		if err := c.ring.Remove(name); err != nil {
			c.mu.Unlock()
			return err
		}
		c.ringEpoch.Add(1)
	}
	c.mu.Unlock()
	if !changed {
		return nil
	}
	return c.publishCSPList(ctx)
}

// activeCSPs returns the names of providers currently eligible for uploads.
func (c *Client) activeCSPs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for name := range c.stores {
		if !c.removed[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// store returns the provider by name, including removed ones (their shares
// may still be read during migration).
func (c *Client) store(name string) (csp.Store, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.stores[name]
	return s, ok
}

// coderFor returns the erasure coder matching the chunk's addressing mode:
// the content-derived convergent coder for CAS chunks, the per-user coder
// otherwise.
func (c *Client) coderFor(ref metadata.ChunkRef) (*erasure.Coder, error) {
	if !ref.CAS {
		return c.coder, nil
	}
	if c.names.conv == nil {
		return nil, fmt.Errorf("cyrus: chunk %s is content-addressed but no DedupSecret is configured", ref.ID)
	}
	return c.names.conv.For(ref.ID), nil
}

// Tree exposes the local metadata tree (read-mostly; used by the CLI and
// experiments).
func (c *Client) Tree() *metadata.Tree { return c.tree }

// ChunkTable exposes the local global-chunk-table replica.
func (c *Client) ChunkTable() *metadata.ChunkTable { return c.table }

// Engine exposes the transfer engine (for tests asserting on its caps).
func (c *Client) Engine() *transfer.Engine { return c.engine }

// acctAdd accounts n data-plane payload bytes as resident, updating the
// high-water mark and the pipeline buffer gauge.
func (c *Client) acctAdd(n int64) {
	if n <= 0 {
		return
	}
	cur := c.bufCur.Add(n)
	peak := c.bufPeak.Load()
	for cur > peak && !c.bufPeak.CompareAndSwap(peak, cur) {
		peak = c.bufPeak.Load()
	}
	c.obs.PipelineBufferBytes(cur)
}

// acctSub releases n previously accounted bytes.
func (c *Client) acctSub(n int64) {
	if n <= 0 {
		return
	}
	c.obs.PipelineBufferBytes(c.bufCur.Add(-n))
}

// BufferBytes reports the accounted data-plane payload bytes currently
// resident and the high-water mark since construction. The streaming
// pipeline accounts each plaintext chunk buffer for exactly its residency
// window; the batch Put/Get wrappers additionally account their whole-file
// buffers — so the gap between the two paths' peaks is the memory the
// pipeline saves.
func (c *Client) BufferBytes() (cur, peak int64) {
	return c.bufCur.Load(), c.bufPeak.Load()
}

// hedgeAfter predicts how long a share download from the given provider
// should take — this client's request-latency EWMA plus the payload over
// its downlink estimate — and converts it into the engine's hedge trigger
// delay (which may withhold the hedge entirely: cold provider, or load past
// the Ghosh crossover). Until a latency has been observed the expectation
// is 0, "unknown": the closed loop then arms no hedge and the gather falls
// back to plain sequential failover, while an injected HedgePolicy still
// decides.
func (c *Client) hedgeAfter(ctx context.Context, cspName string, bytes int64) time.Duration {
	expected, samples := c.links.latency(cspName)
	if bw := c.links.estimate(cspName); expected > 0 && bw > 0 && bytes > 0 {
		expected += time.Duration(float64(bytes) / bw * float64(time.Second))
	}
	return c.engine.HedgeAfter(ctx, cspName, expected, samples)
}

// recordResult is the single sink for provider-contact outcomes: every
// upload, download, list, and delete lands here with its payload size and
// elapsed time (on the runtime clock), once per try. Successes feed the
// failure estimator and the link model (latency, arming count, and the
// downlink estimate the selector consumes); failures feed the estimator's
// outage tracking. The observer only records what these two hold, plus the
// payload bytes of successful tries. op is one of the op* constants in
// observe.go.
func (c *Client) recordResult(name, op string, err error, bytes int64, elapsed time.Duration) {
	now := c.rt.Now()
	if err == nil {
		// The estimator reports down-state transitions atomically from
		// under its own lock; deriving them from a separate Down() read
		// would race with concurrent share transfers and could leave the
		// gauge stuck out of sync with the estimator.
		if _, recovered := c.est.RecordSuccess(name, now); recovered {
			c.obs.CSPDownState(name, false)
		}
		l := c.links.success(name, op, bytes, elapsed)
		c.obs.CSPRequest(name, nil, elapsed)
		c.obs.TransferBytes(name, opDir(op), bytes)
		c.obs.CSPLink(name, l.downBps, l.upBps, l.latency)
		return
	}
	c.obs.CSPRequest(name, err, elapsed)
	if errors.Is(err, csp.ErrUnavailable) {
		if down, changed := c.est.RecordFailure(name, now); down && changed {
			c.obs.CSPDownState(name, true)
		}
	}
}
