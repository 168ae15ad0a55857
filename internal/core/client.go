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
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
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

// SharePrefix is the object-name prefix for chunk shares.
const SharePrefix = "cyrus-share-"

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
	// Epsilon is the reliability bound used when N == 0. Default 1e-4.
	Epsilon float64
	// FailureProb is the fallback per-CSP failure probability when there
	// is no contact history. Default 0.002 (≈ 18 downtime-hours/year).
	FailureProb float64

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

	// TreeRetention, when positive, compacts resolved conflict history
	// after every full-view sync: dead branches (every leaf deleted)
	// beyond this count per file are pruned from the local tree. Pruned
	// records stay on the providers and other replicas; only local state
	// shrinks — but their exclusively-referenced chunks become eligible
	// for an explicit GC. 0 (the default) disables compaction.
	TreeRetention int

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
	// ClientBps is the client's aggregate downlink cap estimate for the
	// selector. 0 = unconstrained.
	ClientBps float64

	// FailureThreshold is how long a CSP must be consistently unreachable
	// before it is counted as failed. Default 24h.
	FailureThreshold time.Duration

	// Logger, when set, receives structured operational events (uploads,
	// downloads, migrations, provider state changes). nil disables
	// logging entirely.
	Logger *slog.Logger

	// Transfer bounds the transfer engine: global and per-CSP in-flight
	// caps, the retry/backoff policy, and download hedging. Zero values
	// take the engine's documented defaults.
	Transfer transfer.Tunables

	// RaceReads changes the launch schedule of a chunk gather's redundant
	// lanes from one deadline hedge per picked source to k-out-of-n race
	// reads: up to RaceReads redundant fallback lanes start together with
	// the sources (only while load permits). Either way losers are
	// cancelled the moment the decode quorum of T shares lands. 0 keeps
	// deadline hedges.
	RaceReads int

	// Obs, when set, receives metrics, spans, and per-CSP health from
	// every operation: op latency histograms, provider request counters,
	// the event→metric bridge, and the scoreboard. The observer's clock is
	// re-pointed at this client's Runtime, so virtual-time runs record
	// virtual durations. One observer may be shared by several clients.
	// nil disables instrumentation entirely.
	Obs *obs.Observer

	// CodecWorkers bounds concurrent CPU-heavy codec jobs (chunk hashing,
	// erasure encode/decode). Default: GOMAXPROCS. CPU work runs through
	// this pool, decoupled from the transfer engine's in-flight slots, so
	// coding one chunk overlaps with transferring another.
	CodecWorkers int

	// PipelineDepth bounds how many chunks the streaming Put/Get pipeline
	// (PutReader/GetTo) holds resident at once: chunk k+1 is scanned,
	// hashed, and encoded while chunk k's shares are still in flight, but
	// never more than PipelineDepth plaintext chunk buffers exist
	// concurrently, so client memory is O(PipelineDepth × MaxSize × n/t)
	// instead of O(file). Default 4.
	PipelineDepth int
}

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
	if c.FailureProb == 0 {
		c.FailureProb = 0.002
	}
	if c.MetaT == 0 {
		c.MetaT = 2
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
	if c.TreeRetention < 0 {
		return c, fmt.Errorf("cyrus: TreeRetention=%d", c.TreeRetention)
	}
	if c.DedupMode && c.DedupSecret == "" {
		return c, errors.New("cyrus: DedupMode requires Config.DedupSecret")
	}
	if c.Selector == nil {
		c.Selector = selector.Optimized{}
	}
	if c.RaceReads < 0 {
		return c, fmt.Errorf("cyrus: RaceReads=%d", c.RaceReads)
	}
	if c.Runtime == nil {
		c.Runtime = vclock.Real()
	}
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 24 * time.Hour
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 4
	}
	if c.PipelineDepth < 1 {
		return c, fmt.Errorf("cyrus: PipelineDepth=%d", c.PipelineDepth)
	}
	return c, nil
}

// FileInfo describes one file visible through List/Stat.
type FileInfo struct {
	Name       string
	Size       int64
	Modified   time.Time
	VersionID  string
	Deleted    bool
	Conflicted bool
}

// Client is a CYRUS endpoint. It is safe for concurrent use.
type Client struct {
	cfg      Config
	coder    *erasure.Coder
	conv     *erasure.ConvergentCoder // nil unless DedupSecret configured
	chunk    *chunker.Chunker
	pol      *policy.Engine              // class resolution; nil = no classes
	chunkers map[string]*chunker.Chunker // per-class override chunkers
	ring     *hashring.Ring
	tree     *metadata.Tree
	table    *metadata.ChunkTable
	est      *reliability.Estimator
	bw       *bandwidthTracker
	events   *eventBus
	engine   *transfer.Engine
	rt       vclock.Runtime
	sel      selector.Selector
	codec    *codecPool
	fresh    *freshSet // nil = disabled
	keyHash  string
	log      *slog.Logger  // nil = disabled
	obs      *obs.Observer // nil = disabled

	// ringEpoch counts ring-membership changes; the chunk table remembers
	// the epoch metadata placements were last reconciled under, so a sync
	// after churn knows to re-scatter sharded records (metaio.go).
	ringEpoch atomic.Uint64

	mu       sync.Mutex
	stores   map[string]csp.Store
	removed  map[string]bool // removed or failed CSPs: no uploads go there
	cspSeq   int64           // highest CSP-list sequence seen or published
	syncFull bool            // last Sync saw the complete recoverable state

	// Accounted data-plane payload bytes currently resident (plaintext
	// chunk buffers in the streaming window, plus whole-file buffers on the
	// batch wrappers) and the high-water mark. The streaming-vs-batch
	// memory experiment reads these through BufferBytes.
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
	sum := sha1.Sum([]byte(full.Key))
	c := &Client{
		cfg:      full,
		coder:    erasure.NewCoder(full.Key),
		chunk:    ch,
		pol:      pol,
		chunkers: chunkers,
		ring:     hashring.New(0),
		tree:     metadata.NewTree(),
		table:    metadata.NewChunkTable(),
		est:      reliability.NewEstimator(full.FailureThreshold),
		bw:       newBandwidthTracker(full.LinkBps),
		events:   newEventBus(),
		rt:       full.Runtime,
		sel:      full.Selector,
		keyHash:  hex.EncodeToString(sum[:]),
		log:      full.Logger,
		obs:      full.Obs,
		stores:   make(map[string]csp.Store),
		removed:  make(map[string]bool),
	}
	if full.DedupSecret != "" {
		// Built whenever the secret is present — not only in DedupMode — so
		// a client with dedup switched off can still read (and GC) CAS
		// shares written by its dedup-enabled peers.
		c.conv = erasure.NewConvergentCoder(full.DedupSecret)
	}
	c.codec = newCodecPool(full.CodecWorkers, c.obs)
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
		// Durations must follow this client's notion of time, and the
		// bridge turns transfer events into metrics without any subscriber
		// re-deriving timing.
		c.obs.SetClock(c.rt.Now)
		c.events.subscribe(c.observeEvent)
	}
	for _, s := range stores {
		if err := c.AddCSP(s); err != nil {
			return nil, err
		}
	}
	// The construction-time membership is the baseline epoch: re-placement
	// only reacts to churn observed after this point.
	c.table.SetRingEpoch(c.ringEpoch.Load())
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

// CSPs returns the names of providers currently eligible for uploads.
func (c *Client) CSPs() []string {
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

// shareName implements the paper's naming scheme H'(index,
// H(chunk.content)): opaque to CSPs, recoverable by any key-holding client,
// and unique per (content, index, t) so re-uploads are idempotent.
func (c *Client) shareName(chunkID string, index, t int) string {
	h := sha1.New()
	fmt.Fprintf(h, "%s|%s|%d|%d", c.keyHash, chunkID, index, t)
	return SharePrefix + hex.EncodeToString(h.Sum(nil))
}

// shareNameFor returns the object name for one share of the chunk,
// dispatching on the chunk's addressing mode: content-addressed names for
// CAS chunks (dedup mode), key-derived names otherwise.
func (c *Client) shareNameFor(ref metadata.ChunkRef, index int) (string, error) {
	if !ref.CAS {
		return c.shareName(ref.ID, index, ref.T), nil
	}
	if c.conv == nil {
		return "", fmt.Errorf("cyrus: chunk %s is content-addressed but no DedupSecret is configured", ref.ID)
	}
	return casShareName(c.conv.Tag(ref.ID), index, ref.T), nil
}

// coderFor returns the erasure coder matching the chunk's addressing mode:
// the content-derived convergent coder for CAS chunks, the per-user coder
// otherwise.
func (c *Client) coderFor(ref metadata.ChunkRef) (*erasure.Coder, error) {
	if !ref.CAS {
		return c.coder, nil
	}
	if c.conv == nil {
		return nil, fmt.Errorf("cyrus: chunk %s is content-addressed but no DedupSecret is configured", ref.ID)
	}
	return c.conv.For(ref.ID), nil
}

// refToken is this user's reference token on content-addressed share
// objects: one token per user key, so a CAS object's token set counts the
// users referencing it. Not version-scoped — share upload happens before
// the referencing version's ID exists.
func (c *Client) refToken() string {
	return c.keyHash[:16]
}

// Inspection hooks. The chaos harness (internal/harness) audits provider
// state from outside the client, which requires recomputing the key-derived
// object names and knowing the configured quorums. These accessors expose
// exactly that — no mutable internals.

// ID returns the configured ClientID.
func (c *Client) ID() string { return c.cfg.ClientID }

// Params reports the client-wide default encoding parameters: the
// configured T and the n a new chunk would be stored at right now
// (explicit N, or the epsilon-derived width over the active clusters).
// Falls back to the raw config when no width is currently achievable.
func (c *Client) Params() (t, n int) {
	t, n, err := c.shareParams(policy.Class{})
	if err != nil {
		return c.cfg.T, c.cfg.N
	}
	return t, n
}

// ShareObjectName returns the provider object name under which share
// `index` of the given chunk is stored at privacy level t, following the
// client's addressing mode: content-addressed names in dedup mode,
// key-derived names otherwise.
func (c *Client) ShareObjectName(chunkID string, index, t int) string {
	if c.cfg.DedupMode && c.conv != nil {
		return casShareName(c.conv.Tag(chunkID), index, t)
	}
	return c.shareName(chunkID, index, t)
}

// RefToken exposes the user-scoped reference token this client stamps on
// content-addressed share objects (for oracles auditing provider refcounts).
func (c *Client) RefToken() string { return c.refToken() }

// MetaShareObjectName returns the provider object name this client writes
// one metadata share of the given version of a file under.
func (c *Client) MetaShareObjectName(fileName, versionID string, index int) string {
	return metaShareName(c.metaRecordKey(fileName, versionID), index)
}

// Tree exposes the local metadata tree (read-mostly; used by the CLI and
// experiments).
func (c *Client) Tree() *metadata.Tree { return c.tree }

// ChunkTable exposes the local global-chunk-table replica.
func (c *Client) ChunkTable() *metadata.ChunkTable { return c.table }

// Observer exposes the configured observability hook (nil when disabled);
// tools like `cyrusctl stats` read the scoreboard and registry through it.
func (c *Client) Observer() *obs.Observer { return c.obs }

// Engine exposes the transfer engine (for tests asserting on its caps).
func (c *Client) Engine() *transfer.Engine { return c.engine }

// acctAdd accounts n data-plane payload bytes as resident, updating the
// high-water mark and the pipeline buffer gauges.
func (c *Client) acctAdd(n int64) {
	if n <= 0 {
		return
	}
	cur := c.bufCur.Add(n)
	peak := c.bufPeak.Load()
	for cur > peak && !c.bufPeak.CompareAndSwap(peak, cur) {
		peak = c.bufPeak.Load()
	}
	if cur > peak {
		peak = cur
	}
	c.obs.PipelineBufferBytes(cur, peak)
}

// acctSub releases n previously accounted bytes.
func (c *Client) acctSub(n int64) {
	if n <= 0 {
		return
	}
	cur := c.bufCur.Add(-n)
	c.obs.PipelineBufferBytes(cur, c.bufPeak.Load())
}

// BufferBytes reports the accounted data-plane payload bytes currently
// resident and the high-water mark since construction (or the last
// ResetBufferPeak). The streaming pipeline accounts each plaintext chunk
// buffer for exactly its residency window; the batch Put/Get wrappers
// additionally account their whole-file buffers — so the gap between the
// two paths' peaks is the memory the pipeline saves.
func (c *Client) BufferBytes() (cur, peak int64) {
	return c.bufCur.Load(), c.bufPeak.Load()
}

// ResetBufferPeak rearms the high-water mark (for per-phase measurements).
func (c *Client) ResetBufferPeak() {
	c.bufPeak.Store(c.bufCur.Load())
}

// PipelineDepth reports the effective streaming-window depth (the
// configured Config.PipelineDepth, or the default when unset).
func (c *Client) PipelineDepth() int { return c.cfg.PipelineDepth }

// hedgeAfter predicts how long a share download from the given provider
// should take — the scoreboard's request-latency EWMA plus the payload
// over the estimated downlink — and converts it into the engine's
// load-adaptive hedge trigger delay (which may withhold the hedge
// entirely: cold provider, or load past the Ghosh crossover). Without an
// Observer there is no latency EWMA, so hedging is off (0) and gathers
// fall back to plain sequential failover; the obs-less latency
// experiments are bit-identical to the pre-engine code path.
func (c *Client) hedgeAfter(ctx context.Context, cspName string, bytes int64) time.Duration {
	if c.obs == nil {
		return 0
	}
	expected := c.obs.Health().Latency(cspName)
	if expected <= 0 {
		return 0
	}
	if bw := c.bw.estimate(cspName); bw > 0 && bytes > 0 {
		expected += time.Duration(float64(bytes) / bw * float64(time.Second))
	}
	return c.engine.HedgeAfter(ctx, cspName, expected)
}

// Subscribe registers an event handler (asynchronous transfer events,
// paper §5.3). Handlers must be fast and must not call back into the
// client.
func (c *Client) Subscribe(fn func(Event)) { c.events.subscribe(fn) }

// recordResult is the single sink for provider-contact outcomes: every
// upload, download, list, and delete lands here with its payload size and
// elapsed time (on the runtime clock). Successes feed the failure
// estimator, the bandwidth estimator (downloads the downlink estimate the
// selector consumes, uploads the uplink estimate), and the observability
// scoreboard; failures feed the estimator's outage tracking and the same
// scoreboard — so selector inputs and the health view agree on one data
// path. op is one of the op* constants in observe.go.
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
		switch op {
		case opDownload:
			c.bw.observe(name, bytes, elapsed)
		case opUpload:
			c.bw.observeUp(name, bytes, elapsed)
		}
		c.obs.CSPRequest(name, nil, elapsed)
		if c.obs != nil {
			c.obs.CSPBandwidth(name, c.bw.estimate(name), c.bw.estimateUp(name))
		}
		return
	}
	c.obs.CSPRequest(name, err, elapsed)
	if errors.Is(err, csp.ErrUnavailable) {
		if down, changed := c.est.RecordFailure(name, now); down && changed {
			c.logf("provider marked failed", "csp", name)
			c.obs.CSPDownState(name, true)
		}
	}
}

// logf emits one structured log line when logging is configured.
func (c *Client) logf(msg string, args ...any) {
	if c.log != nil {
		c.log.Info(msg, args...)
	}
}
