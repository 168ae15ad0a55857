// Package cyrus is the public API of this CYRUS reproduction: a
// client-defined cloud storage system that aggregates multiple autonomous
// cloud storage providers (CSPs) into one private, reliable, fast logical
// cloud (Chung et al., "CYRUS: Towards Client-Defined Cloud Storage",
// EuroSys 2015).
//
// Files are split into content-defined chunks; every chunk is encoded with
// a non-systematic (t, n) Reed-Solomon code keyed by the user's secret and
// scattered to n providers, at most one per physical cloud platform. No
// single provider can reconstruct any byte (privacy); any n-t providers
// may fail without data loss (reliability); downloads fetch t shares per
// chunk from providers chosen by an optimizer that minimizes completion
// time (latency). Multiple autonomous clients share files through metadata
// that is itself secret-shared across the providers; concurrent updates
// are uploaded without locking and conflicts are detected and resolved
// from the client.
//
// Quick start:
//
//	stores := []cyrus.Store{ ... }      // e.g. cyrus.NewDirStore per provider
//	client, err := cyrus.New(cyrus.Config{
//		ClientID: "laptop",
//		Key:      "correct horse battery staple",
//		T:        2,                     // privacy: 2 CSPs needed to read
//		Epsilon:  1e-4,                  // reliability bound, picks n
//	}, stores)
//	err = client.Put(ctx, "notes.txt", data)
//	data, info, err := client.Get(ctx, "notes.txt")
//
// See the examples/ directory for runnable programs.
package cyrus

import (
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/lifecycle"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/resthttp"
	"repro/internal/syncdir"
	"repro/internal/topology"
)

// Syncer keeps a local directory bidirectionally synced with a CYRUS
// cloud, the way the prototype's "CYRUS folder" worked (paper §5.4):
// local edits are detected by mtime+hash, remote changes through the
// metadata tree, and conflicts are materialized as sibling
// "<name>.conflict-<client>-<version>" copies.
type Syncer = syncdir.Syncer

// SyncAction describes one operation a Syncer.Sync pass performed.
type SyncAction = syncdir.Action

// NewSyncer builds a folder syncer over an existing directory.
func NewSyncer(client *Client, dir string) (*Syncer, error) {
	return syncdir.New(client, dir)
}

// Re-exported core types. Config documents every knob (privacy level T,
// reliability bound Epsilon or explicit N, chunking, platform clusters,
// download selector, runtime).
type (
	// Config tunes a Client; see core.Config for field documentation.
	Config = core.Config
	// Client is a CYRUS endpoint implementing the paper's Table-3 API.
	Client = core.Client
	// FileInfo describes one stored file version.
	FileInfo = core.FileInfo
	// ConflictInfo describes a detected concurrent-update conflict.
	ConflictInfo = core.ConflictInfo
	// Event is an asynchronous transfer notification.
	Event = core.Event
	// GCStats reports what a garbage collection removed.
	GCStats = core.GCStats

	// Observer is the observability bundle (metrics registry, span tracer,
	// CSP health scoreboard). Attach one via Config.Obs; a nil Observer
	// disables all instrumentation.
	Observer = obs.Observer
	// CSPHealth is one provider's scoreboard row.
	CSPHealth = obs.CSPHealth
	// MetricsSnapshot is a point-in-time copy of an Observer's registry.
	MetricsSnapshot = obs.Snapshot
	// ObserverOptions tunes an observer built with NewObserverWith (span
	// ring size, SLO objectives, flight recorder, load telemetry).
	ObserverOptions = obs.Options
	// FlightDump is one flight-recorder snapshot (trigger, event ring,
	// open spans).
	FlightDump = obs.FlightDump
	// FlightEvent is one structured entry in the flight-recorder ring.
	FlightEvent = obs.FlightEvent
	// CSPLoad is one provider's load-telemetry view (current sample plus
	// the retained window).
	CSPLoad = obs.CSPLoad
	// LoadSample is one sampled point of a provider's load vector.
	LoadSample = obs.LoadSample

	// StorageClass is one named storage-class definition: a CSP subset,
	// per-class (t, n) or Epsilon, chunking, tier, and optional lifecycle
	// demotion rule. Configure via Config.Classes (DESIGN.md §13).
	StorageClass = policy.Class
	// ClassRule maps a name-prefix to a storage class (longest prefix
	// wins); configure via Config.ClassRules.
	ClassRule = policy.Rule
	// PutOptions carries per-request write options (e.g. a storage-class
	// override) for Client.PutWith / Client.PutReaderWith.
	PutOptions = core.PutOptions
	// ClassUsage is one class's live object/byte tally from
	// Client.ClassStats.
	ClassUsage = core.ClassUsage
	// LifecycleMigrator demotes idle objects to colder classes in the
	// background; build one with NewLifecycle.
	LifecycleMigrator = lifecycle.Migrator
	// LifecycleConfig tunes a LifecycleMigrator (client, checkpoint state,
	// worker fan-out).
	LifecycleConfig = lifecycle.Config
	// LifecycleJob is one queued demotion.
	LifecycleJob = lifecycle.Job
	// LifecycleState is the migrator's crash-safe checkpoint store; use
	// NewLifecycleFileState for durability across restarts.
	LifecycleState = lifecycle.State

	// Store is the five-call provider interface (authenticate, list,
	// upload, download, delete) CYRUS requires of a CSP.
	Store = csp.Store
	// Credentials authenticates a Store session.
	Credentials = csp.Credentials
	// Profile is a provider descriptor (the paper's Table-2 registry).
	Profile = csp.Profile
)

// Flight-recorder trigger reason classes and the SLO metric names surfaced
// to CLI/tooling consumers.
const (
	FlightTriggerManual    = obs.TriggerManual
	FlightTriggerInvariant = obs.TriggerInvariant
	MetricSLOOK            = obs.MetricSLOOK
	MetricSLOBreach        = obs.MetricSLOBreach
	// Metadata cache counters (hit ratio = hits / (hits + misses)).
	MetricMetaCacheHits   = obs.MetricMetaCacheHits
	MetricMetaCacheMisses = obs.MetricMetaCacheMisses
	// Load-adaptive redundancy counters: hedge suppression and win/loss
	// accounting for the adaptive controller, plus race-read fan-out and
	// cancelled-byte waste.
	MetricHedgeSuppressed    = obs.MetricHedgeSuppressed
	MetricHedgeWins          = obs.MetricHedgeWins
	MetricHedgeLosses        = obs.MetricHedgeLosses
	MetricRaceLaunched       = obs.MetricRaceLaunched
	MetricRaceCancelledBytes = obs.MetricRaceCancelledBytes
	// Storage-class gauges (per-class live objects/bytes, labeled {class})
	// and lifecycle-migrator counters.
	MetricClassBytes          = obs.MetricClassBytes
	MetricClassObjects        = obs.MetricClassObjects
	MetricLifecycleMigrations = obs.MetricLifecycleMigrations
	MetricLifecycleBytes      = obs.MetricLifecycleBytes
	MetricLifecycleFailures   = obs.MetricLifecycleFailures
	MetricLifecycleQueueDepth = obs.MetricLifecycleQueueDepth
)

// Storage-class tiers.
const (
	TierHot  = policy.TierHot
	TierCold = policy.TierCold
)

// Errors a caller is expected to branch on.
var (
	ErrNoSuchFile   = core.ErrNoSuchFile
	ErrFileDeleted  = core.ErrFileDeleted
	ErrNotEnoughCSP = core.ErrNotEnoughCSP
	ErrDamaged      = core.ErrDamaged
)

// New creates a CYRUS cloud over the given providers — the paper's
// s = create() plus add(s, c) for each provider.
func New(cfg Config, stores []Store) (*Client, error) {
	return core.New(cfg, stores)
}

// NewObserver builds an empty observability bundle to pass as Config.Obs
// (and to share with an HTTP server's /metrics endpoint).
func NewObserver() *Observer { return obs.NewObserver() }

// NewObserverWith builds an observability bundle with explicit options
// (flight-recorder tuning, SLO objectives, span-ring and load-window
// sizes).
func NewObserverWith(opts ObserverOptions) *Observer { return obs.NewObserverWith(opts) }

// NewDirStore returns a provider backed by a local directory — the
// simplest way to run a real CYRUS cloud without commercial accounts
// (point each store at a different mount/disk/remote-synced folder).
func NewDirStore(name, root string) (Store, error) {
	return cloudsim.NewDirStore(name, root)
}

// NewMemStore returns an in-memory provider with the given object-identity
// quirk — useful for tests and demos. Capacity 0 means unlimited.
func NewMemStore(name string, capacity int64) Store {
	return cloudsim.NewSimStore(cloudsim.NewBackend(name, csp.NameKeyed, capacity))
}

// NewHTTPStore returns a connector for a provider speaking the resthttp
// protocol (run one with cmd/cyruscsp, or implement the five endpoints on
// any real service).
func NewHTTPStore(name, baseURL string) Store {
	return resthttp.NewStore(name, baseURL, nil)
}

// Providers returns the built-in Table-2 provider registry.
func Providers() []Profile { return csp.Registry() }

// InferClusters runs the platform-inference pipeline (§4.1) over synthetic
// routes for the named providers, returning provider -> cluster-id in the
// form Config.ClusterOf expects. Providers on shared platforms (per the
// registry) cluster together.
func InferClusters(providerNames []string) (map[string]string, error) {
	prober := &topology.SyntheticProber{PlatformOf: csp.PlatformMap()}
	clusterOf, _, err := topology.InferClusters(prober, providerNames)
	return clusterOf, err
}

// NewLifecycle builds a lifecycle migrator over a class-configured client.
// Call Scan to enqueue idle objects past their class's DemoteAfter age,
// then Run to drain the queue; both are resumable across crashes when the
// config carries a durable state (NewLifecycleFileState).
func NewLifecycle(cfg LifecycleConfig) (*LifecycleMigrator, error) {
	return lifecycle.New(cfg)
}

// NewLifecycleFileState opens (or creates) a crash-safe migrator
// checkpoint file: jobs are persisted before work starts and cleared only
// after the demotion's new placement is fully published.
func NewLifecycleFileState(path string) (LifecycleState, error) {
	return lifecycle.NewFileState(path)
}

// HashData exposes the content hash used for chunk identities (hex SHA-1),
// for callers that want to verify data out of band. It gives chunk identity
// only: the file identity of a new version is a hash of its chunk-ID list,
// not of the content (records written before format v2 carry the content
// hash).
func HashData(data []byte) string { return metadata.HashData(data) }
