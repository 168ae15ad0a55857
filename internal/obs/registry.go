// Package obs is CYRUS's dependency-free observability subsystem: a
// concurrent metrics registry (counters, gauges, fixed-bucket histograms)
// with Prometheus text-format and expvar export, lightweight span tracing
// driven by the client's vclock.Runtime clock (so netsim virtual-time runs
// trace correctly), and a flight recorder with SLO burn counters.
//
// The package deliberately depends on nothing outside the standard
// library: internal/core feeds it, internal/resthttp serves it, and the
// chaos harness snapshots it, so it must sit below all of them in the
// import graph.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric names exported by the core wiring. Labels follow one convention
// throughout: `csp` is a provider name, `op` is a lowercase operation
// identifier, `result` is "ok" or "error".
const (
	MetricOpDuration         = "cyrus_op_duration_seconds"
	MetricSpanDuration       = "cyrus_span_duration_seconds"
	MetricCSPRequestDuration = "cyrus_csp_request_duration_seconds"
	MetricCSPDown            = "cyrus_csp_down"
	MetricCSPBandwidth       = "cyrus_csp_bandwidth_bytes_per_second"
	MetricCSPLatencyEWMA     = "cyrus_csp_latency_ewma_seconds"
	MetricTransferBytes      = "cyrus_transfer_bytes_total"
	MetricSelectorPicks      = "cyrus_selector_picks_total"
	MetricHTTPDuration       = "cyrus_http_request_duration_seconds"

	// Transfer-engine instrumentation (internal/transfer).
	MetricTransferInFlight   = "cyrus_transfer_inflight"
	MetricTransferQueueDepth = "cyrus_transfer_queue_depth"
	MetricTransferRetries    = "cyrus_transfer_retries_total"
	MetricTransferHedges     = "cyrus_transfer_hedges_total"

	// Codec fast-path instrumentation (core's CPU worker pool).
	MetricCodecEncodeBytes = "cyrus_codec_encode_bytes_total"
	MetricCodecDecodeBytes = "cyrus_codec_decode_bytes_total"
	MetricCodecChunkBytes  = "cyrus_codec_chunk_bytes_total"
	MetricCodecBusy        = "cyrus_codec_busy"

	// Streaming-pipeline instrumentation (core's windowed Put/Get path).
	MetricPipelineInflight    = "cyrus_pipeline_inflight_chunks"
	MetricPipelineStalls      = "cyrus_pipeline_stalls_total"
	MetricPipelineBufferBytes = "cyrus_pipeline_buffer_bytes"

	// Convergent-dedup instrumentation (core's content-addressed upload
	// path): a hit is a share the provider already held (probe only, no
	// payload), a miss is a share that had to be stored.
	MetricDedupHits       = "cyrus_dedup_hits_total"
	MetricDedupMisses     = "cyrus_dedup_misses_total"
	MetricDedupBytesSaved = "cyrus_dedup_bytes_saved_total"

	// Metadata-plane instrumentation (core's version-aware record cache
	// and sharded placement).
	MetricMetaCacheHits          = "cyrus_metacache_hits_total"
	MetricMetaCacheMisses        = "cyrus_metacache_misses_total"
	MetricMetaCacheEvictions     = "cyrus_metacache_evictions_total"
	MetricMetaCacheInvalidations = "cyrus_metacache_invalidations_total"
	MetricMetaBatchFetches       = "cyrus_metashard_batch_fetches_total"

	// SLO tracking (obs/slo.go): per-op burn counters against the
	// configured latency objectives.
	MetricSLOOK     = "cyrus_slo_ok_total"
	MetricSLOBreach = "cyrus_slo_breach_total"

	// Flight recorder (obs/recorder.go).
	MetricFlightTriggers = "cyrus_flight_triggers_total"

	// Load-adaptive redundancy scheduling (internal/transfer): hedge
	// suppression and win/loss accounting for the adaptive controller,
	// plus the bytes gather losers completed too late (cancelled-byte waste).
	MetricHedgeSuppressed    = "cyrus_hedge_suppressed_total"
	MetricHedgeWins          = "cyrus_hedge_wins_total"
	MetricHedgeLosses        = "cyrus_hedge_losses_total"
	MetricRaceCancelledBytes = "cyrus_race_cancelled_bytes_total"

	// Storage classes and lifecycle migration (internal/policy +
	// internal/lifecycle): per-class usage gauges refreshed from the live
	// head set, and the demotion passes' progress counters. The `class`
	// label is the class name, "default" for the implicit class.
	MetricClassBytes          = "cyrus_class_bytes"
	MetricClassObjects        = "cyrus_class_objects"
	MetricLifecycleMigrations = "cyrus_lifecycle_migrations_total"
	MetricLifecycleBytes      = "cyrus_lifecycle_migrated_bytes_total"
	MetricLifecycleFailures   = "cyrus_lifecycle_failures_total"
)

// DefBuckets are the default histogram bucket upper bounds, in seconds.
// The sub-millisecond bounds exist for netsim experiments, where simulated
// stores complete in tens to hundreds of microseconds and coarser buckets
// collapse every sample into the first bound, flattening p50/p99; the top
// end still covers multi-second WAN transfers.
var DefBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// labelSep joins label values into child-map keys. It cannot occur in
// provider or operation names.
const labelSep = "\x1f"

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry holds metric families. All methods are safe for concurrent use;
// instrument handles (Counter, Gauge, Histogram) are cheap to retain and
// update lock-free or under a per-family mutex.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]any // label-value key -> *Counter | *Gauge | *Histogram
}

// familyFor returns (creating if needed) the named family, enforcing that
// repeated registrations agree on type, label arity, and (for histograms)
// bucket bounds — a mismatch is a programming error and panics loudly;
// silently returning the first family would have callers observe into
// bounds they didn't ask for.
func (r *Registry) familyFor(name, help string, typ metricType, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v", name, typ, labels, f.typ, f.labels))
		}
		if !slices.Equal(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with buckets %v, was %v", name, buckets, f.buckets))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...), children: make(map[string]any)}
	r.families[name] = f
	return f
}

// child returns the instrument for one label-value combination.
func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := make()
	f.children[key] = c
	return c
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; negative deltas are ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

// Histogram is a fixed-bucket distribution of float64 observations.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, ascending
	counts  []uint64  // one per bucket, cumulative on export
	sum     float64
	count   uint64
}

// Observe folds one observation into the histogram.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.count++
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
	// Beyond the last bound: only the implicit +Inf bucket (== count).
}

// stats returns a consistent copy of the histogram state.
func (h *Histogram) stats() (counts []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...), h.sum, h.count
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *family }

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct{ f *family }

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ f *family }

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.familyFor(name, help, typeCounter, nil, labelNames)}
}

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.familyFor(name, help, typeGauge, nil, labelNames)}
}

// Histogram registers (or fetches) a histogram family with the given bucket
// upper bounds (DefBuckets when nil).
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return &HistogramVec{r.familyFor(name, help, typeHistogram, buckets, labelNames)}
}

// With returns the counter for the given label values (in declaration
// order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.child(values, func() any {
		return &Histogram{buckets: f.buckets, counts: make([]uint64, len(f.buckets))}
	}).(*Histogram)
}

// ---------------------------------------------------------------------------
// Export: Prometheus text format, JSON snapshot, expvar.

// sortedFamilies returns the families sorted by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren returns one family's (label-values, instrument) pairs
// sorted by label values.
func (f *family) sortedChildren() (keys []string, children []any) {
	f.mu.Lock()
	keys = make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children = make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()
	return keys, children
}

// escapeLabel escapes a label value per the Prometheus exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelString renders {k="v",...} for the family's labels plus extras
// (extras are appended verbatim, used for the histogram `le` label).
func labelString(names []string, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders the whole registry in the Prometheus text
// exposition format (version 0.0.4). Output is deterministic: families
// sorted by name, children by label values.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.sortedFamilies() {
		keys, children := f.sortedChildren()
		if len(keys) == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for i, key := range keys {
			values := splitKey(key, len(f.labels))
			switch c := children[i].(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, values, ""), c.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, values, ""), formatFloat(c.Value()))
			case *Histogram:
				counts, sum, count := c.stats()
				var cum uint64
				for bi, ub := range f.buckets {
					cum += counts[bi]
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						labelString(f.labels, values, fmt.Sprintf(`le=%q`, formatFloat(ub))), cum)
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, `le="+Inf"`), count)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, values, ""), formatFloat(sum))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, values, ""), count)
			}
		}
	}
}

func splitKey(key string, n int) []string {
	if n == 0 {
		return nil
	}
	return strings.SplitN(key, labelSep, n)
}

// Handler returns an http.Handler serving WritePrometheus — the /metrics
// endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// MetricPoint is one (family, label set) sample in a snapshot.
type MetricPoint struct {
	Name    string            `json:"name"`
	Type    string            `json:"type"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Count   uint64            `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Buckets []Bucket          `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time JSON-serializable copy of a registry. The
// chaos harness attaches one to every run report so scenario metrics are
// machine-comparable across commits.
type Snapshot struct {
	Metrics []MetricPoint `json:"metrics"`
}

// Snapshot captures every sample, deterministically ordered.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	for _, f := range r.sortedFamilies() {
		keys, children := f.sortedChildren()
		for i, key := range keys {
			values := splitKey(key, len(f.labels))
			p := MetricPoint{Name: f.name, Type: f.typ.String()}
			if len(f.labels) > 0 {
				p.Labels = make(map[string]string, len(f.labels))
				for li, ln := range f.labels {
					p.Labels[ln] = values[li]
				}
			}
			switch c := children[i].(type) {
			case *Counter:
				p.Value = float64(c.Value())
			case *Gauge:
				p.Value = c.Value()
			case *Histogram:
				counts, sum, count := c.stats()
				p.Sum, p.Count = sum, count
				var cum uint64
				for bi, ub := range f.buckets {
					cum += counts[bi]
					p.Buckets = append(p.Buckets, Bucket{LE: ub, Count: cum})
				}
			}
			s.Metrics = append(s.Metrics, p)
		}
	}
	return s
}

// Find returns the first sample matching name and the given label subset.
func (s Snapshot) Find(name string, labels map[string]string) (MetricPoint, bool) {
	for _, p := range s.Metrics {
		if p.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if p.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return p, true
		}
	}
	return MetricPoint{}, false
}

// PublishExpvar exposes the registry under the given expvar name (the
// standard /debug/vars endpoint). Publishing is idempotent per name; if
// another registry already claimed the name, this call is a no-op (expvar
// panics on duplicates, and tests build many registries).
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// floatBits/bitsFloat pack float64 gauges into an atomic.Uint64.
func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
