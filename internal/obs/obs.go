package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Observer bundles the observability pieces — metrics registry, span
// tracer state, flight recorder and SLO tracker — behind nil-safe methods,
// so core.Client instruments unconditionally and a nil Observer costs one
// pointer comparison per call site. It only records: nothing the client
// decides reads it back.
//
// One Observer may be shared by several clients (the chaos harness runs
// all its clients against one, producing a single aggregate snapshot per
// scenario). The clock is settable because durations must follow the
// client's vclock.Runtime: core.New points it at the runtime's Now, so
// netsim virtual-time runs record virtual durations.
type Observer struct {
	reg *Registry

	clockMu sync.RWMutex
	clock   func() time.Time

	nextSpanID atomic.Uint64
	openSpans  openSpanTable
	started    time.Time

	// Deep-diagnosis layer: flight recorder and SLO tracker.
	rec *FlightRecorder
	slo *sloTracker

	// Pre-registered instrument families (see the Metric* constants).
	opDur     *HistogramVec
	spanDur   *HistogramVec
	cspReqDur *HistogramVec
	cspDown   *GaugeVec
	cspBw     *GaugeVec
	cspLat    *GaugeVec
	xferBytes *CounterVec
	selPicks  *CounterVec

	// Transfer-engine instrument families (internal/transfer).
	xferInFlight *GaugeVec
	xferQueue    *GaugeVec
	xferRetries  *CounterVec
	xferHedges   *CounterVec

	// Load-adaptive redundancy scheduling (internal/transfer): hedge
	// suppression + adaptive-controller outcomes, and gather-loser waste.
	hedgeSuppressed *CounterVec
	hedgeWins       *CounterVec
	hedgeLosses     *CounterVec
	raceCancelled   *CounterVec

	// Codec fast-path instrument families (core's CPU worker pool).
	codecEncode *CounterVec
	codecDecode *CounterVec
	codecChunk  *CounterVec
	codecBusy   *GaugeVec

	// Streaming-pipeline instrument families (core's windowed Put/Get).
	pipeInflight *GaugeVec
	pipeStalls   *CounterVec
	pipeBufBytes *GaugeVec

	// Convergent-dedup instrument families (core's CAS upload path).
	dedupHits       *CounterVec
	dedupMisses     *CounterVec
	dedupBytesSaved *CounterVec

	// Metadata-plane instrument families (core's record cache and sharded
	// placement).
	metaCacheHits    *CounterVec
	metaCacheMisses  *CounterVec
	metaCacheEvicts  *CounterVec
	metaCacheInvalid *CounterVec
	metaBatchFetches *CounterVec

	// Storage-class and lifecycle-migration instrument families
	// (internal/policy + internal/lifecycle).
	classBytes   *GaugeVec
	classObjects *GaugeVec
	lcMigrations *CounterVec
	lcBytes      *CounterVec
	lcFailures   *CounterVec
}

// Options tunes an Observer beyond the defaults. The zero value is valid
// and equivalent to NewObserver().
type Options struct {
	// SLOObjectives merges per-op latency objectives over
	// DefaultSLOObjectives (positive sets, negative removes, zero skips).
	SLOObjectives map[string]time.Duration
	// Recorder tunes the flight recorder (ring capacity, trigger
	// thresholds, dump retention).
	Recorder RecorderConfig
}

// NewObserver builds an Observer with a fresh registry and the real clock
// (core.New re-points the clock at the client's runtime).
func NewObserver() *Observer {
	return NewObserverWith(Options{})
}

// NewObserverWith builds an Observer with the given options.
func NewObserverWith(opts Options) *Observer {
	reg := NewRegistry()
	o := &Observer{
		reg:     reg,
		clock:   time.Now,
		started: time.Now(),

		opDur:     reg.Histogram(MetricOpDuration, "Client operation latency by op and result; _count is the op count.", nil, "op", "result"),
		spanDur:   reg.Histogram(MetricSpanDuration, "Child span durations by span name (op spans are in the op histogram).", nil, "span"),
		cspReqDur: reg.Histogram(MetricCSPRequestDuration, "Provider request latency by csp and result; _count is the request count.", nil, "csp", "result"),
		cspDown:   reg.Gauge(MetricCSPDown, "1 while the failure estimator counts the csp as failed.", "csp"),
		cspBw:     reg.Gauge(MetricCSPBandwidth, "Estimated link bandwidth by csp and direction.", "csp", "dir"),
		cspLat:    reg.Gauge(MetricCSPLatencyEWMA, "The client's request-latency EWMA by csp, the hedge deadline's base.", "csp"),
		xferBytes: reg.Counter(MetricTransferBytes, "Payload bytes moved by csp and direction.", "csp", "dir"),
		selPicks:  reg.Counter(MetricSelectorPicks, "Download-source selector decisions by csp.", "csp"),

		xferInFlight: reg.Gauge(MetricTransferInFlight, "Transfer-engine attempts currently in flight by csp.", "csp"),
		xferQueue:    reg.Gauge(MetricTransferQueueDepth, "Attempts waiting for an in-flight slot."),
		xferRetries:  reg.Counter(MetricTransferRetries, "Transfer-engine retries by csp and kind.", "csp", "kind"),
		xferHedges:   reg.Counter(MetricTransferHedges, "Hedged-download backup lanes launched."),

		hedgeSuppressed: reg.Counter(MetricHedgeSuppressed, "Hedges withheld by the load-adaptive controller, by csp and reason (cold, load).", "csp", "reason"),
		hedgeWins:       reg.Counter(MetricHedgeWins, "Hedged gathers where the backup lane won, by primary csp.", "csp"),
		hedgeLosses:     reg.Counter(MetricHedgeLosses, "Hedged gathers where the backup launched but the primary won, by primary csp.", "csp"),
		raceCancelled:   reg.Counter(MetricRaceCancelledBytes, "Payload bytes any gather loser completed after the gather resolved, by csp.", "csp"),

		codecEncode: reg.Counter(MetricCodecEncodeBytes, "Chunk bytes erasure-encoded by the codec pool."),
		codecDecode: reg.Counter(MetricCodecDecodeBytes, "Chunk bytes erasure-decoded by the codec pool."),
		codecChunk:  reg.Counter(MetricCodecChunkBytes, "File bytes chunk-hashed by the codec pool."),
		codecBusy:   reg.Gauge(MetricCodecBusy, "Codec-pool workers currently running a CPU job."),

		pipeInflight: reg.Gauge(MetricPipelineInflight, "Chunks resident in the streaming Put/Get window by direction.", "dir"),
		pipeStalls:   reg.Counter(MetricPipelineStalls, "Times the streaming pipeline blocked on a full window by direction.", "dir"),
		pipeBufBytes: reg.Gauge(MetricPipelineBufferBytes, "Accounted data-plane payload bytes currently resident."),

		dedupHits:       reg.Counter(MetricDedupHits, "Share uploads avoided because the csp already held the object.", "csp"),
		dedupMisses:     reg.Counter(MetricDedupMisses, "Content-addressed shares actually stored by csp.", "csp"),
		dedupBytesSaved: reg.Counter(MetricDedupBytesSaved, "Share payload bytes not uploaded thanks to dedup, by csp.", "csp"),

		metaCacheHits:    reg.Counter(MetricMetaCacheHits, "Metadata record reads served from the client cache."),
		metaCacheMisses:  reg.Counter(MetricMetaCacheMisses, "Metadata record reads that had to decode or fetch."),
		metaCacheEvicts:  reg.Counter(MetricMetaCacheEvictions, "Metadata cache entries evicted by the LRU bound."),
		metaCacheInvalid: reg.Counter(MetricMetaCacheInvalidations, "Metadata cache entries invalidated by sync, supersede, or delete."),
		metaBatchFetches: reg.Counter(MetricMetaBatchFetches, "Batched metadata fetches by csp (one counts a whole batch round trip).", "csp"),

		classBytes:   reg.Gauge(MetricClassBytes, "Logical bytes of live file heads by storage class.", "class"),
		classObjects: reg.Gauge(MetricClassObjects, "Live file heads by storage class.", "class"),
		lcMigrations: reg.Counter(MetricLifecycleMigrations, "Lifecycle demotions completed (new placement at quorum)."),
		lcBytes:      reg.Counter(MetricLifecycleBytes, "Logical bytes re-encoded by completed lifecycle demotions."),
		lcFailures:   reg.Counter(MetricLifecycleFailures, "Lifecycle demotions whose re-encode failed; the next pass finds them again."),
	}
	o.rec = newFlightRecorder(o, opts.Recorder)
	o.slo = newSLOTracker(reg, opts.SLOObjectives)
	return o
}

// FlightDump forces a flight-recorder dump now. reasonClass should be one
// of the Trigger* constants (TriggerManual for API/CLI callers,
// TriggerInvariant for the harness); detail is free-form context appended
// to the dump reason. Nil-safe.
func (o *Observer) FlightDump(reasonClass, detail string) FlightDump {
	if o == nil {
		return FlightDump{}
	}
	return o.rec.Dump(reasonClass, detail)
}

// FlightDumps returns the retained flight-recorder dumps, oldest first.
// Nil-safe.
func (o *Observer) FlightDumps() []FlightDump {
	if o == nil {
		return nil
	}
	return o.rec.Dumps()
}

// FlightEvents returns the flight recorder's current event ring, oldest
// first. Nil-safe.
func (o *Observer) FlightEvents() []FlightEvent {
	if o == nil {
		return nil
	}
	return o.rec.Events()
}

// Registry returns the underlying metrics registry (nil for a nil
// Observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// SetClock re-points duration measurement at the given clock (the client's
// vclock.Runtime Now). Nil-safe; a nil fn is ignored.
func (o *Observer) SetClock(fn func() time.Time) {
	if o == nil || fn == nil {
		return
	}
	o.clockMu.Lock()
	o.clock = fn
	o.started = fn()
	o.clockMu.Unlock()
}

// now reads the configured clock.
func (o *Observer) now() time.Time {
	o.clockMu.RLock()
	fn := o.clock
	o.clockMu.RUnlock()
	return fn()
}

// Now exposes the observer's clock (for callers stamping snapshots).
func (o *Observer) Now() time.Time {
	if o == nil {
		return time.Time{}
	}
	return o.now()
}

// CSPRequest records one provider contact in the request histogram, by
// result (core.recordResult). Nil-safe.
func (o *Observer) CSPRequest(cspName string, err error, elapsed time.Duration) {
	if o == nil || cspName == "" {
		return
	}
	o.cspReqDur.With(cspName, resultLabel(err)).Observe(elapsed.Seconds())
}

// CSPDownState records a marked-down transition of the failure estimator.
// Nil-safe.
func (o *Observer) CSPDownState(cspName string, down bool) {
	if o == nil || cspName == "" {
		return
	}
	v := 0.0
	if down {
		v = 1
	}
	o.cspDown.With(cspName).Set(v)
	o.rec.cspTransition(cspName, down)
}

// CSPLink records the client's current link model for one provider:
// bandwidth in bytes/second and the request-latency EWMA in seconds (zero
// values mean unknown and leave the gauge alone). Nil-safe.
func (o *Observer) CSPLink(cspName string, downBps, upBps, latencySeconds float64) {
	if o == nil || cspName == "" {
		return
	}
	if downBps > 0 {
		o.cspBw.With(cspName, "down").Set(downBps)
	}
	if upBps > 0 {
		o.cspBw.With(cspName, "up").Set(upBps)
	}
	if latencySeconds > 0 {
		o.cspLat.With(cspName).Set(latencySeconds)
	}
}

// TransferBytes adds the payload of one successful provider try to the
// per-direction byte counter (core.recordResult). dir is "up" or "down";
// "" (a list, a delete) records nothing. Nil-safe.
func (o *Observer) TransferBytes(cspName, dir string, bytes int64) {
	if o == nil || cspName == "" || dir == "" || bytes <= 0 {
		return
	}
	o.xferBytes.With(cspName, dir).Add(bytes)
}

// TransferInFlight records a provider's current in-flight attempt count
// (the transfer engine's per-CSP gauge). Nil-safe.
func (o *Observer) TransferInFlight(cspName string, n int) {
	if o == nil || cspName == "" {
		return
	}
	o.xferInFlight.With(cspName).Set(float64(n))
}

// TransferQueueDepth records how many attempts are parked waiting for an
// in-flight slot. Nil-safe.
func (o *Observer) TransferQueueDepth(n int) {
	if o == nil {
		return
	}
	o.xferQueue.With().Set(float64(n))
}

// AttemptStart records one transfer-engine attempt starting against a
// provider in the flight recorder, stamped with the span/trace the context
// carries. try is 0 for the first attempt. Nil-safe.
func (o *Observer) AttemptStart(ctx context.Context, cspName, kind string, try int) {
	if o == nil || cspName == "" {
		return
	}
	span, trace, op := SpanFromContext(ctx)
	o.rec.record(FlightEvent{Kind: FlightAttemptStart, Trace: trace, Span: span, Op: op,
		Name: kind, CSP: cspName, Detail: tryDetail(try)})
}

// tryDetails are the attempt records' Detail strings for the tries the
// engine makes, built once instead of twice per try.
var tryDetails = [...]string{"try=0", "try=1", "try=2", "try=3"}

func tryDetail(try int) string {
	if try >= 0 && try < len(tryDetails) {
		return tryDetails[try]
	}
	return "try=" + strconv.Itoa(try)
}

// AttemptEnd records one transfer-engine attempt finishing. Nil-safe.
func (o *Observer) AttemptEnd(ctx context.Context, cspName, kind string, try int, bytes int64, elapsed time.Duration, err error) {
	if o == nil || cspName == "" {
		return
	}
	span, trace, op := SpanFromContext(ctx)
	ev := FlightEvent{Kind: FlightAttemptEnd, Trace: trace, Span: span, Op: op,
		Name: kind, CSP: cspName, Detail: tryDetail(try), Bytes: bytes, Duration: elapsed}
	if err != nil {
		ev.Err = err.Error()
	}
	o.rec.record(ev)
}

// TransferRetry counts one transfer-engine retry and records it in the
// flight recorder. Nil-safe.
func (o *Observer) TransferRetry(ctx context.Context, cspName, kind string) {
	if o == nil || cspName == "" {
		return
	}
	o.xferRetries.With(cspName, kind).Inc()
	span, trace, op := SpanFromContext(ctx)
	o.rec.record(FlightEvent{Kind: FlightRetry, Trace: trace, Span: span, Op: op, Name: kind, CSP: cspName})
}

// TransferHedge counts one hedged-download backup lane launching and
// records it in the flight recorder; HedgeOutcome records how it resolved.
// Nil-safe.
func (o *Observer) TransferHedge(ctx context.Context) {
	if o == nil {
		return
	}
	o.xferHedges.With().Inc()
	span, trace, op := SpanFromContext(ctx)
	o.rec.record(FlightEvent{Kind: FlightHedgeLaunch, Trace: trace, Span: span, Op: op})
}

// HedgeSuppressed counts one hedge the load-adaptive controller withheld.
// reason is "cold" (provider not yet armed by enough latency samples) or
// "load" (the Ghosh crossover: the engine's admission queue past the
// utilization threshold). Nil-safe.
func (o *Observer) HedgeSuppressed(ctx context.Context, cspName, reason string) {
	if o == nil || cspName == "" {
		return
	}
	o.hedgeSuppressed.With(cspName, reason).Inc()
	span, trace, op := SpanFromContext(ctx)
	o.rec.record(FlightEvent{Kind: FlightHedgeDrop, Trace: trace, Span: span, Op: op, CSP: cspName, Detail: reason})
}

// HedgeOutcome records the resolution of a hedged gather whose backup lane
// actually launched: win means the backup beat the primary, loss means the
// redundant request was wasted. Attribution is to the primary provider the
// hedge deadline was computed for — the adaptive controller tunes that
// provider's effective hedge multiple from this signal. Nil-safe.
func (o *Observer) HedgeOutcome(ctx context.Context, cspName string, win bool) {
	if o == nil || cspName == "" {
		return
	}
	kind := FlightHedgeLoss
	if win {
		kind = FlightHedgeWin
		o.hedgeWins.With(cspName).Inc()
	} else {
		o.hedgeLosses.With(cspName).Inc()
	}
	span, trace, op := SpanFromContext(ctx)
	o.rec.record(FlightEvent{Kind: kind, Trace: trace, Span: span, Op: op, CSP: cspName})
}

// RaceCancelledBytes accounts payload bytes a gather loser completed
// after the gather had already resolved — pure redundancy waste (netsim and
// real providers both finish transfers that cancellation could not reach).
// Nil-safe.
func (o *Observer) RaceCancelledBytes(ctx context.Context, cspName string, bytes int64) {
	if o == nil || cspName == "" || bytes <= 0 {
		return
	}
	o.raceCancelled.With(cspName).Add(bytes)
	span, trace, op := SpanFromContext(ctx)
	o.rec.record(FlightEvent{Kind: FlightRaceCancel, Trace: trace, Span: span, Op: op, CSP: cspName, Bytes: bytes})
}

// CodecWork counts bytes processed by one finished codec-pool job. kind is
// "encode", "decode", or "chunk". Nil-safe.
func (o *Observer) CodecWork(kind string, bytes int64) {
	if o == nil || bytes <= 0 {
		return
	}
	switch kind {
	case "encode":
		o.codecEncode.With().Add(bytes)
	case "decode":
		o.codecDecode.With().Add(bytes)
	case "chunk":
		o.codecChunk.With().Add(bytes)
	}
}

// CodecBusy records how many codec-pool workers are currently running a CPU
// job. Nil-safe.
func (o *Observer) CodecBusy(n int) {
	if o == nil {
		return
	}
	o.codecBusy.With().Set(float64(n))
}

// PipelineInflight records how many chunks the streaming pipeline currently
// holds resident for one direction ("put" or "get"). Nil-safe.
func (o *Observer) PipelineInflight(dir string, n int) {
	if o == nil || dir == "" {
		return
	}
	o.pipeInflight.With(dir).Set(float64(n))
}

// PipelineStall counts one scan/write-loop block on a full pipeline window
// for the given direction and records it in the flight recorder. Nil-safe.
func (o *Observer) PipelineStall(ctx context.Context, dir string) {
	if o == nil || dir == "" {
		return
	}
	o.pipeStalls.With(dir).Inc()
	span, trace, op := SpanFromContext(ctx)
	o.rec.record(FlightEvent{Kind: FlightStall, Trace: trace, Span: span, Op: op, Detail: dir})
}

// PipelineBufferBytes records the accounted data-plane payload bytes
// currently resident (Client.BufferBytes holds the high-water mark).
// Nil-safe.
func (o *Observer) PipelineBufferBytes(cur int64) {
	if o == nil {
		return
	}
	o.pipeBufBytes.With().Set(float64(cur))
}

// Note records one FlightNote event: a repair, compaction or skipped sweep
// the client decided on by itself. Nil-safe.
func (o *Observer) Note(ctx context.Context, name, detail string) {
	if o == nil {
		return
	}
	span, trace, op := SpanFromContext(ctx)
	o.rec.record(FlightEvent{Kind: FlightNote, Trace: trace, Span: span, Op: op, Name: name, Detail: detail})
}

// SelectorPick counts one chunk-download source decision per chosen csp,
// making selector skew visible without instrumenting the solver itself.
// Nil-safe.
func (o *Observer) SelectorPick(cspName string) {
	if o == nil || cspName == "" {
		return
	}
	o.selPicks.With(cspName).Inc()
}

// MetricsHandler serves the Prometheus exposition of the registry.
// Nil-safe: a nil Observer serves 404.
func (o *Observer) MetricsHandler() http.Handler {
	if o == nil {
		return http.NotFoundHandler()
	}
	return o.reg.Handler()
}

// healthzBody is the /healthz JSON shape.
type healthzBody struct {
	Status        string  `json:"status"` // "ok" or "degraded"
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// HealthzHandler serves liveness as JSON: 200 with status "ok" while no
// cyrus_csp_down gauge reads 1, "degraded" otherwise (still 200 — the
// process itself is healthy; per-CSP state is payload, not liveness).
func (o *Observer) HealthzHandler() http.Handler {
	if o == nil {
		return http.NotFoundHandler()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		o.clockMu.RLock()
		started := o.started
		o.clockMu.RUnlock()
		body := healthzBody{Status: "ok", UptimeSeconds: o.now().Sub(started).Seconds()}
		_, children := o.cspDown.f.sortedChildren()
		for _, g := range children {
			if g.(*Gauge).Value() == 1 {
				body.Status = "degraded"
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(body)
	})
}

// flightBody is the /debug/flightrecorder JSON shape.
type flightBody struct {
	Dumps     []FlightDump  `json:"dumps"`
	Events    []FlightEvent `json:"events"`
	OpenSpans []SpanRecord  `json:"open_spans"`
}

// FlightHandler serves the flight recorder (/debug/flightrecorder): GET
// returns the retained dumps, the live event ring and the pinned open
// spans; POST forces a manual dump and returns it. Nil-safe: a nil
// Observer serves 404.
func (o *Observer) FlightHandler() http.Handler {
	if o == nil {
		return http.NotFoundHandler()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodPost {
			d := o.FlightDump(TriggerManual, "http")
			_ = json.NewEncoder(w).Encode(d)
			return
		}
		_ = json.NewEncoder(w).Encode(flightBody{
			Dumps:     o.FlightDumps(),
			Events:    o.FlightEvents(),
			OpenSpans: o.OpenSpans(),
		})
	})
}

// DedupHit records one content-addressed share the provider already held:
// the existence probe sufficed and bytesSaved share payload bytes were
// never uploaded. Nil-safe.
func (o *Observer) DedupHit(cspName string, bytesSaved int64) {
	if o == nil || cspName == "" {
		return
	}
	o.dedupHits.With(cspName).Inc()
	if bytesSaved > 0 {
		o.dedupBytesSaved.With(cspName).Add(bytesSaved)
	}
}

// DedupMiss records one content-addressed share that had to be stored.
// Nil-safe.
func (o *Observer) DedupMiss(cspName string) {
	if o == nil || cspName == "" {
		return
	}
	o.dedupMisses.With(cspName).Inc()
}

// MetaCacheHit records one metadata read served from the client's decoded
// record cache. Nil-safe.
func (o *Observer) MetaCacheHit() {
	if o == nil {
		return
	}
	o.metaCacheHits.With().Inc()
}

// MetaCacheMiss records one metadata read the cache could not serve.
// Nil-safe.
func (o *Observer) MetaCacheMiss() {
	if o == nil {
		return
	}
	o.metaCacheMisses.With().Inc()
}

// MetaCacheEvict counts entries pushed out by the cache's entry or byte
// bound. Nil-safe.
func (o *Observer) MetaCacheEvict(n int) {
	if o == nil || n <= 0 {
		return
	}
	o.metaCacheEvicts.With().Add(int64(n))
}

// MetaCacheInvalidate counts entries dropped because sync, supersede, or
// delete made them stale. Nil-safe.
func (o *Observer) MetaCacheInvalidate(n int) {
	if o == nil || n <= 0 {
		return
	}
	o.metaCacheInvalid.With().Add(int64(n))
}

// MetaBatchFetch counts one batched metadata round trip against a provider.
// Nil-safe.
func (o *Observer) MetaBatchFetch(cspName string) {
	if o == nil || cspName == "" {
		return
	}
	o.metaBatchFetches.With(cspName).Inc()
}

// ClassLabel renders a storage-class name as a metric label value: the
// implicit default class ("") surfaces as "default".
func ClassLabel(class string) string {
	if class == "" {
		return "default"
	}
	return class
}

// ClassUsage records one storage class's live usage: the number of live
// (non-deleted) file heads in the class and their logical byte total.
// Refreshed from the version tree after sync/absorb, so gauges track the
// head set, not historic versions. Nil-safe.
func (o *Observer) ClassUsage(class string, objects int, bytes int64) {
	if o == nil {
		return
	}
	o.classObjects.With(ClassLabel(class)).Set(float64(objects))
	o.classBytes.With(ClassLabel(class)).Set(float64(bytes))
}

// LifecycleMigration records one completed demotion: the object's new
// placement reached quorum and the class-bearing version was published.
// bytes is the logical file size re-encoded. Nil-safe.
func (o *Observer) LifecycleMigration(bytes int64) {
	if o == nil {
		return
	}
	o.lcMigrations.With().Inc()
	if bytes > 0 {
		o.lcBytes.With().Add(bytes)
	}
}

// LifecycleFailure records one demotion whose re-encode returned an error;
// the name stays in its source class for the next pass. Nil-safe.
func (o *Observer) LifecycleFailure() {
	if o == nil {
		return
	}
	o.lcFailures.With().Inc()
}
