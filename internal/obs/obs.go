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

// Observer bundles the three observability pieces — metrics registry, span
// tracer state, and CSP health scoreboard — behind nil-safe methods, so
// core.Client instruments unconditionally and a nil Observer costs one
// pointer comparison per call site.
//
// One Observer may be shared by several clients (the chaos harness runs
// all its clients against one, producing a single aggregate snapshot per
// scenario). The clock is settable because durations must follow the
// client's vclock.Runtime: core.New points it at the runtime's Now, so
// netsim virtual-time runs record virtual durations.
type Observer struct {
	reg    *Registry
	health *Scoreboard

	clockMu sync.RWMutex
	clock   func() time.Time

	nextSpanID atomic.Uint64
	ring       spanRing
	openSpans  openSpanTable
	started    time.Time

	// Deep-diagnosis layer: flight recorder, SLO tracker, load telemetry.
	rec  *FlightRecorder
	slo  *sloTracker
	load *loadTracker

	// Pre-registered instrument families (see the Metric* constants).
	opDur     *HistogramVec
	opsTotal  *CounterVec
	spanDur   *HistogramVec
	cspReq    *CounterVec
	cspReqDur *HistogramVec
	cspDown   *GaugeVec
	cspBw     *GaugeVec
	evTotal   *CounterVec
	xferBytes *CounterVec
	selPicks  *CounterVec

	// Transfer-engine instrument families (internal/transfer).
	xferInFlight *GaugeVec
	xferPeak     *GaugeVec
	xferQueue    *GaugeVec
	xferRetries  *CounterVec
	xferHedges   *CounterVec

	// Load-adaptive redundancy scheduling (internal/transfer): hedge
	// suppression + adaptive-controller outcomes, and race-read waste.
	hedgeSuppressed *CounterVec
	hedgeWins       *CounterVec
	hedgeLosses     *CounterVec
	raceLaunched    *CounterVec
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
	pipeBufPeak  *GaugeVec

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
	metaShardRecords *GaugeVec
	metaBatchFetches *CounterVec

	// Storage-class and lifecycle-migration instrument families
	// (internal/policy + internal/lifecycle).
	classBytes   *GaugeVec
	classObjects *GaugeVec
	lcMigrations *CounterVec
	lcBytes      *CounterVec
	lcFailures   *CounterVec
	lcQueue      *GaugeVec
}

// Options tunes an Observer beyond the defaults. The zero value is valid
// and equivalent to NewObserver().
type Options struct {
	// SpanRing overrides the finished-span ring capacity (default 512).
	// Open spans are pinned separately and never evicted, so this only
	// bounds post-hoc history depth.
	SpanRing int
	// SLOObjectives merges per-op latency objectives over
	// DefaultSLOObjectives (positive sets, negative removes, zero skips).
	SLOObjectives map[string]time.Duration
	// Recorder tunes the flight recorder (ring capacity, trigger
	// thresholds, dump retention and directory).
	Recorder RecorderConfig
	// Load tunes the per-CSP load-telemetry windows.
	Load LoadConfig
}

// NewObserver builds an Observer with a fresh registry, scoreboard, and
// the real clock (core.New re-points the clock at the client's runtime).
func NewObserver() *Observer {
	return NewObserverWith(Options{})
}

// NewObserverWith builds an Observer with the given options.
func NewObserverWith(opts Options) *Observer {
	reg := NewRegistry()
	o := &Observer{
		reg:     reg,
		health:  NewScoreboard(),
		clock:   time.Now,
		started: time.Now(),
		ring:    spanRing{size: opts.SpanRing},

		opDur:     reg.Histogram(MetricOpDuration, "Client operation latency by op.", nil, "op"),
		opsTotal:  reg.Counter(MetricOpsTotal, "Client operations by op and result.", "op", "result"),
		spanDur:   reg.Histogram(MetricSpanDuration, "Span durations by span name.", nil, "span"),
		cspReq:    reg.Counter(MetricCSPRequests, "Provider requests by csp and result.", "csp", "result"),
		cspReqDur: reg.Histogram(MetricCSPRequestDuration, "Successful provider request latency by csp.", nil, "csp"),
		cspDown:   reg.Gauge(MetricCSPDown, "1 while the failure estimator counts the csp as failed.", "csp"),
		cspBw:     reg.Gauge(MetricCSPBandwidth, "Estimated link bandwidth by csp and direction.", "csp", "dir"),
		evTotal:   reg.Counter(MetricEventsTotal, "Transfer-layer events by type.", "type"),
		xferBytes: reg.Counter(MetricTransferBytes, "Payload bytes moved by csp and direction.", "csp", "dir"),
		selPicks:  reg.Counter(MetricSelectorPicks, "Download-source selector decisions by csp.", "csp"),

		xferInFlight: reg.Gauge(MetricTransferInFlight, "Transfer-engine attempts currently in flight by csp.", "csp"),
		xferPeak:     reg.Gauge(MetricTransferInFlightPeak, "High-water in-flight attempt count by csp.", "csp"),
		xferQueue:    reg.Gauge(MetricTransferQueueDepth, "Attempts waiting for an in-flight slot."),
		xferRetries:  reg.Counter(MetricTransferRetries, "Transfer-engine retries by csp and kind.", "csp", "kind"),
		xferHedges:   reg.Counter(MetricTransferHedges, "Hedged downloads by result (launched, win).", "result"),

		hedgeSuppressed: reg.Counter(MetricHedgeSuppressed, "Hedges withheld by the load-adaptive controller, by csp and reason (cold, load).", "csp", "reason"),
		hedgeWins:       reg.Counter(MetricHedgeWins, "Hedged gathers where the backup lane won, by primary csp.", "csp"),
		hedgeLosses:     reg.Counter(MetricHedgeLosses, "Hedged gathers where the backup launched but the primary won, by primary csp.", "csp"),
		raceLaunched:    reg.Counter(MetricRaceLaunched, "Redundant race-read lanes launched, by csp.", "csp"),
		raceCancelled:   reg.Counter(MetricRaceCancelledBytes, "Payload bytes completed by gather losers (race lanes, hedged-away primaries) after the gather resolved, by csp.", "csp"),

		codecEncode: reg.Counter(MetricCodecEncodeBytes, "Chunk bytes erasure-encoded by the codec pool."),
		codecDecode: reg.Counter(MetricCodecDecodeBytes, "Chunk bytes erasure-decoded by the codec pool."),
		codecChunk:  reg.Counter(MetricCodecChunkBytes, "File bytes chunk-hashed by the codec pool."),
		codecBusy:   reg.Gauge(MetricCodecBusy, "Codec-pool workers currently running a CPU job."),

		pipeInflight: reg.Gauge(MetricPipelineInflight, "Chunks resident in the streaming Put/Get window by direction.", "dir"),
		pipeStalls:   reg.Counter(MetricPipelineStalls, "Times the streaming pipeline blocked on a full window by direction.", "dir"),
		pipeBufBytes: reg.Gauge(MetricPipelineBufferBytes, "Accounted data-plane payload bytes currently resident."),
		pipeBufPeak:  reg.Gauge(MetricPipelineBufferPeak, "High-water accounted data-plane payload bytes."),

		dedupHits:       reg.Counter(MetricDedupHits, "Share uploads avoided because the csp already held the object.", "csp"),
		dedupMisses:     reg.Counter(MetricDedupMisses, "Content-addressed shares actually stored by csp.", "csp"),
		dedupBytesSaved: reg.Counter(MetricDedupBytesSaved, "Share payload bytes not uploaded thanks to dedup, by csp.", "csp"),

		metaCacheHits:    reg.Counter(MetricMetaCacheHits, "Metadata record reads served from the client cache."),
		metaCacheMisses:  reg.Counter(MetricMetaCacheMisses, "Metadata record reads that had to decode or fetch."),
		metaCacheEvicts:  reg.Counter(MetricMetaCacheEvictions, "Metadata cache entries evicted by the LRU bound."),
		metaCacheInvalid: reg.Counter(MetricMetaCacheInvalidations, "Metadata cache entries invalidated by sync, supersede, or delete."),
		metaShardRecords: reg.Gauge(MetricMetaShardRecords, "Metadata records placed per shard (csp).", "csp"),
		metaBatchFetches: reg.Counter(MetricMetaBatchFetches, "Batched metadata fetches by csp (one counts a whole batch round trip).", "csp"),

		classBytes:   reg.Gauge(MetricClassBytes, "Logical bytes of live file heads by storage class.", "class"),
		classObjects: reg.Gauge(MetricClassObjects, "Live file heads by storage class.", "class"),
		lcMigrations: reg.Counter(MetricLifecycleMigrations, "Lifecycle demotions completed (new placement at quorum)."),
		lcBytes:      reg.Counter(MetricLifecycleBytes, "Logical bytes re-encoded by completed lifecycle demotions."),
		lcFailures:   reg.Counter(MetricLifecycleFailures, "Lifecycle demotion jobs that exhausted their attempts."),
		lcQueue:      reg.Gauge(MetricLifecycleQueueDepth, "Lifecycle demotion jobs currently queued or running."),
	}
	o.rec = newFlightRecorder(o, opts.Recorder)
	o.slo = newSLOTracker(reg, opts.SLOObjectives)
	o.load = newLoadTracker(o, opts.Load)
	return o
}

// Recorder returns the observer's flight recorder (nil for a nil
// Observer).
func (o *Observer) Recorder() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.rec
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

// Health returns the CSP scoreboard (nil for a nil Observer).
func (o *Observer) Health() *Scoreboard {
	if o == nil {
		return nil
	}
	return o.health
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

// pushSpan appends a finished span to the ring.
func (o *Observer) pushSpan(rec SpanRecord) { o.ring.push(rec) }

// RecentSpans returns the buffered finished spans, oldest first. Nil-safe.
func (o *Observer) RecentSpans() []SpanRecord {
	if o == nil {
		return nil
	}
	return o.ring.recent()
}

// CSPRequest records one provider contact: the request counter, the
// success-latency histogram, and the scoreboard. This is the single data
// path both the selector's inputs and the health view hang off
// (core.recordResult). Nil-safe.
func (o *Observer) CSPRequest(cspName string, err error, elapsed time.Duration) {
	if o == nil || cspName == "" {
		return
	}
	o.cspReq.With(cspName, resultLabel(err)).Inc()
	at := o.now()
	if err == nil {
		o.cspReqDur.With(cspName).Observe(elapsed.Seconds())
		o.health.RecordSuccess(cspName, at, elapsed)
		o.load.contact(cspName)
		return
	}
	o.health.RecordFailure(cspName, at, err)
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
	o.health.SetDown(cspName, down)
	o.rec.cspTransition(cspName, down)
}

// CSPBandwidth records the client's current link estimates (bytes/second;
// zero values mean unknown). Nil-safe.
func (o *Observer) CSPBandwidth(cspName string, downBps, upBps float64) {
	if o == nil || cspName == "" {
		return
	}
	if downBps > 0 {
		o.cspBw.With(cspName, "down").Set(downBps)
	}
	if upBps > 0 {
		o.cspBw.With(cspName, "up").Set(upBps)
	}
	o.health.SetBandwidth(cspName, downBps, upBps)
}

// TransferEvent is the event→metric bridge: core subscribes it to the
// client's event bus, so every transfer-layer event increments the event
// counter and successful payloads add to the per-direction byte counters.
// dir is "up", "down", or "" for non-transfer events. Nil-safe.
func (o *Observer) TransferEvent(eventType, cspName, dir string, bytes int64, err error) {
	if o == nil {
		return
	}
	o.evTotal.With(eventType).Inc()
	if err == nil && cspName != "" && dir != "" && bytes > 0 {
		o.xferBytes.With(cspName, dir).Add(bytes)
	}
}

// TransferInFlight records a provider's current in-flight attempt count
// (the transfer engine's per-CSP gauge) and samples the load-telemetry
// window. Nil-safe.
func (o *Observer) TransferInFlight(cspName string, n int) {
	if o == nil || cspName == "" {
		return
	}
	o.xferInFlight.With(cspName).Set(float64(n))
	o.load.inFlight(cspName, n)
}

// TransferInFlightPeak records a provider's high-water in-flight count.
// The gauge only ever rises, so end-of-run snapshots expose the maximum
// concurrency the engine allowed (what the cap tests assert). Nil-safe.
func (o *Observer) TransferInFlightPeak(cspName string, n int) {
	if o == nil || cspName == "" {
		return
	}
	o.xferPeak.With(cspName).Set(float64(n))
}

// TransferQueueDepth records how many attempts are parked waiting for an
// in-flight slot. Nil-safe.
func (o *Observer) TransferQueueDepth(n int) {
	if o == nil {
		return
	}
	o.xferQueue.With().Set(float64(n))
	o.load.queueDepth(n)
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
		Name: kind, CSP: cspName, Detail: "try=" + strconv.Itoa(try)})
}

// AttemptEnd records one transfer-engine attempt finishing. Nil-safe.
func (o *Observer) AttemptEnd(ctx context.Context, cspName, kind string, try int, bytes int64, elapsed time.Duration, err error) {
	if o == nil || cspName == "" {
		return
	}
	span, trace, op := SpanFromContext(ctx)
	ev := FlightEvent{Kind: FlightAttemptEnd, Trace: trace, Span: span, Op: op,
		Name: kind, CSP: cspName, Detail: "try=" + strconv.Itoa(try), Bytes: bytes, Duration: elapsed}
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

// TransferHedge counts hedged-download lifecycle points: result is
// "launched" when a backup lane starts, "win" when a backup's attempt
// beats the primary. Nil-safe.
func (o *Observer) TransferHedge(ctx context.Context, result string) {
	if o == nil || result == "" {
		return
	}
	o.xferHedges.With(result).Inc()
	span, trace, op := SpanFromContext(ctx)
	kind := FlightHedgeLaunch
	if result == "win" {
		kind = FlightHedgeWin
	}
	o.rec.record(FlightEvent{Kind: kind, Trace: trace, Span: span, Op: op, Detail: result})
}

// HedgeSuppressed counts one hedge the load-adaptive controller withheld.
// reason is "cold" (provider not yet armed by enough latency samples) or
// "load" (the Ghosh crossover: provider or engine past the utilization
// threshold). Nil-safe.
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
	if win {
		o.hedgeWins.With(cspName).Inc()
		return // the hedge.win flight event is recorded by TransferHedge
	}
	o.hedgeLosses.With(cspName).Inc()
	span, trace, op := SpanFromContext(ctx)
	o.rec.record(FlightEvent{Kind: FlightHedgeLoss, Trace: trace, Span: span, Op: op, CSP: cspName})
}

// RaceLaunched counts one redundant race-read lane starting against a
// provider. Nil-safe.
func (o *Observer) RaceLaunched(ctx context.Context, cspName string) {
	if o == nil || cspName == "" {
		return
	}
	o.raceLaunched.With(cspName).Inc()
	span, trace, op := SpanFromContext(ctx)
	o.rec.record(FlightEvent{Kind: FlightRaceLaunch, Trace: trace, Span: span, Op: op, CSP: cspName})
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
// currently resident and the run's high-water mark. Nil-safe.
func (o *Observer) PipelineBufferBytes(cur, peak int64) {
	if o == nil {
		return
	}
	o.pipeBufBytes.With().Set(float64(cur))
	o.pipeBufPeak.With().Set(float64(peak))
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
	Status        string      `json:"status"` // "ok" or "degraded"
	UptimeSeconds float64     `json:"uptime_seconds"`
	CSPs          []CSPHealth `json:"csps"`
}

// HealthzHandler serves the scoreboard as JSON: 200 with status "ok" when
// no provider is marked down, "degraded" otherwise (still 200 — the
// process itself is healthy; per-CSP state is payload, not liveness).
func (o *Observer) HealthzHandler() http.Handler {
	if o == nil {
		return http.NotFoundHandler()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		o.clockMu.RLock()
		started := o.started
		o.clockMu.RUnlock()
		body := healthzBody{Status: "ok", UptimeSeconds: o.now().Sub(started).Seconds(), CSPs: o.health.Snapshot()}
		if o.health.AnyDown() {
			body.Status = "degraded"
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(body)
	})
}

// SpansHandler serves the recent-span ring as JSON (/debug/spans).
func (o *Observer) SpansHandler() http.Handler {
	if o == nil {
		return http.NotFoundHandler()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(o.RecentSpans())
	})
}

// flightBody is the /debug/flightrecorder JSON shape.
type flightBody struct {
	Dumps     []FlightDump  `json:"dumps"`
	Events    []FlightEvent `json:"events"`
	OpenSpans []SpanRecord  `json:"open_spans"`
	Load      []CSPLoad     `json:"load"`
}

// FlightHandler serves the flight recorder (/debug/flightrecorder): GET
// returns the retained dumps, the live event ring, the pinned open spans,
// and the load-telemetry windows; POST forces a manual dump and returns
// it. Nil-safe: a nil Observer serves 404.
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
			Load:      o.LoadStats(),
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

// MetaShardRecords records how many metadata records this client has placed
// on (or resolved from) the given shard — the skew view `cyrusctl stats`
// shows. Nil-safe.
func (o *Observer) MetaShardRecords(cspName string, n int) {
	if o == nil || cspName == "" {
		return
	}
	o.metaShardRecords.With(cspName).Set(float64(n))
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

// LifecycleFailure records one demotion job that exhausted its attempts.
// Nil-safe.
func (o *Observer) LifecycleFailure() {
	if o == nil {
		return
	}
	o.lcFailures.With().Inc()
}

// LifecycleQueueDepth records how many demotion jobs are queued or
// running. Nil-safe.
func (o *Observer) LifecycleQueueDepth(n int) {
	if o == nil {
		return
	}
	o.lcQueue.With().Set(float64(n))
}
