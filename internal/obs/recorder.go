package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Flight recorder: the deep-diagnosis layer. Every structurally interesting
// moment in the transfer plane — span open/close, transfer attempts and
// their retries, hedge launches and wins, CSP up/down transitions, pipeline
// stalls — is appended to one bounded ring of structured events. When a
// trigger fires (an operation's latency exceeds a configurable multiple of
// its own EWMA, a provider transitions to down, a harness invariant breaks,
// or an explicit API call), the ring is snapshotted into a FlightDump: a
// post-mortem that reconstructs the distributed anatomy of the anomaly —
// which attempts ran where, what was retried, whether a hedge was launched,
// and what the providers were doing at the time.
//
// The recorder is deliberately cheap on the hot path (one mutex'd append
// per event) and bounded everywhere: the ring evicts oldest-first, retained
// dumps are capped, and file dumps only happen when a dump directory is
// configured.

// Flight-event kinds. Kind strings are stable: dumps are consumed by
// cyrusctl flightdump, CI artifacts, and the harness oracles.
const (
	FlightSpanOpen     = "span.open"
	FlightSpanClose    = "span.close"
	FlightAttemptStart = "attempt.start"
	FlightAttemptEnd   = "attempt.end"
	FlightRetry        = "retry"
	FlightHedgeLaunch  = "hedge.launch"
	FlightHedgeWin     = "hedge.win"
	FlightHedgeLoss    = "hedge.loss"
	FlightHedgeDrop    = "hedge.suppress"
	FlightRaceLaunch   = "race.launch"
	FlightRaceCancel   = "race.cancel"
	FlightCSPDown      = "csp.down"
	FlightCSPUp        = "csp.up"
	FlightStall        = "pipeline.stall"
)

// Trigger reasons (the `reason` label of cyrus_flight_triggers_total and
// the prefix of FlightDump.Reason).
const (
	TriggerLatency   = "latency-anomaly"
	TriggerCSPDown   = "csp-down"
	TriggerInvariant = "invariant"
	TriggerManual    = "manual"
)

// FlightEvent is one structured entry in the recorder ring.
type FlightEvent struct {
	Seq      uint64        `json:"seq"`
	At       time.Time     `json:"at"`
	Kind     string        `json:"kind"`
	Trace    uint64        `json:"trace,omitempty"` // root operation span ID
	Span     uint64        `json:"span,omitempty"`  // innermost span ID
	Op       string        `json:"op,omitempty"`    // root operation name (put/get/sync/...)
	Name     string        `json:"name,omitempty"`  // span name or attempt kind
	CSP      string        `json:"csp,omitempty"`
	Detail   string        `json:"detail,omitempty"`
	Bytes    int64         `json:"bytes,omitempty"`
	Duration time.Duration `json:"duration_ns,omitempty"`
	Err      string        `json:"err,omitempty"`
}

// RecorderConfig tunes the flight recorder. Zero values take the documented
// defaults.
type RecorderConfig struct {
	// Capacity is the event-ring size. Default 4096.
	Capacity int
	// TriggerMultiple arms the latency-anomaly trigger: an operation span
	// closing with elapsed > TriggerMultiple × the op's latency EWMA fires
	// a dump. Default 8; negative disables the latency trigger.
	TriggerMultiple float64
	// TriggerMinSamples is how many closes of an op must be observed before
	// its latency trigger arms (a cold EWMA fires spuriously). Default 16.
	TriggerMinSamples int
	// TriggerFloor suppresses latency triggers below this absolute elapsed
	// time: microsecond-scale jitter is scheduling noise, not an anomaly.
	// Default 250ms.
	TriggerFloor time.Duration
	// MaxDumps bounds retained in-memory dumps (oldest evicted). Default 8.
	MaxDumps int
	// DumpDir, when set, additionally writes each dump to
	// <DumpDir>/flight-<seq>.json (best effort).
	DumpDir string
}

func (c RecorderConfig) withDefaults() RecorderConfig {
	if c.Capacity == 0 {
		c.Capacity = 4096
	}
	if c.TriggerMultiple == 0 {
		c.TriggerMultiple = 8
	}
	if c.TriggerMinSamples == 0 {
		c.TriggerMinSamples = 16
	}
	if c.TriggerFloor == 0 {
		c.TriggerFloor = 250 * time.Millisecond
	}
	if c.MaxDumps == 0 {
		c.MaxDumps = 8
	}
	return c
}

// FlightDump is one snapshot of the recorder, produced by a trigger. Events
// are ordered oldest-first; the triggering event (when the trigger was
// event-driven) is included in Events and repeated in Trigger.
type FlightDump struct {
	Seq       uint64        `json:"seq"`
	Reason    string        `json:"reason"`
	At        time.Time     `json:"at"`
	Trace     uint64        `json:"trace,omitempty"` // trace of the triggering op, when known
	Trigger   *FlightEvent  `json:"trigger,omitempty"`
	Events    []FlightEvent `json:"events"`
	OpenSpans []SpanRecord  `json:"open_spans,omitempty"`
}

// opLatency is the per-op latency EWMA feeding the anomaly trigger.
type opLatency struct {
	samples int
	ewma    float64 // seconds
}

// triggerEWMAWeight smooths the per-op latency estimate. It matches the
// scoreboard's request-latency smoothing so "anomalous" means the same
// thing at both layers.
const triggerEWMAWeight = 0.3

// FlightRecorder is the bounded event ring plus trigger machinery. All
// methods are safe for concurrent use and nil-safe, so instrumented code
// never branches on whether a recorder is attached.
type FlightRecorder struct {
	o   *Observer
	cfg RecorderConfig

	triggers *CounterVec // cyrus_flight_triggers_total{reason}

	mu      sync.Mutex
	seq     uint64
	ring    []FlightEvent
	pos     int
	full    bool
	ops     map[string]*opLatency
	dumps   []FlightDump
	dumpSeq uint64
}

func newFlightRecorder(o *Observer, cfg RecorderConfig) *FlightRecorder {
	return &FlightRecorder{
		o:        o,
		cfg:      cfg.withDefaults(),
		triggers: o.reg.Counter(MetricFlightTriggers, "Flight-recorder dumps by trigger reason.", "reason"),
		ops:      make(map[string]*opLatency),
	}
}

// Config returns the recorder's effective (defaulted) configuration.
func (r *FlightRecorder) Config() RecorderConfig {
	if r == nil {
		return RecorderConfig{}
	}
	return r.cfg
}

// record appends one event and returns it with Seq/At stamped. The caller
// must NOT hold r.mu.
func (r *FlightRecorder) record(ev FlightEvent) FlightEvent {
	if r == nil {
		return ev
	}
	ev.At = r.o.now()
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	r.pushLocked(ev)
	r.mu.Unlock()
	return ev
}

func (r *FlightRecorder) pushLocked(ev FlightEvent) {
	if r.ring == nil {
		r.ring = make([]FlightEvent, r.cfg.Capacity)
	}
	r.ring[r.pos] = ev
	r.pos = (r.pos + 1) % len(r.ring)
	if r.pos == 0 {
		r.full = true
	}
}

// spanClosed folds one finished span into the recorder: the span.close
// event, and — for top-level operation spans — the latency-anomaly trigger
// check against the op's own EWMA. The EWMA updates after the check, so the
// first anomalous sample fires before it contaminates the estimate.
func (r *FlightRecorder) spanClosed(ev FlightEvent, isOp bool) {
	if r == nil {
		return
	}
	ev.At = r.o.now()
	var dump *FlightDump
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	r.pushLocked(ev)
	if isOp && ev.Op != "" {
		st, ok := r.ops[ev.Op]
		if !ok {
			st = &opLatency{}
			r.ops[ev.Op] = st
		}
		sec := ev.Duration.Seconds()
		mult := r.cfg.TriggerMultiple
		if mult > 0 && st.samples >= r.cfg.TriggerMinSamples &&
			ev.Duration >= r.cfg.TriggerFloor && sec > mult*st.ewma && st.ewma > 0 {
			reason := fmt.Sprintf("%s: op=%s elapsed=%s ewma=%s x%.1f",
				TriggerLatency, ev.Op, ev.Duration,
				time.Duration(st.ewma*float64(time.Second)), sec/st.ewma)
			d := r.dumpLocked(reason, TriggerLatency, &ev)
			dump = &d
		}
		st.samples++
		if st.ewma == 0 {
			st.ewma = sec
		} else {
			st.ewma = (1-triggerEWMAWeight)*st.ewma + triggerEWMAWeight*sec
		}
	}
	r.mu.Unlock()
	r.writeDump(dump)
}

// cspTransition records a provider up/down transition and fires the
// csp-down trigger on down.
func (r *FlightRecorder) cspTransition(cspName string, down bool) {
	if r == nil {
		return
	}
	kind := FlightCSPUp
	if down {
		kind = FlightCSPDown
	}
	ev := FlightEvent{Kind: kind, CSP: cspName, At: r.o.now()}
	var dump *FlightDump
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	r.pushLocked(ev)
	if down {
		d := r.dumpLocked(fmt.Sprintf("%s: csp=%s", TriggerCSPDown, cspName), TriggerCSPDown, &ev)
		dump = &d
	}
	r.mu.Unlock()
	r.writeDump(dump)
}

// Dump snapshots the ring now, under the given reason class and free-form
// detail. Used by the explicit API (manual, harness invariant breach).
func (r *FlightRecorder) Dump(reasonClass, detail string) FlightDump {
	if r == nil {
		return FlightDump{}
	}
	reason := reasonClass
	if detail != "" {
		reason += ": " + detail
	}
	r.mu.Lock()
	d := r.dumpLocked(reason, reasonClass, nil)
	r.mu.Unlock()
	r.writeDump(&d)
	return d
}

// dumpLocked builds, retains, and counts one dump. Caller holds r.mu. It
// reads the observer's open-span table, which is guarded by its own lock
// and never acquires r.mu — the lock order is strictly recorder → spans.
func (r *FlightRecorder) dumpLocked(reason, reasonClass string, trigger *FlightEvent) FlightDump {
	r.dumpSeq++
	d := FlightDump{
		Seq:       r.dumpSeq,
		Reason:    reason,
		At:        r.o.now(),
		Events:    r.eventsLocked(),
		OpenSpans: r.o.OpenSpans(),
	}
	if trigger != nil {
		t := *trigger
		d.Trigger = &t
		d.Trace = trigger.Trace
	}
	r.dumps = append(r.dumps, d)
	if len(r.dumps) > r.cfg.MaxDumps {
		r.dumps = append(r.dumps[:0], r.dumps[len(r.dumps)-r.cfg.MaxDumps:]...)
	}
	r.triggers.With(reasonClass).Inc()
	return d
}

// eventsLocked copies the ring oldest-first. Caller holds r.mu.
func (r *FlightRecorder) eventsLocked() []FlightEvent {
	if r.ring == nil {
		return nil
	}
	if !r.full {
		return append([]FlightEvent(nil), r.ring[:r.pos]...)
	}
	out := make([]FlightEvent, 0, len(r.ring))
	out = append(out, r.ring[r.pos:]...)
	out = append(out, r.ring[:r.pos]...)
	return out
}

// Events returns the current ring contents, oldest first. Nil-safe.
func (r *FlightRecorder) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eventsLocked()
}

// Dumps returns the retained dumps, oldest first. Nil-safe.
func (r *FlightRecorder) Dumps() []FlightDump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]FlightDump(nil), r.dumps...)
}

// writeDump persists one dump to the configured directory, best effort —
// a diagnosis artifact must never fail the operation it is diagnosing.
func (r *FlightRecorder) writeDump(d *FlightDump) {
	if r == nil || d == nil || r.cfg.DumpDir == "" {
		return
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return
	}
	_ = os.MkdirAll(r.cfg.DumpDir, 0o755)
	path := filepath.Join(r.cfg.DumpDir, fmt.Sprintf("flight-%d.json", d.Seq))
	_ = os.WriteFile(path, append(data, '\n'), 0o644)
}
