package obs

import (
	"fmt"
	"sync"
	"time"
)

// Flight recorder: the deep-diagnosis layer. Every structurally interesting
// moment in the transfer plane — span open/close, transfer attempts and
// their retries, hedge launches and wins, CSP up/down transitions, pipeline
// stalls, and the client's own repairs (notes) — is appended to one bounded
// ring of structured events. When a trigger fires (an operation's latency
// exceeds a fixed multiple of its own EWMA, a provider transitions
// to down, a harness invariant breaks, or an explicit API call), the ring
// is snapshotted into a FlightDump: a post-mortem that reconstructs the
// distributed anatomy of the anomaly — which attempts ran where, what was
// retried, whether a hedge was launched, and what the providers were doing
// at the time.
//
// The recorder is deliberately cheap on the hot path (one mutex'd append
// per event) and bounded everywhere: the ring evicts oldest-first and
// retained dumps are capped. It writes no files; a caller that wants a dump
// on disk marshals one (the chaos harness tests do, to CYRUS_FLIGHT_OUT).

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
	FlightRaceCancel   = "race.cancel"
	FlightCSPDown      = "csp.down"
	FlightCSPUp        = "csp.up"
	FlightStall        = "pipeline.stall"
	// FlightNote is a step the client took on its own that no op span,
	// counter or other event records: Name says which (shares.corrected,
	// meta.replaced, gc.cas_sweep_skipped), Detail how much.
	FlightNote = "note"
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
// client link model's request-latency smoothing so "anomalous" means the
// same thing at both layers.
const triggerEWMAWeight = 0.3

// FlightRecorder is the bounded event ring plus trigger machinery. All
// methods are safe for concurrent use and nil-safe, so instrumented code
// never branches on whether a recorder is attached.
type FlightRecorder struct {
	o *Observer

	// The recorder's fixed limits (newFlightRecorder sets them; tests
	// lower them in place). capacity is the event-ring size. The
	// latency-anomaly trigger fires when an op span closes with elapsed >
	// triggerMultiple × the op's latency EWMA, once triggerMinSamples
	// closes of that op have armed the estimate (a cold EWMA fires
	// spuriously) and only at or above triggerFloor (microsecond jitter is
	// scheduling noise, not an anomaly). maxDumps bounds retained dumps,
	// oldest evicted.
	capacity          int
	triggerMultiple   float64
	triggerMinSamples int
	triggerFloor      time.Duration
	maxDumps          int

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

func newFlightRecorder(o *Observer) *FlightRecorder {
	return &FlightRecorder{
		o:                 o,
		capacity:          4096,
		triggerMultiple:   8,
		triggerMinSamples: 16,
		triggerFloor:      250 * time.Millisecond,
		maxDumps:          8,
		triggers:          o.reg.Counter(MetricFlightTriggers, "Flight-recorder dumps by trigger reason.", "reason"),
		ops:               make(map[string]*opLatency),
	}
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
		r.ring = make([]FlightEvent, r.capacity)
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
		if st.samples >= r.triggerMinSamples && ev.Duration >= r.triggerFloor &&
			sec > r.triggerMultiple*st.ewma && st.ewma > 0 {
			reason := fmt.Sprintf("%s: op=%s elapsed=%s ewma=%s x%.1f",
				TriggerLatency, ev.Op, ev.Duration,
				time.Duration(st.ewma*float64(time.Second)), sec/st.ewma)
			r.dumpLocked(reason, TriggerLatency, &ev)
		}
		st.samples++
		if st.ewma == 0 {
			st.ewma = sec
		} else {
			st.ewma = (1-triggerEWMAWeight)*st.ewma + triggerEWMAWeight*sec
		}
	}
	r.mu.Unlock()
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
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	r.pushLocked(ev)
	if down {
		r.dumpLocked(fmt.Sprintf("%s: csp=%s", TriggerCSPDown, cspName), TriggerCSPDown, &ev)
	}
	r.mu.Unlock()
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
	defer r.mu.Unlock()
	return r.dumpLocked(reason, reasonClass, nil)
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
	if len(r.dumps) > r.maxDumps {
		r.dumps = append(r.dumps[:0], r.dumps[len(r.dumps)-r.maxDumps:]...)
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
