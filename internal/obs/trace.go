package obs

import (
	"context"
	"sync"
	"time"
)

// Span tracing. Spans are deliberately minimal — a name, a start instant,
// a duration, a parent — because their consumers are histograms (an op
// span observes cyrus_op_duration_seconds, a child span
// cyrus_span_duration_seconds) and the flight recorder (every span writes
// span.open and span.close; open spans stay pinned for dumps), not a
// distributed trace backend. Durations come from the Observer's clock,
// which core wires to the client's vclock.Runtime: under netsim the
// recorded durations are virtual-time durations, exactly what the latency
// experiments need.
//
// Every span additionally carries a trace ID — the span ID of the
// top-level operation span it descends from — so the flight recorder can
// stitch one operation's attempts, retries, and hedges back together
// after the fact.

// SpanRecord is one open-span table entry.
type SpanRecord struct {
	ID       uint64        `json:"id"`
	Parent   uint64        `json:"parent,omitempty"`
	Trace    uint64        `json:"trace,omitempty"`
	Name     string        `json:"name"`
	Op       string        `json:"op,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Open     bool          `json:"open,omitempty"`
}

// Span is one in-flight operation. A nil *Span is valid and inert, so
// instrumented code never branches on whether observability is enabled.
type Span struct {
	o      *Observer
	name   string
	op     string // non-empty for top-level client ops: also feeds op metrics
	rootOp string // op name of the trace root, inherited by children
	start  time.Time
	id     uint64
	parent uint64
	trace  uint64
}

// ctxKeySpan keys the innermost span in a context.
type ctxKeySpan struct{}

// SpanFromContext returns the innermost span's ID, its trace ID (the root
// operation span's ID), and the root operation name, or zeros when the
// context carries no span. The transfer engine uses it to stamp flight
// events with the operation they belong to.
func SpanFromContext(ctx context.Context) (spanID, traceID uint64, op string) {
	if s, _ := ctx.Value(ctxKeySpan{}).(*Span); s != nil {
		return s.id, s.trace, s.rootOp
	}
	return 0, 0, ""
}

// Trace starts a child span on this Observer. Nil-safe.
func (o *Observer) Trace(ctx context.Context, name string) (context.Context, *Span) {
	return o.startSpan(ctx, name, "")
}

// StartOp starts a top-level operation span: ending it observes
// cyrus_op_duration_seconds{op,result} (whose _count is the op count)
// instead of the span histogram, and arms the flight recorder's
// latency-anomaly trigger.
// Nil-safe.
func (o *Observer) StartOp(ctx context.Context, op string) (context.Context, *Span) {
	return o.startSpan(ctx, "core."+op, op)
}

func (o *Observer) startSpan(ctx context.Context, name, op string) (context.Context, *Span) {
	if o == nil {
		return ctx, nil
	}
	var parent, trace uint64
	rootOp := op
	if p, _ := ctx.Value(ctxKeySpan{}).(*Span); p != nil {
		parent = p.id
		if op == "" { // child spans inherit the trace; op spans re-root it
			trace = p.trace
			rootOp = p.rootOp
		}
	}
	sp := &Span{o: o, name: name, op: op, rootOp: rootOp, start: o.now(), id: o.nextSpanID.Add(1), parent: parent, trace: trace}
	if sp.trace == 0 {
		sp.trace = sp.id // a root (or orphan) span is its own trace
	}
	o.openSpans.add(sp)
	o.rec.record(FlightEvent{Kind: FlightSpanOpen, Trace: sp.trace, Span: sp.id, Op: sp.rootOp, Name: name})
	return context.WithValue(ctx, ctxKeySpan{}, sp), sp
}

// End finishes the span: its duration is observed into the op histogram
// for StartOp spans, into the span histogram for
// child spans; the span leaves the open table, and the close is folded
// into the flight recorder (which may fire the latency-anomaly trigger for
// op spans). Nil-safe; err may be nil.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	o := s.o
	d := o.now().Sub(s.start)
	if s.op != "" {
		o.opDur.With(s.op, resultLabel(err)).Observe(d.Seconds())
	} else {
		o.spanDur.With(s.name).Observe(d.Seconds())
	}
	o.openSpans.remove(s.id)
	ev := FlightEvent{Kind: FlightSpanClose, Trace: s.trace, Span: s.id, Op: s.rootOp, Name: s.name, Duration: d}
	if err != nil {
		ev.Err = err.Error()
	}
	o.rec.spanClosed(ev, s.op != "")
}

func resultLabel(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}

// openSpanTable pins in-flight spans so long-lived parents (streaming
// Put/Get) stay visible in dumps however many events churn through the
// flight ring. The table has its own lock and never calls into the
// recorder, so there is no lock ordering with it.
type openSpanTable struct {
	mu    sync.Mutex
	spans map[uint64]*Span
}

func (t *openSpanTable) add(s *Span) {
	t.mu.Lock()
	if t.spans == nil {
		t.spans = make(map[uint64]*Span)
	}
	t.spans[s.id] = s
	t.mu.Unlock()
}

func (t *openSpanTable) remove(id uint64) {
	t.mu.Lock()
	delete(t.spans, id)
	t.mu.Unlock()
}

// snapshot returns the open spans as records, with Duration = elapsed so
// far and Open = true, sorted oldest-start first by span ID.
func (t *openSpanTable) snapshot(now time.Time) []SpanRecord {
	t.mu.Lock()
	out := make([]SpanRecord, 0, len(t.spans))
	for _, s := range t.spans {
		out = append(out, SpanRecord{
			ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name, Op: s.op,
			Start: s.start, Duration: now.Sub(s.start), Open: true,
		})
	}
	t.mu.Unlock()
	sortSpanRecords(out)
	return out
}

func sortSpanRecords(recs []SpanRecord) {
	for i := 1; i < len(recs); i++ { // insertion sort: tables are small
		for j := i; j > 0 && recs[j].ID < recs[j-1].ID; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

// OpenSpans returns the currently open (pinned) spans, oldest first, with
// Duration = elapsed so far. Nil-safe.
func (o *Observer) OpenSpans() []SpanRecord {
	if o == nil {
		return nil
	}
	return o.openSpans.snapshot(o.now())
}
