package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// newFakeClock returns the shared test clock (trace_test.go) at a fixed
// epoch.
func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2015, 4, 21, 0, 0, 0, 0, time.UTC)}
}

// opSpan runs one top-level operation span of the given duration on the
// fake clock.
func opSpan(o *Observer, clk *fakeClock, op string, d time.Duration, err error) {
	_, sp := o.StartOp(context.Background(), op)
	clk.advance(d)
	sp.End(err)
}

// TestRecorderLatencyTrigger: an operation far above its own EWMA fires a
// dump once the estimator is armed, and the dump stitches the triggering
// op's chain together by trace ID.
func TestRecorderLatencyTrigger(t *testing.T) {
	clk := newFakeClock()
	o := NewObserver()
	o.rec.triggerMultiple = 2
	o.rec.triggerMinSamples = 3
	o.rec.triggerFloor = 10 * time.Millisecond
	o.SetClock(clk.now)

	// Arm the estimator: three unremarkable 20ms gets.
	for i := 0; i < 3; i++ {
		opSpan(o, clk, "get", 20*time.Millisecond, nil)
	}
	if n := len(o.FlightDumps()); n != 0 {
		t.Fatalf("%d dumps before any anomaly", n)
	}
	// The anomaly: 200ms against a 20ms EWMA.
	opSpan(o, clk, "get", 200*time.Millisecond, nil)

	dumps := o.FlightDumps()
	if len(dumps) != 1 {
		t.Fatalf("dumps = %d, want 1", len(dumps))
	}
	d := dumps[0]
	if !strings.HasPrefix(d.Reason, TriggerLatency) {
		t.Errorf("dump reason = %q, want %s prefix", d.Reason, TriggerLatency)
	}
	if d.Trigger == nil || d.Trigger.Kind != FlightSpanClose || d.Trigger.Op != "get" {
		t.Fatalf("dump trigger = %+v, want the get span close", d.Trigger)
	}
	if d.Trace == 0 || d.Trace != d.Trigger.Trace {
		t.Errorf("dump trace = %d, trigger trace = %d; want equal and non-zero", d.Trace, d.Trigger.Trace)
	}
	var kinds []string
	for _, ev := range d.Events {
		if ev.Trace == d.Trace {
			kinds = append(kinds, ev.Kind)
		}
	}
	if len(kinds) != 2 || kinds[0] != FlightSpanOpen || kinds[1] != FlightSpanClose {
		t.Errorf("trigger trace chain = %v, want [span.open span.close]", kinds)
	}
	s := o.Registry().Snapshot()
	if p, ok := s.Find(MetricFlightTriggers, map[string]string{"reason": TriggerLatency}); !ok || p.Value != 1 {
		t.Errorf("flight_triggers{latency} = %+v (found=%v), want 1", p, ok)
	}

	// A second identical latency is no longer anomalous relative to the
	// updated EWMA only if it stays under the multiple; the EWMA absorbed
	// 200ms with weight 0.3 (EWMA ~74ms), so 200ms > 2x74ms still fires.
	opSpan(o, clk, "get", 200*time.Millisecond, nil)
	if n := len(o.FlightDumps()); n != 2 {
		t.Errorf("dumps after second anomaly = %d, want 2", n)
	}
}

// TestRecorderCSPDownTrigger: a down transition dumps; the recovery is
// recorded but does not dump.
func TestRecorderCSPDownTrigger(t *testing.T) {
	o := NewObserver()
	o.CSPDownState("cspx", true)
	dumps := o.FlightDumps()
	if len(dumps) != 1 || !strings.HasPrefix(dumps[0].Reason, TriggerCSPDown) {
		t.Fatalf("dumps after down = %+v, want one %s dump", dumps, TriggerCSPDown)
	}
	o.CSPDownState("cspx", false)
	if n := len(o.FlightDumps()); n != 1 {
		t.Errorf("dumps after recovery = %d, want still 1", n)
	}
	var sawUp bool
	for _, ev := range o.FlightEvents() {
		if ev.Kind == FlightCSPUp && ev.CSP == "cspx" {
			sawUp = true
		}
	}
	if !sawUp {
		t.Error("no csp.up event recorded for the recovery")
	}
}

// TestRecorderRingBounds: the event ring evicts oldest-first at capacity
// and dump retention is capped.
func TestRecorderRingBounds(t *testing.T) {
	o := NewObserver()
	o.rec.capacity = 8
	o.rec.maxDumps = 2
	for i := 0; i < 20; i++ {
		_, sp := o.Trace(context.Background(), "s")
		sp.End(nil)
	}
	evs := o.FlightEvents()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("ring not contiguous oldest-first: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if evs[len(evs)-1].Seq != 40 { // 20 spans x (open + close)
		t.Errorf("newest seq = %d, want 40", evs[len(evs)-1].Seq)
	}
	for i := 0; i < 5; i++ {
		o.FlightDump(TriggerManual, fmt.Sprintf("d%d", i))
	}
	dumps := o.FlightDumps()
	if len(dumps) != 2 || dumps[0].Seq != 4 || dumps[1].Seq != 5 {
		t.Errorf("retained dumps = %+v, want the last two (seq 4, 5)", dumps)
	}
}

// TestOpenSpanPinning: long-lived parents stay visible in OpenSpans (and
// in dumps) regardless of how many finished children churn the flight ring.
func TestOpenSpanPinning(t *testing.T) {
	o := NewObserver()
	ctx, parent := o.StartOp(context.Background(), "put")
	for i := 0; i < 3000; i++ { // 6000 events: past the 4096-event ring
		_, sp := o.Trace(ctx, "child")
		sp.End(nil)
	}
	open := o.OpenSpans()
	if len(open) != 1 || open[0].Name != "core.put" || !open[0].Open {
		t.Fatalf("open spans = %+v, want the pinned core.put parent", open)
	}
	d := o.FlightDump(TriggerManual, "pin-check")
	if len(d.OpenSpans) != 1 || d.OpenSpans[0].Name != "core.put" {
		t.Errorf("dump open spans = %+v, want the pinned parent", d.OpenSpans)
	}
	parent.End(nil)
	if n := len(o.OpenSpans()); n != 0 {
		t.Errorf("open spans after End = %d, want 0", n)
	}
}

// TestTraceIDPropagation: children inherit the root op span's ID as their
// trace, and a nested op re-roots.
func TestTraceIDPropagation(t *testing.T) {
	o := NewObserver()
	ctx, root := o.StartOp(context.Background(), "get")
	cctx, child := o.Trace(ctx, "chunk.gather")
	_, grand := o.Trace(cctx, "grandchild")
	spanID, traceID, op := SpanFromContext(cctx)
	if spanID != child.id || traceID != root.id || op != "get" {
		t.Errorf("SpanFromContext = (%d, %d, %q), want (%d, %d, get)", spanID, traceID, op, child.id, root.id)
	}
	if grand.trace != root.id || child.trace != root.id {
		t.Errorf("descendant traces = %d, %d; want the root id %d", grand.trace, child.trace, root.id)
	}
	grand.End(nil)
	child.End(nil)
	root.End(nil)
	for _, r := range closedSpans(o) {
		if r.Trace != root.id {
			t.Errorf("span %s trace = %d, want %d", r.Name, r.Trace, root.id)
		}
	}
}

// TestLoadTelemetry: the transfer engine's load gauges record exactly what
// the engine hands them — per-CSP in-flight and the global admission-queue
// depth. The observer only records them; the engine reads its load (and
// keeps its high-water mark, Engine.PeakInFlight) from its own semaphore.
func TestLoadTelemetry(t *testing.T) {
	o := NewObserver()
	o.TransferInFlight("cspa", 3)
	o.TransferInFlight("cspa", 1)
	o.TransferQueueDepth(7)
	s := o.Registry().Snapshot()
	for _, c := range []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{MetricTransferInFlight, map[string]string{"csp": "cspa"}, 1},
		{MetricTransferQueueDepth, nil, 7},
	} {
		if p, ok := s.Find(c.name, c.labels); !ok || p.Value != c.want {
			t.Errorf("%s%v = %+v (found=%v), want %v", c.name, c.labels, p, ok, c.want)
		}
	}
}

// TestNewFamiliesExposition extends the golden-exposition coverage to the
// transfer in-flight gauge and the trigger counter: exact Prometheus 0.0.4
// sample lines must appear in the rendered text.
func TestNewFamiliesExposition(t *testing.T) {
	o := NewObserver()
	o.TransferInFlight("cspa", 1)
	o.FlightDump(TriggerManual, "exposition")

	var b strings.Builder
	o.Registry().WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		"# TYPE " + MetricTransferInFlight + " gauge",
		MetricTransferInFlight + `{csp="cspa"} 1`,
		MetricFlightTriggers + `{reason="manual"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestRecorderConcurrency hammers the recorder's trigger path from many
// goroutines — spans closing (latency checks), attempts, retries, hedges,
// CSP transitions, and dump readers all at once. Run under -race this is
// the flight recorder's thread-safety proof.
func TestRecorderConcurrency(t *testing.T) {
	o := NewObserver()
	o.rec.triggerMultiple = 2
	o.rec.triggerMinSamples = 2
	o.rec.capacity = 256
	o.rec.maxDumps = 4
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cspName := fmt.Sprintf("csp%d", w%3)
			for i := 0; i < iters; i++ {
				ctx, sp := o.StartOp(context.Background(), "get")
				o.AttemptStart(ctx, cspName, "download", 0)
				o.AttemptEnd(ctx, cspName, "download", 0, 128, time.Millisecond, nil)
				o.TransferRetry(ctx, cspName, "download")
				o.TransferHedge(ctx)
				o.TransferInFlight(cspName, i%4)
				o.CSPRequest(cspName, nil, time.Millisecond)
				o.CSPDownState(cspName, i%7 == 0)
				o.PipelineStall(ctx, "put")
				sp.End(nil)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			o.FlightDump(TriggerManual, "reader")
			_ = o.FlightEvents()
			_ = o.FlightDumps()
			_ = o.OpenSpans()
			var b strings.Builder
			o.Registry().WritePrometheus(&b)
		}
	}()
	wg.Wait()
	if len(o.FlightEvents()) == 0 {
		t.Fatal("no events recorded under concurrency")
	}
	s := o.Registry().Snapshot()
	if p, ok := s.Find(MetricOpDuration, map[string]string{"op": "get", "result": "ok"}); !ok || int(p.Count) != workers*iters {
		t.Errorf("op_duration{get,ok} count = %+v (found=%v), want %d", p, ok, workers*iters)
	}
}
