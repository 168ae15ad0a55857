package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	o := NewObserverWith(Options{Recorder: RecorderConfig{
		TriggerMultiple:   2,
		TriggerMinSamples: 3,
		TriggerFloor:      10 * time.Millisecond,
	}})
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

// TestRecorderTriggerDisabled: a negative multiple turns the latency
// trigger off entirely.
func TestRecorderTriggerDisabled(t *testing.T) {
	clk := newFakeClock()
	o := NewObserverWith(Options{Recorder: RecorderConfig{
		TriggerMultiple:   -1,
		TriggerMinSamples: 1,
		TriggerFloor:      time.Millisecond,
	}})
	o.SetClock(clk.now)
	for i := 0; i < 5; i++ {
		opSpan(o, clk, "get", 10*time.Millisecond, nil)
	}
	opSpan(o, clk, "get", 10*time.Second, nil)
	if n := len(o.FlightDumps()); n != 0 {
		t.Errorf("disabled trigger produced %d dumps", n)
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
	o := NewObserverWith(Options{Recorder: RecorderConfig{Capacity: 8, MaxDumps: 2}})
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

// TestRecorderDumpDir: dumps are additionally written as JSON files when
// a directory is configured.
func TestRecorderDumpDir(t *testing.T) {
	dir := t.TempDir()
	o := NewObserverWith(Options{Recorder: RecorderConfig{DumpDir: dir}})
	_, sp := o.Trace(context.Background(), "x")
	sp.End(errors.New("boom"))
	o.FlightDump(TriggerManual, "test")
	data, err := os.ReadFile(filepath.Join(dir, "flight-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("dump file is not JSON: %v", err)
	}
	if d.Seq != 1 || len(d.Events) == 0 {
		t.Errorf("dump file = seq %d with %d events, want populated seq 1", d.Seq, len(d.Events))
	}
}

// TestOpenSpanPinning: long-lived parents stay visible in OpenSpans (and
// in dumps) regardless of how many finished children churn the span ring.
func TestOpenSpanPinning(t *testing.T) {
	o := NewObserver()
	ctx, parent := o.StartOp(context.Background(), "put")
	for i := 0; i < defaultSpanRing+50; i++ {
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

// TestSpanRingConfigurable: Options.SpanRing overrides the finished-span
// ring capacity.
func TestSpanRingConfigurable(t *testing.T) {
	o := NewObserverWith(Options{SpanRing: 4})
	for i := 0; i < 10; i++ {
		_, sp := o.Trace(context.Background(), "s")
		sp.End(nil)
	}
	if n := len(o.RecentSpans()); n != 4 {
		t.Errorf("ring holds %d spans, want the configured 4", n)
	}
}

// TestTraceIDPropagation: children inherit the root op span's ID as their
// trace, and a nested op re-roots.
func TestTraceIDPropagation(t *testing.T) {
	o := NewObserver()
	ctx, root := o.StartOp(context.Background(), "get")
	cctx, child := o.Trace(ctx, "chunk.gather")
	_, grand := o.Trace(cctx, "csp.download")
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
	recs := o.RecentSpans()
	for _, r := range recs {
		if r.Trace != root.id {
			t.Errorf("span %s trace = %d, want %d", r.Name, r.Trace, root.id)
		}
	}
}

// TestSLOClassification: ops are classified against their objective; the
// merge semantics (positive set, negative remove) hold.
func TestSLOClassification(t *testing.T) {
	clk := newFakeClock()
	o := NewObserverWith(Options{SLOObjectives: map[string]time.Duration{"put": 50 * time.Millisecond}})
	o.SetClock(clk.now)

	opSpan(o, clk, "put", 30*time.Millisecond, nil)
	opSpan(o, clk, "put", 80*time.Millisecond, nil)
	s := o.Registry().Snapshot()
	if p, ok := s.Find(MetricSLOOK, map[string]string{"op": "put"}); !ok || p.Value != 1 {
		t.Errorf("slo_ok{put} = %+v (found=%v), want 1", p, ok)
	}
	if p, ok := s.Find(MetricSLOBreach, map[string]string{"op": "put"}); !ok || p.Value != 1 {
		t.Errorf("slo_breach{put} = %+v (found=%v), want 1", p, ok)
	}
	if p, ok := s.Find(MetricSLOObjective, map[string]string{"op": "put"}); !ok || p.Value != 0.05 {
		t.Errorf("slo_objective{put} = %+v (found=%v), want 0.05", p, ok)
	}

	// A negative objective removes the default: the op is not tracked.
	o = NewObserverWith(Options{SLOObjectives: map[string]time.Duration{"put": -1}})
	o.SetClock(clk.now)
	opSpan(o, clk, "put", time.Hour, nil)
	if p, _ := o.Registry().Snapshot().Find(MetricSLOBreach, map[string]string{"op": "put"}); p.Value != 0 {
		t.Errorf("slo_breach{put} with the objective removed = %v, want 0", p.Value)
	}
	if obj := o.SLOObjectives(); obj["get"] != DefaultSLOObjectives["get"] {
		t.Errorf("default objective for get = %v, want %v", obj["get"], DefaultSLOObjectives["get"])
	}
}

// TestLoadTelemetry: in-flight updates and provider contacts sample the
// per-CSP window, with predicted completion stacking the EWMA behind the
// current in-flight count.
func TestLoadTelemetry(t *testing.T) {
	clk := newFakeClock()
	o := NewObserverWith(Options{Load: LoadConfig{Window: 4, SampleInterval: -1}})
	o.SetClock(clk.now)

	o.CSPRequest("cspa", nil, 100*time.Millisecond) // EWMA = 0.1s
	o.TransferInFlight("cspa", 3)
	loads := o.LoadStats()
	if len(loads) != 1 || loads[0].CSP != "cspa" {
		t.Fatalf("loads = %+v, want one cspa entry", loads)
	}
	cur := loads[0].Current
	if cur.InFlight != 3 || cur.EWMALatencySeconds != 0.1 {
		t.Errorf("current = %+v, want in-flight 3, ewma 0.1", cur)
	}
	if want := 0.1 * 4; cur.PredictedSeconds != want {
		t.Errorf("predicted = %v, want ewma x (1+inflight) = %v", cur.PredictedSeconds, want)
	}

	// The window is bounded: 10 more samples keep only the last 4.
	for i := 0; i < 10; i++ {
		clk.advance(time.Second)
		o.TransferInFlight("cspa", i)
	}
	loads = o.LoadStats()
	if n := len(loads[0].Window); n != 4 {
		t.Errorf("window holds %d samples, want 4", n)
	}
	if got := loads[0].Current.InFlight; got != 9 {
		t.Errorf("current in-flight = %d, want the last sample's 9", got)
	}
	s := o.Registry().Snapshot()
	if p, ok := s.Find(MetricLoadEWMA, map[string]string{"csp": "cspa"}); !ok || p.Value != 0.1 {
		t.Errorf("load_ewma{cspa} = %+v (found=%v), want 0.1", p, ok)
	}
	if _, ok := s.Find(MetricLoadPredicted, map[string]string{"csp": "cspa"}); !ok {
		t.Error("snapshot missing load_predicted gauge")
	}
}

// TestLoadSampleSpacing: the sample-interval gate drops samples that
// arrive faster than the window wants.
func TestLoadSampleSpacing(t *testing.T) {
	clk := newFakeClock()
	o := NewObserverWith(Options{Load: LoadConfig{Window: 16, SampleInterval: 100 * time.Millisecond}})
	o.SetClock(clk.now)
	for i := 0; i < 10; i++ {
		o.TransferInFlight("cspa", i) // same instant: only the first lands
	}
	if n := len(o.LoadStats()[0].Window); n != 1 {
		t.Errorf("window holds %d samples at one instant, want 1", n)
	}
	clk.advance(time.Second)
	o.TransferInFlight("cspa", 1)
	if n := len(o.LoadStats()[0].Window); n != 2 {
		t.Errorf("window holds %d samples after spacing elapsed, want 2", n)
	}
	// The decrement to idle bypasses the gate: without it the window's
	// newest sample would report the provider as loaded forever.
	o.TransferInFlight("cspa", 0)
	loads := o.LoadStats()
	if n := len(loads[0].Window); n != 3 {
		t.Errorf("window holds %d samples after idle transition, want 3", n)
	}
	if got := loads[0].Current.InFlight; got != 0 {
		t.Errorf("current in-flight after idle transition = %d, want 0", got)
	}
}

// TestNewFamiliesExposition extends the golden-exposition coverage to the
// SLO counters, objective gauge, load gauges, and trigger counter: exact
// Prometheus 0.0.4 sample lines must appear in the rendered text.
func TestNewFamiliesExposition(t *testing.T) {
	clk := newFakeClock()
	o := NewObserverWith(Options{
		SLOObjectives: map[string]time.Duration{"put": time.Second},
		// Both load events land at the same fake-clock instant; keep the
		// spacing gate from dropping the second.
		Load: LoadConfig{SampleInterval: -1},
	})
	o.SetClock(clk.now)

	opSpan(o, clk, "put", 500*time.Millisecond, nil) // ok
	opSpan(o, clk, "put", 2*time.Second, nil)        // breach
	o.CSPRequest("cspa", nil, 200*time.Millisecond)
	o.TransferInFlight("cspa", 1)
	o.FlightDump(TriggerManual, "exposition")

	var b strings.Builder
	o.Registry().WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		"# TYPE " + MetricSLOOK + " counter",
		MetricSLOOK + `{op="put"} 1`,
		MetricSLOBreach + `{op="put"} 1`,
		MetricSLOObjective + `{op="put"} 1`,
		"# TYPE " + MetricLoadEWMA + " gauge",
		MetricLoadEWMA + `{csp="cspa"} 0.2`,
		MetricLoadPredicted + `{csp="cspa"} 0.4`,
		MetricLoadSamples + `{csp="cspa"} 2`,
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
	o := NewObserverWith(Options{Recorder: RecorderConfig{
		TriggerMultiple:   2,
		TriggerMinSamples: 2,
		Capacity:          256,
		MaxDumps:          4,
	}})
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
				o.TransferHedge(ctx, "launched")
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
			_ = o.LoadStats()
			var b strings.Builder
			o.Registry().WritePrometheus(&b)
		}
	}()
	wg.Wait()
	if len(o.FlightEvents()) == 0 {
		t.Fatal("no events recorded under concurrency")
	}
	s := o.Registry().Snapshot()
	if p, ok := s.Find(MetricOpsTotal, map[string]string{"op": "get", "result": "ok"}); !ok || int(p.Value) != workers*iters {
		t.Errorf("ops_total{get,ok} = %+v (found=%v), want %d", p, ok, workers*iters)
	}
}
