package obs

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock is a settable clock for deterministic durations.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// closedSpans returns the span.close events of the flight ring, oldest
// first.
func closedSpans(o *Observer) []FlightEvent {
	var out []FlightEvent
	for _, ev := range o.FlightEvents() {
		if ev.Kind == FlightSpanClose {
			out = append(out, ev)
		}
	}
	return out
}

func TestSpanHierarchyAndOpMetrics(t *testing.T) {
	o := NewObserver()
	clk := &fakeClock{t: time.Date(2015, 4, 21, 0, 0, 0, 0, time.UTC)}
	o.SetClock(clk.now)

	ctx, op := o.StartOp(context.Background(), "put")
	clk.advance(10 * time.Millisecond)
	_, child := o.Trace(ctx, "chunk.scatter")
	clk.advance(30 * time.Millisecond)
	if open := o.OpenSpans(); len(open) != 2 || open[1].Parent != open[0].ID {
		t.Errorf("open spans = %+v, want the op and its child", open)
	}
	child.End(nil)
	op.End(nil)

	recs := closedSpans(o)
	if len(recs) != 2 {
		t.Fatalf("got %d spans, want 2", len(recs))
	}
	// Ring is oldest-first: the child ended before the op.
	if recs[0].Name != "chunk.scatter" || recs[1].Name != "core.put" {
		t.Fatalf("span order = %q, %q", recs[0].Name, recs[1].Name)
	}
	if recs[0].Duration != 30*time.Millisecond {
		t.Errorf("child duration = %v, want 30ms (virtual)", recs[0].Duration)
	}
	if recs[1].Duration != 40*time.Millisecond {
		t.Errorf("op duration = %v, want 40ms (virtual)", recs[1].Duration)
	}

	s := o.Registry().Snapshot()
	p, ok := s.Find(MetricOpDuration, map[string]string{"op": "put", "result": "ok"})
	if !ok || p.Count != 1 {
		t.Errorf("op_duration{op=put,result=ok} = %+v, %v; want count 1", p, ok)
	}
	p, ok = s.Find(MetricSpanDuration, map[string]string{"span": "chunk.scatter"})
	if !ok || p.Count != 1 {
		t.Errorf("span_duration{span=chunk.scatter} = %+v, %v; want count 1", p, ok)
	}
	// The op span is recorded once, in the op histogram only.
	if p, ok := s.Find(MetricSpanDuration, map[string]string{"span": "core.put"}); ok {
		t.Errorf("span_duration{span=core.put} = %+v: the op span is recorded twice", p)
	}
}

func TestSpanErrorResult(t *testing.T) {
	o := NewObserver()
	_, sp := o.StartOp(context.Background(), "get")
	sp.End(errors.New("boom"))
	s := o.Registry().Snapshot()
	if p, ok := s.Find(MetricOpDuration, map[string]string{"op": "get", "result": "error"}); !ok || p.Count != 1 {
		t.Errorf("op_duration{op=get,result=error} = %+v, %v; want count 1", p, ok)
	}
	recs := closedSpans(o)
	if len(recs) != 1 || recs[0].Err != "boom" {
		t.Errorf("span record = %+v, want Err=boom", recs)
	}
}

func TestNilObserverIsInert(t *testing.T) {
	var o *Observer
	ctx, sp := o.StartOp(context.Background(), "put")
	sp.End(nil) // must not panic
	_, sp2 := o.Trace(ctx, "x")
	sp2.End(errors.New("e"))
	o.CSPRequest("a", nil, time.Second)
	o.CSPDownState("a", true)
	o.CSPLink("a", 1, 1, 1)
	o.TransferBytes("a", "up", 10)
	o.SelectorPick("a")
	o.Note(ctx, "meta.replaced", "records=1")
	o.PipelineBufferBytes(1)
	o.SetClock(time.Now)
	if o.Registry() != nil || o.FlightEvents() != nil || o.OpenSpans() != nil {
		t.Error("nil observer leaked non-nil state")
	}
}
