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

func TestSpanHierarchyAndOpMetrics(t *testing.T) {
	o := NewObserver()
	clk := &fakeClock{t: time.Date(2015, 4, 21, 0, 0, 0, 0, time.UTC)}
	o.SetClock(clk.now)

	ctx, op := o.StartOp(context.Background(), "put")
	clk.advance(10 * time.Millisecond)
	_, child := Trace(ctx, "chunk.scatter") // found via context observer
	clk.advance(30 * time.Millisecond)
	child.End(nil)
	op.End(nil)

	recs := o.RecentSpans()
	if len(recs) != 2 {
		t.Fatalf("got %d spans, want 2", len(recs))
	}
	// Ring is oldest-first: the child ended before the op.
	if recs[0].Name != "chunk.scatter" || recs[1].Name != "core.put" {
		t.Fatalf("span order = %q, %q", recs[0].Name, recs[1].Name)
	}
	if recs[0].Parent != recs[1].ID {
		t.Errorf("child parent = %d, want op id %d", recs[0].Parent, recs[1].ID)
	}
	if recs[0].Duration != 30*time.Millisecond {
		t.Errorf("child duration = %v, want 30ms (virtual)", recs[0].Duration)
	}
	if recs[1].Duration != 40*time.Millisecond {
		t.Errorf("op duration = %v, want 40ms (virtual)", recs[1].Duration)
	}

	s := o.Registry().Snapshot()
	p, ok := s.Find(MetricOpsTotal, map[string]string{"op": "put", "result": "ok"})
	if !ok || p.Value != 1 {
		t.Errorf("ops_total{op=put,result=ok} = %+v, %v; want 1", p, ok)
	}
	p, ok = s.Find(MetricOpDuration, map[string]string{"op": "put"})
	if !ok || p.Count != 1 {
		t.Errorf("op_duration{op=put} = %+v, %v; want count 1", p, ok)
	}
	p, ok = s.Find(MetricSpanDuration, map[string]string{"span": "chunk.scatter"})
	if !ok || p.Count != 1 {
		t.Errorf("span_duration{span=chunk.scatter} = %+v, %v; want count 1", p, ok)
	}
}

func TestSpanErrorResult(t *testing.T) {
	o := NewObserver()
	_, sp := o.StartOp(context.Background(), "get")
	sp.End(errors.New("boom"))
	s := o.Registry().Snapshot()
	if p, ok := s.Find(MetricOpsTotal, map[string]string{"op": "get", "result": "error"}); !ok || p.Value != 1 {
		t.Errorf("ops_total{op=get,result=error} = %+v, %v; want 1", p, ok)
	}
	recs := o.RecentSpans()
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
	_, sp3 := Trace(context.Background(), "y") // no observer in context
	sp3.End(nil)
	o.CSPRequest("a", nil, time.Second)
	o.CSPDownState("a", true)
	o.CSPBandwidth("a", 1, 1)
	o.TransferEvent("PUT", "a", "up", 10, nil)
	o.SelectorPick("a")
	o.SetClock(time.Now)
	if o.Registry() != nil || o.Health() != nil || o.RecentSpans() != nil {
		t.Error("nil observer leaked non-nil state")
	}
}

func TestSpanRingWraps(t *testing.T) {
	o := NewObserver()
	for i := 0; i < spanRingSize+10; i++ {
		_, sp := o.Trace(context.Background(), "s")
		sp.End(nil)
	}
	recs := o.RecentSpans()
	if len(recs) != spanRingSize {
		t.Fatalf("ring holds %d, want %d", len(recs), spanRingSize)
	}
	// Oldest-first: the first buffered span is the 11th started (id 11).
	if recs[0].ID != 11 {
		t.Errorf("oldest span id = %d, want 11", recs[0].ID)
	}
}
