package obs

import (
	"sync"
	"time"
)

// Per-operation SLO tracking. Every top-level operation span that closes is
// checked against a per-op latency objective; the outcome feeds two burn
// counters (cyrus_slo_ok_total / cyrus_slo_breach_total, both labelled by
// op) and the objective itself is exported as a gauge so dashboards can
// compute burn rates without out-of-band configuration. Ops with no
// configured objective are not tracked — silence, not a default pass.

// DefaultSLOObjectives are the per-op latency objectives applied when the
// caller configures none. They are intentionally loose client-side targets
// for WAN-dispersed storage; netsim experiments override them via
// Options.SLOObjectives.
var DefaultSLOObjectives = map[string]time.Duration{
	"put":       5 * time.Second,
	"get":       2 * time.Second,
	"get_range": 2 * time.Second,
	"sync":      2 * time.Second,
	"delete":    2 * time.Second,
	"migrate":   10 * time.Second,
	"gc":        10 * time.Second,
}

// sloTracker owns the objective table and the burn counters. It is nil on
// a nil Observer and its methods are only called from Span.End, which is
// already nil-guarded.
type sloTracker struct {
	okTotal     *CounterVec // cyrus_slo_ok_total{op}
	breachTotal *CounterVec // cyrus_slo_breach_total{op}
	objective   *GaugeVec   // cyrus_slo_objective_seconds{op}

	mu  sync.RWMutex
	obj map[string]time.Duration
}

func newSLOTracker(reg *Registry, objectives map[string]time.Duration) *sloTracker {
	t := &sloTracker{
		okTotal:     reg.Counter(MetricSLOOK, "Operations that finished within their latency objective, by op.", "op"),
		breachTotal: reg.Counter(MetricSLOBreach, "Operations that exceeded their latency objective, by op.", "op"),
		objective:   reg.Gauge(MetricSLOObjective, "Configured per-op latency objective in seconds.", "op"),
		obj:         make(map[string]time.Duration),
	}
	t.merge(DefaultSLOObjectives)
	t.merge(objectives)
	return t
}

// merge folds objectives into the table: positive durations set or replace
// an objective, negative ones remove the op from tracking, zero is ignored
// (so sparse override maps leave defaults intact).
func (t *sloTracker) merge(objectives map[string]time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for op, d := range objectives {
		switch {
		case d > 0:
			t.obj[op] = d
			t.objective.With(op).Set(d.Seconds())
		case d < 0:
			delete(t.obj, op)
			t.objective.With(op).Set(0)
		}
	}
}

// observe classifies one finished operation against its objective.
func (t *sloTracker) observe(op string, elapsed time.Duration) {
	t.mu.RLock()
	obj, ok := t.obj[op]
	t.mu.RUnlock()
	if !ok {
		return
	}
	if elapsed <= obj {
		t.okTotal.With(op).Inc()
	} else {
		t.breachTotal.With(op).Inc()
	}
}

// SLOObjectives returns a copy of the current objective table. Nil-safe.
func (o *Observer) SLOObjectives() map[string]time.Duration {
	if o == nil || o.slo == nil {
		return nil
	}
	o.slo.mu.RLock()
	defer o.slo.mu.RUnlock()
	out := make(map[string]time.Duration, len(o.slo.obj))
	for op, d := range o.slo.obj {
		out[op] = d
	}
	return out
}
