package harness

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/obs"
)

// TestMetricsSnapshot runs one scenario and checks the report carries a
// non-empty aggregate metrics snapshot with the core metric families. When
// CYRUS_METRICS_OUT is set the snapshot is written there as JSON — CI
// uploads it as a per-run artifact so scenario metrics are comparable
// across commits.
func TestMetricsSnapshot(t *testing.T) {
	rep := runScenario(t, Options{
		Seed: baseSeed(t),
		Schedule: Schedule{
			{At: 30, Act: Crash, CSP: "cspb"},
			{At: 90, Act: Restart, CSP: "cspb"},
		},
	})
	if rep.Metrics == nil || len(rep.Metrics.Metrics) == 0 {
		t.Fatal("report carries no metrics snapshot")
	}
	s := *rep.Metrics

	if p, ok := s.Find(obs.MetricOpDuration, map[string]string{"op": "put", "result": "ok"}); !ok || int(p.Count) != rep.Acked {
		t.Errorf("op_duration_seconds_count{op=put,result=ok} = %+v (found=%v), want %d (acked puts)", p, ok, rep.Acked)
	}
	for _, name := range []string{
		obs.MetricOpDuration,
		obs.MetricCSPRequestDuration,
		obs.MetricTransferBytes,
		obs.MetricSpanDuration,
	} {
		if _, ok := s.Find(name, nil); !ok {
			t.Errorf("snapshot missing family %s", name)
		}
	}
	// The crash left failed contacts behind.
	if p, ok := s.Find(obs.MetricCSPRequestDuration, map[string]string{"csp": "cspb", "result": "error"}); !ok || p.Count == 0 {
		t.Errorf("csp_request_duration_seconds_count{csp=cspb,result=error} = %+v (found=%v), want > 0 after crash window", p, ok)
	}

	if out := os.Getenv("CYRUS_METRICS_OUT"); out != "" {
		data, err := json.MarshalIndent(struct {
			Seed    int64        `json:"seed"`
			Acked   int          `json:"acked"`
			Ops     int          `json:"ops"`
			Metrics obs.Snapshot `json:"metrics"`
		}{Seed: baseSeed(t), Acked: rep.Acked, Ops: rep.Ops, Metrics: s}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("metrics snapshot written to %s (%d bytes)", out, len(data))
	}
}

// TestMetricsSnapshotDeterministic: two runs of the same scenario produce
// identical counter totals, and identical op and provider-request counts
// (the _count of those two histograms). Which provider serves a given download can vary
// with goroutine scheduling (selector tie-breaks on estimated bandwidth), so
// counters are aggregated across the csp label before comparing; per-op and
// per-event-type totals must match exactly. Pipeline stall counts are
// excluded entirely: whether the streaming scan loop blocks on a full
// window is a race between the scanner and the transfer goroutines, not a
// function of the seeded schedule. The SLO and flight-trigger counters are
// likewise excluded: they classify real-time latencies, which goroutine
// scheduling (not the seed) determines in a non-virtual run.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	opts := Options{Seed: baseSeed(t), Ops: 60}
	a := runScenario(t, opts)
	b := runScenario(t, opts)
	excluded := map[string]bool{
		obs.MetricPipelineStalls: true,
		obs.MetricSLOOK:          true,
		obs.MetricSLOBreach:      true,
		obs.MetricFlightTriggers: true,
	}
	counted := map[string]bool{obs.MetricOpDuration: true, obs.MetricCSPRequestDuration: true}
	counters := func(s *obs.Snapshot) map[string]float64 {
		out := map[string]float64{}
		for _, p := range s.Metrics {
			v := p.Value
			switch {
			case counted[p.Name]:
				v = float64(p.Count)
			case p.Type != "counter" || excluded[p.Name]:
				continue
			}
			key := p.Name
			for _, k := range []string{"op", "result", "type", "dir"} {
				if v, ok := p.Labels[k]; ok {
					key += "|" + k + "=" + v
				}
			}
			out[key] += v
		}
		return out
	}
	ca, cb := counters(a.Metrics), counters(b.Metrics)
	if len(ca) != len(cb) {
		t.Fatalf("counter sets differ: %d vs %d", len(ca), len(cb))
	}
	for k, v := range ca {
		if cb[k] != v {
			t.Errorf("counter %s: %v vs %v across identical runs", k, v, cb[k])
		}
	}
}
