package harness

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transfer"
)

// stormOptions is the redundancy-storm scenario: a virtual-time chaos run
// on a deliberately tiny transfer engine (two in-flight slots for a
// multi-chunk workload, so the admission queue sits past the hedge
// crossover for most of every Get) while provider links take turns
// collapsing to 5% bandwidth — the flap pattern that makes latency
// estimates stale and tempts the hedger exactly when redundancy is least
// affordable.
func stormOptions(seed int64, tweak func(*transfer.Tunables)) Options {
	tun := transfer.Tunables{
		MaxInFlight:     2,
		HedgeMinSamples: 4,
	}
	if tweak != nil {
		tweak(&tun)
	}
	return Options{
		Seed:     seed,
		Virtual:  true,
		Clients:  2,
		Ops:      120,
		Transfer: tun,
		Schedule: Schedule{
			{At: 10, Act: SlowLink, CSP: "cspa", Factor: 0.05},
			{At: 30, Act: RestoreLink, CSP: "cspa"},
			{At: 30, Act: SlowLink, CSP: "cspc", Factor: 0.05},
			{At: 50, Act: RestoreLink, CSP: "cspc"},
			{At: 50, Act: SlowLink, CSP: "cspe", Factor: 0.05},
			{At: 70, Act: RestoreLink, CSP: "cspe"},
			{At: 70, Act: SlowLink, CSP: "cspb", Factor: 0.05},
			{At: 90, Act: RestoreLink, CSP: "cspb"},
			{At: 90, Act: Checkpoint},
		},
	}
}

// p99BucketIndex returns the index of the first histogram bucket whose
// cumulative count covers the 99th percentile (len(buckets) when even the
// last bound does not, i.e. the overflow bucket).
func p99BucketIndex(p obs.MetricPoint) int {
	need := uint64(float64(p.Count)*0.99 + 0.5)
	for i, b := range p.Buckets {
		if b.Count >= need {
			return i
		}
	}
	return len(p.Buckets)
}

// TestRedundancyStorm drives the redundancy-storm scenario twice — once
// with the load-adaptive hedge controller live, once under a hedge policy
// that never hedges — and checks the control loop's oracle on top of the
// usual invariant sweep: the loop must actually suppress hedges while the engine queue is
// past the crossover, and the suppression must keep the Get tail within
// one histogram bucket of the unhedged baseline (a hedge storm on the
// two-slot engine blows far past that).
func TestRedundancyStorm(t *testing.T) {
	seed := baseSeed(t)
	adaptive := runScenario(t, stormOptions(seed, nil))
	baseline := runScenario(t, stormOptions(seed, func(tun *transfer.Tunables) {
		tun.HedgePolicy = func(string, time.Duration) time.Duration { return 0 }
	}))
	if t.Failed() { // invariant violations already reported
		return
	}
	if adaptive.Metrics == nil || baseline.Metrics == nil {
		t.Fatal("run report carries no metrics snapshot")
	}

	// The loop closed: hedges were withheld because of load, not chance.
	s := *adaptive.Metrics
	suppressed := 0.0
	for _, p := range s.Metrics {
		if p.Name == obs.MetricHedgeSuppressed && p.Labels["reason"] == "load" {
			suppressed += p.Value
		}
	}
	if suppressed == 0 {
		t.Error("no load-reason hedge suppression on a two-slot engine under flapping links — the crossover gate never fired")
	}

	// Tail bound: adaptive hedging may not degrade the Get tail by more
	// than one bucket (2.5x bound step) against the unhedged baseline.
	ap, ok := s.Find(obs.MetricOpDuration, map[string]string{"op": "get"})
	if !ok || ap.Count == 0 {
		t.Fatal("adaptive run recorded no get-latency histogram")
	}
	bp, ok := baseline.Metrics.Find(obs.MetricOpDuration, map[string]string{"op": "get"})
	if !ok || bp.Count == 0 {
		t.Fatal("baseline run recorded no get-latency histogram")
	}
	ai, bi := p99BucketIndex(ap), p99BucketIndex(bp)
	if ai > bi+1 {
		t.Errorf("adaptive get p99 falls in bucket %d, unhedged baseline in bucket %d: suppression failed to contain the storm", ai, bi)
	}
}
