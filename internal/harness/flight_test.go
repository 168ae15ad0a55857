package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transfer"
)

// TestFlightRecorderCapturesAnomaly is the acceptance scenario for the
// flight recorder: a virtual-time chaos run where one provider crashes
// (forcing retries and, once the lowered failure threshold elapses, a
// csp.down transition) and another's link collapses 10000× (forcing ops
// far past 8× their tens-of-milliseconds EWMA, which trips the
// latency-anomaly trigger, and launching hedged downloads). The run keeps
// the recorder's shipped thresholds, so it checks what ships; at a 1000×
// collapse the 8× multiple misses the anomaly at several seeds. The
// recorder must produce a latency-anomaly dump whose ring reconstructs the
// triggering operation's full event chain — span open, transfer attempts,
// and the triggering span close, stitched by trace ID — alongside the
// retry, hedge, and CSP down-transition events of the surrounding window.
//
// Run under -race in CI, this doubles as the concurrency proof for the
// trigger path: both workload clients feed one recorder from concurrent
// transfer goroutines while dumps snapshot it.
func TestFlightRecorderCapturesAnomaly(t *testing.T) {
	rep := runScenario(t, Options{
		Seed:    baseSeed(t),
		Virtual: true,
		Clients: 2,
		Ops:     150,
		// The estimator's 24h default would never mark a provider down
		// inside a run; one virtual second makes the crash window produce
		// the csp.down transition the recorder must capture.
		FailureThreshold: time.Second,
		// Slow uploads retrain the provider's latency EWMA before any
		// download can hedge against it, so the default multiple (3x the
		// expectation) never fires once the link is degraded. Hedging at
		// half the expectation keeps launching backups against the slow
		// link; the 50ms engine floor still suppresses hedges at healthy
		// netsim latencies.
		Transfer: transfer.Tunables{HedgeMultiple: 0.5},
		Schedule: Schedule{
			{At: 40, Act: Crash, CSP: "cspb"},
			{At: 65, Act: SlowLink, CSP: "cspc", Factor: 0.0001},
			{At: 110, Act: Restart, CSP: "cspb"},
			{At: 120, Act: RestoreLink, CSP: "cspc"},
		},
	})

	if len(rep.FlightDumps) == 0 {
		t.Fatal("chaos run produced no flight dumps")
	}

	// The induced latency anomaly must have fired the EWMA trigger.
	var latency *obs.FlightDump
	for i := range rep.FlightDumps {
		if strings.HasPrefix(rep.FlightDumps[i].Reason, obs.TriggerLatency) {
			latency = &rep.FlightDumps[i]
			break
		}
	}
	if latency == nil {
		reasons := make([]string, 0, len(rep.FlightDumps))
		for _, d := range rep.FlightDumps {
			reasons = append(reasons, d.Reason)
		}
		t.Fatalf("no latency-anomaly dump; dump reasons: %v", reasons)
	}
	if latency.Trigger == nil || latency.Trigger.Kind != obs.FlightSpanClose {
		t.Fatalf("latency dump trigger = %+v, want the closing op span", latency.Trigger)
	}
	if latency.Trace == 0 {
		t.Fatal("latency dump carries no trace ID")
	}

	// The triggering op's event chain must be reconstructable from the
	// dump by trace ID: the operation span opened, provider attempts ran
	// under it, and the anomalous close ends the chain, all in Seq order.
	var chain []obs.FlightEvent
	for _, ev := range latency.Events {
		if ev.Trace == latency.Trace {
			chain = append(chain, ev)
		}
	}
	kinds := map[string]int{}
	lastSeq := uint64(0)
	for _, ev := range chain {
		if ev.Seq <= lastSeq {
			t.Errorf("trace chain out of order: seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		kinds[ev.Kind]++
	}
	for _, want := range []string{obs.FlightSpanOpen, obs.FlightAttemptStart, obs.FlightAttemptEnd, obs.FlightSpanClose} {
		if kinds[want] == 0 {
			t.Errorf("trigger trace %d chain has no %s event (chain kinds: %v)", latency.Trace, want, kinds)
		}
	}
	if n := len(chain); n > 0 && chain[n-1].Seq != latency.Trigger.Seq {
		t.Errorf("chain does not end at the triggering close: last seq %d, trigger seq %d", chain[n-1].Seq, latency.Trigger.Seq)
	}

	// The chaos window's mechanics must all be on the record somewhere in
	// the retained dumps: the crash forced retries and a down transition,
	// the slow link forced a hedge launch.
	saw := map[string]bool{}
	for _, d := range rep.FlightDumps {
		for _, ev := range d.Events {
			saw[ev.Kind] = true
		}
	}
	for _, want := range []string{obs.FlightRetry, obs.FlightHedgeLaunch, obs.FlightCSPDown} {
		if !saw[want] {
			t.Errorf("no %s event in any retained dump", want)
		}
	}

	// The trigger counter agrees with the retained dumps.
	if rep.Metrics != nil {
		if p, ok := rep.Metrics.Find(obs.MetricFlightTriggers, map[string]string{"reason": obs.TriggerLatency}); !ok || p.Value == 0 {
			// Dumps can outnumber the end-of-workload snapshot only if the
			// trigger fired during the checkpoint; the latency trigger
			// fires from workload spans, so it must be visible here.
			t.Errorf("cyrus_flight_triggers_total{reason=%s} = %+v (found=%v), want > 0", obs.TriggerLatency, p, ok)
		}
	}
}
