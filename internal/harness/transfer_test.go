package harness

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/transfer"
)

// TestTransferCapsUnderSlowLinks is the chaos scenario for the transfer
// engine: a multi-client virtual-time workload where two providers' links
// collapse to a few percent of their bandwidth mid-run. The run must (a)
// keep every system-wide invariant — in particular all replicas converge —
// and (b) never exceed the engine's per-CSP in-flight cap on any provider,
// even while slow links pile transfers up behind the stragglers.
func TestTransferCapsUnderSlowLinks(t *testing.T) {
	const perCSP = 4 // the engine's per-provider cap
	rep := runScenario(t, Options{
		Seed:     baseSeed(t),
		Virtual:  true,
		Clients:  2,
		Ops:      90,
		Transfer: transfer.Tunables{MaxInFlight: 8},
		Schedule: Schedule{
			{At: 15, Act: SlowLink, CSP: "cspb", Factor: 0.05},
			{At: 30, Act: SlowLink, CSP: "cspd", Factor: 0.03},
			{At: 55, Act: RestoreLink, CSP: "cspb"},
			{At: 70, Act: RestoreLink, CSP: "cspd"},
		},
	})

	// runScenario already failed the test on any invariant violation
	// (durability, placement, privacy, convergence, ...). Here: the engine
	// must have kept the per-CSP cap. Both workload clients share the
	// observer, but every Set on the peak gauge carries one engine's own
	// high-water mark, so the snapshot value never legitimately exceeds
	// the cap.
	if rep.Metrics == nil {
		t.Fatal("report carries no metrics snapshot")
	}
	s := *rep.Metrics
	bound := float64(perCSP)
	sawPeak := false
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("csp%c", 'a'+i)
		p, ok := s.Find(obs.MetricTransferInFlightPeak, map[string]string{"csp": name})
		if !ok {
			continue
		}
		sawPeak = true
		if p.Value > bound {
			t.Errorf("provider %s in-flight peak %.0f exceeds bound %.0f (cap %d x 2 clients)",
				name, p.Value, bound, perCSP)
		}
	}
	if !sawPeak {
		t.Fatal("no per-CSP in-flight peak gauge in the snapshot — engine metrics not wired")
	}
	if rep.Acked == 0 {
		t.Fatal("no Put acknowledged under slow links")
	}
}
