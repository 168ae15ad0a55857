package harness

import (
	"fmt"
	"testing"

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
	h, rep := runHarness(t, Options{
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

	// runHarness already failed the test on any invariant violation
	// (durability, placement, privacy, convergence, ...). Here: each
	// client's engine must have kept the per-CSP cap.
	sawPeak := false
	for ci, c := range h.clients {
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("csp%c", 'a'+i)
			p := c.Engine().PeakInFlight(name)
			if p > 0 {
				sawPeak = true
			}
			if p > perCSP {
				t.Errorf("client %d: provider %s in-flight peak %d exceeds the cap %d", ci, name, p, perCSP)
			}
		}
	}
	if !sawPeak {
		t.Fatal("no engine recorded an in-flight attempt")
	}
	if rep.Acked == 0 {
		t.Fatal("no Put acknowledged under slow links")
	}
}
