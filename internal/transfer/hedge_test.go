package transfer

import (
	"context"
	"testing"
	"time"

	"repro/internal/csp"
	"repro/internal/obs"
)

// warm feeds n successful contacts into the observer's scoreboard so the
// provider's EWMA is armed with the given latency.
func warm(o *obs.Observer, cspName string, n int, latency time.Duration) {
	for i := 0; i < n; i++ {
		o.CSPRequest(cspName, nil, latency)
	}
}

// TestHedgeColdStartArming is the cold-start hedge-storm regression: a
// provider whose EWMA was seeded by a single anomalously fast sample must
// not arm hedging until hedgeMinSamples successes have been observed.
func TestHedgeColdStartArming(t *testing.T) {
	ctx := context.Background()
	o := obs.NewObserver()
	e, _ := newSimEngine(Tunables{}, o)

	// One fast sample: the pre-fix engine would hedge off this EWMA.
	warm(o, "cspa", 1, time.Millisecond)
	if got := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got != 0 {
		t.Fatalf("cold provider armed a hedge: HedgeAfter = %v, want 0", got)
	}
	if st := e.HedgeState("cspa"); st != "cold" {
		t.Fatalf("HedgeState = %q, want cold", st)
	}
	p, ok := o.Registry().Snapshot().Find(obs.MetricHedgeSuppressed, map[string]string{"csp": "cspa", "reason": "cold"})
	if !ok || p.Value < 1 {
		t.Fatalf("hedge_suppressed{cspa,cold} = %v %v, want >= 1", p.Value, ok)
	}

	warm(o, "cspa", hedgeMinSamples-2, time.Millisecond)
	if got := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got != 0 {
		t.Fatalf("provider one success short of arming armed: HedgeAfter = %v", got)
	}
	warm(o, "cspa", 1, time.Millisecond)
	if got := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got == 0 {
		t.Fatal("provider with hedgeMinSamples successes did not arm")
	}
	if st := e.HedgeState("cspa"); st != "" {
		t.Fatalf("armed provider HedgeState = %q, want \"\"", st)
	}
}

// TestHedgeLoadSuppression: once the engine's admission queue crosses
// hedgeLoadThreshold x MaxInFlight, hedges are withheld (Ghosh's
// crossover) and counted; redundant race lanes are refused too.
func TestHedgeLoadSuppression(t *testing.T) {
	ctx := context.Background()
	o := obs.NewObserver()
	e, nw := newSimEngine(Tunables{MaxInFlight: 8}, o)
	warm(o, "cspa", hedgeMinSamples, 10*time.Millisecond)

	nw.Run(func() {
		if got := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got == 0 {
			t.Error("idle engine suppressed a hedge")
		}
		// 4 run (the per-provider cap), 6 queue: 6 >= 0.75 x 8.
		release := park(e, nw, "cspa", 10)
		if got := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got != 0 {
			t.Errorf("overloaded engine armed a hedge: HedgeAfter = %v, want 0", got)
		}
		if st := e.HedgeState("cspa"); st != "load" {
			t.Errorf("HedgeState = %q, want load", st)
		}
		if e.LoadPermits() {
			t.Error("LoadPermits = true past the crossover")
		}
		release()
		if got := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got == 0 {
			t.Error("drained engine still suppressed")
		}
	})
	p, ok := o.Registry().Snapshot().Find(obs.MetricHedgeSuppressed, map[string]string{"csp": "cspa", "reason": "load"})
	if !ok || p.Value < 1 {
		t.Fatalf("hedge_suppressed{cspa,load} = %v %v, want >= 1", p.Value, ok)
	}
}

// TestHedgeDeadlineTracksLoad: the trigger delay scales with the
// provider's in-flight attempts — expected x (1 + inFlight), the Ghosh
// predicted completion — instead of the open-loop EWMA multiple.
func TestHedgeDeadlineTracksLoad(t *testing.T) {
	ctx := context.Background()
	o := obs.NewObserver()
	e, nw := newSimEngine(Tunables{HedgeMultiple: 3}, o)
	warm(o, "cspa", hedgeMinSamples, 10*time.Millisecond)

	nw.Run(func() {
		idle := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond)
		if idle != 300*time.Millisecond {
			t.Errorf("idle deadline = %v, want 300ms", idle)
		}
		release := park(e, nw, "cspa", 3)
		if loaded := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); loaded != 4*idle {
			t.Errorf("deadline under 3 in flight = %v, want %v", loaded, 4*idle)
		}
		release()
	})

	// An injected open-loop policy sets the deadline regardless of load.
	st, nw := newSimEngine(Tunables{HedgePolicy: func(_ string, expected time.Duration) time.Duration {
		return 3 * expected
	}}, o)
	nw.Run(func() {
		release := park(st, nw, "cspa", 3)
		if got := st.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got != 300*time.Millisecond {
			t.Errorf("static deadline = %v, want 300ms", got)
		}
		release()
	})
}

// TestSharedObserverDoesNotSteer: clients may share one observer, but each
// engine's hedge and race gates read only its own load. With engine A
// saturated (4 running, 4 queued on cspa), an idle engine B on the same
// observer still permits redundancy and keeps its idle hedge deadline.
func TestSharedObserverDoesNotSteer(t *testing.T) {
	ctx := context.Background()
	o := obs.NewObserver()
	a, nw := newSimEngine(Tunables{MaxInFlight: 4}, o)
	b, _ := newSimEngine(Tunables{MaxInFlight: 4}, o)
	warm(o, "cspa", hedgeMinSamples, 10*time.Millisecond)
	idle := b.HedgeAfter(ctx, "cspa", 100*time.Millisecond)

	nw.Run(func() {
		release := park(a, nw, "cspa", 8)
		defer release()
		if a.LoadPermits() {
			t.Error("saturated engine A permits redundancy")
		}
		if !b.LoadPermits() {
			t.Error("idle engine B withholds redundancy on A's queue")
		}
		if st := b.HedgeState("cspa"); st == "load" {
			t.Errorf("idle engine B HedgeState = %q, want not load", st)
		}
		if got := b.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got != idle {
			t.Errorf("idle engine B HedgeAfter = %v under A's load, want its idle %v", got, idle)
		}
	})
}

// TestHedgeAdaptiveMultiple: wins shrink a provider's effective multiple,
// losses stretch it, and both respect the [base/2, base x 4] bounds.
func TestHedgeAdaptiveMultiple(t *testing.T) {
	h := newHedgeController(3)
	if got := h.multiple("cspa"); got != 3 {
		t.Fatalf("fresh multiple = %v, want base 3", got)
	}
	h.outcome("cspa", true)
	if got := h.multiple("cspa"); got >= 3 {
		t.Fatalf("multiple after a win = %v, want < 3", got)
	}
	for i := 0; i < 100; i++ {
		h.outcome("cspa", true)
	}
	if got := h.multiple("cspa"); got != 1.5 {
		t.Fatalf("win-saturated multiple = %v, want floor 1.5", got)
	}
	for i := 0; i < 100; i++ {
		h.outcome("cspa", false)
	}
	if got := h.multiple("cspa"); got != 12 {
		t.Fatalf("loss-saturated multiple = %v, want cap 12", got)
	}
	if got := h.multiple("cspb"); got != 3 {
		t.Fatalf("untouched provider multiple = %v, want base 3", got)
	}
}

// TestHedgeOutcomeAccounting: a backup win and a wasted hedge both feed
// the per-CSP win/loss counters and move the adaptive multiple.
func TestHedgeOutcomeAccounting(t *testing.T) {
	o := obs.NewObserver()
	e, nw := newOneTryEngine(Tunables{}, o)
	o.SetClock(nw.Now)

	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()

		// Slow primary, fast backup: the backup wins.
		slow := Attempt{CSP: "slowcsp", Kind: "download", Run: func(ctx context.Context) (int64, error) {
			nw.Sleep(500 * time.Millisecond)
			return 1, nil
		}}
		backup := func() (Attempt, bool) {
			return sleepAttempt(nw, "fastcsp", time.Millisecond), true
		}
		if err := op.Gather(op.Context(), hedged(slow, 10*time.Millisecond, backup)); err != nil {
			t.Errorf("hedged (backup wins): %v", err)
		}

		// Fast primary, slow backup: the hedge launches and is wasted.
		fast := sleepAttempt(nw, "okcsp", 50*time.Millisecond)
		slowBackup := func() (Attempt, bool) {
			return sleepAttempt(nw, "slowcsp", time.Second), true
		}
		if err := op.Gather(op.Context(), hedged(fast, 10*time.Millisecond, slowBackup)); err != nil {
			t.Errorf("hedged (primary wins): %v", err)
		}
	})

	s := o.Registry().Snapshot()
	if p, ok := s.Find(obs.MetricHedgeWins, map[string]string{"csp": "slowcsp"}); !ok || p.Value != 1 {
		t.Errorf("hedge_wins{slowcsp} = %v %v, want 1", p.Value, ok)
	}
	if p, ok := s.Find(obs.MetricHedgeLosses, map[string]string{"csp": "okcsp"}); !ok || p.Value != 1 {
		t.Errorf("hedge_losses{okcsp} = %v %v, want 1", p.Value, ok)
	}
	if got, base := e.HedgeMultipleFor("slowcsp"), 3.0; got >= base {
		t.Errorf("winner's primary multiple = %v, want < %v", got, base)
	}
	if got, base := e.HedgeMultipleFor("okcsp"), 3.0; got <= base {
		t.Errorf("loser's primary multiple = %v, want > %v", got, base)
	}
}

// TestRaceQuorum: a 2-of-3 race resolves on the second success, losers
// drain afterwards, and late completions are accounted as cancelled-byte
// waste.
func TestRaceQuorum(t *testing.T) {
	o := obs.NewObserver()
	e, nw := newOneTryEngine(Tunables{}, o)
	o.SetClock(nw.Now)

	att := func(name string, d time.Duration, bytes int64) Attempt {
		return Attempt{CSP: name, Kind: "download", Run: func(ctx context.Context) (int64, error) {
			nw.Sleep(d)
			return bytes, nil
		}}
	}
	var resolved time.Duration
	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		start := nw.Now()
		atts := []Attempt{
			att("cspa", 10*time.Millisecond, 100),
			att("cspb", 20*time.Millisecond, 100),
			att("cspc", 500*time.Millisecond, 100),
		}
		if err := op.Gather(op.Context(), Gather{Need: 2, Primary: atts}); err != nil {
			t.Errorf("race: %v", err)
		}
		resolved = nw.Now().Sub(start)
		// Let the loser drain so its waste is recorded.
		nw.Sleep(time.Second)
	})

	if resolved > 100*time.Millisecond {
		t.Errorf("race resolved after %v, want ~20ms (did it wait for the loser?)", resolved)
	}
	s := o.Registry().Snapshot()
	if p, ok := s.Find(obs.MetricRaceCancelledBytes, map[string]string{"csp": "cspc"}); !ok || p.Value != 100 {
		t.Errorf("race_cancelled_bytes{cspc} = %v %v, want 100", p.Value, ok)
	}
}

// TestRaceRedundantLane: extra lanes pull from the candidate supply at
// t=0, are counted as launched, and let the race survive a primary that
// never answers usefully.
func TestRaceRedundantLane(t *testing.T) {
	o := obs.NewObserver()
	e, nw := newOneTryEngine(Tunables{}, o)
	o.SetClock(nw.Now)

	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		atts := []Attempt{
			sleepAttempt(nw, "cspa", 10*time.Millisecond),
			{CSP: "deadcsp", Kind: "download", Run: func(ctx context.Context) (int64, error) {
				return 0, csp.ErrUnavailable
			}},
		}
		served := false
		next := func() (Attempt, bool) {
			if served {
				return Attempt{}, false
			}
			served = true
			return sleepAttempt(nw, "cspb", 15*time.Millisecond), true
		}
		if err := op.Gather(op.Context(), Gather{Need: 2, Primary: atts, Race: 1, Next: next}); err != nil {
			t.Errorf("race with redundant lane: %v", err)
		}
	})

	s := o.Registry().Snapshot()
	if p, ok := s.Find(obs.MetricRaceLaunched, map[string]string{"csp": "cspb"}); !ok || p.Value != 1 {
		t.Errorf("race_launched{cspb} = %v %v, want 1", p.Value, ok)
	}
}

// TestRaceExhaustion: fewer successes than the quorum yields the last
// meaningful provider error.
func TestRaceExhaustion(t *testing.T) {
	e, nw := newOneTryEngine(Tunables{}, nil)
	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		atts := []Attempt{
			sleepAttempt(nw, "cspa", time.Millisecond),
			{CSP: "deadcsp", Kind: "download", Run: func(ctx context.Context) (int64, error) {
				return 0, csp.ErrUnavailable
			}},
		}
		err := op.Gather(op.Context(), Gather{Need: 2, Primary: atts, Next: func() (Attempt, bool) { return Attempt{}, false }})
		if err == nil {
			t.Error("race below quorum returned nil")
		}
	})
}

// TestRaceSuppressedExtras: past the load crossover, redundant lanes are
// not launched — the race degrades to the primary fan-out.
func TestRaceSuppressedExtras(t *testing.T) {
	o := obs.NewObserver()
	e, nw := newOneTryEngine(Tunables{MaxInFlight: 8}, o)
	o.SetClock(nw.Now)

	nw.Run(func() {
		release := park(e, nw, "cspa", 10) // 6 queued: past 0.75 x 8
		defer release()
		op := e.Begin(context.Background())
		defer op.Finish()
		atts := []Attempt{sleepAttempt(nw, "cspc", time.Millisecond)}
		err := op.Gather(op.Context(), Gather{Need: 1, Primary: atts, Race: 2, Next: func() (Attempt, bool) {
			return sleepAttempt(nw, "cspb", time.Millisecond), true
		}})
		if err != nil {
			t.Errorf("race: %v", err)
		}
	})

	if p, ok := o.Registry().Snapshot().Find(obs.MetricRaceLaunched, map[string]string{"csp": "cspb"}); ok && p.Value != 0 {
		t.Errorf("race_launched{cspb} = %v under load, want 0", p.Value)
	}
}
