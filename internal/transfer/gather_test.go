package transfer

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// TestGatherSchedules: a hedge and a race read are the same gather with the
// redundant lane issued at different times — a race is a hedge whose
// deadline is all but zero. Over the same attempts — a fast and a stalled
// primary, two fallbacks — both resolve on exactly Need distinct successes,
// the race earlier than the hedge.
func TestGatherSchedules(t *testing.T) {
	cases := []struct {
		name       string
		hedgeAfter time.Duration
		want       time.Duration
	}{
		{"hedge", 50 * time.Millisecond, 70 * time.Millisecond},
		{"race", time.Nanosecond, 20*time.Millisecond + time.Nanosecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, nw := newOneTryEngine(Tunables{}, nil)
			var mu sync.Mutex
			var landed []string
			att := func(name string, d time.Duration) Attempt {
				return Attempt{CSP: name, Kind: "download", Run: func(ctx context.Context) (int64, error) {
					nw.Sleep(d)
					mu.Lock()
					landed = append(landed, name)
					mu.Unlock()
					return 1, nil
				}}
			}
			fallback := []Attempt{att("cspc", 20*time.Millisecond), att("cspd", 30*time.Millisecond)}
			var got []string
			var took time.Duration
			nw.Run(func() {
				op := e.Begin(context.Background())
				defer op.Finish()
				start := nw.Now()
				err := op.Gather(op.Context(), Gather{
					Need:    2,
					Primary: []Attempt{att("cspa", 10*time.Millisecond), att("cspb", 500*time.Millisecond)},
					Next: func() (Attempt, bool) {
						if len(fallback) == 0 {
							return Attempt{}, false
						}
						a := fallback[0]
						fallback = fallback[1:]
						return a, true
					},
					HedgeAfter: []time.Duration{tc.hedgeAfter, tc.hedgeAfter},
				})
				if err != nil {
					t.Errorf("gather: %v", err)
				}
				took = nw.Now().Sub(start)
				mu.Lock()
				got = append([]string(nil), landed...)
				mu.Unlock()
			})
			sort.Strings(got)
			if strings.Join(got, ",") != "cspa,cspc" {
				t.Errorf("successes at resolution = %v, want exactly [cspa cspc]", got)
			}
			if took != tc.want {
				t.Errorf("resolved after %v, want %v", took, tc.want)
			}
		})
	}
}

// TestGatherNoLane: a gather that can start no lane — no primary, so no
// primary for a hedge to back up either — reports exhaustion instead of
// parking on its latch forever, however full its fallback supply. Real
// clock, so a hang is a hang (netsim would panic on the deadlock instead).
func TestGatherNoLane(t *testing.T) {
	e := New(Config{Runtime: vclock.Real()})
	supply := func() (Attempt, bool) { return sleepAttempt(vclock.Real(), "cspa", 0), true }

	for name, g := range map[string]Gather{
		"nothing asked": {Need: 1, Next: supply},
		"hedge asked":   {Need: 1, Next: supply, HedgeAfter: []time.Duration{time.Nanosecond}},
	} {
		op := e.Begin(context.Background())
		done := make(chan error, 1)
		go func() { done <- op.Gather(op.Context(), g) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: gather with no lane returned nil", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: gather with no lane never returned", name)
		}
		op.Finish()
	}
}

// TestGatherQueuedLoserNeverRuns: a gather loser still waiting for its slot
// when the gather resolves is not made. One slot per provider; the primary
// on cspb holds it until it sees the cancellation, and the race lane (a
// hedge at 1 ns) that draws cspb from the fallback supply queues behind it.
// Once cspa's primary resolves the gather, the queued attempt gets the slot
// with a dead context: its Run must never be called, and cspb must have no
// record of it — only the blocking loser's cancelled try.
func TestGatherQueuedLoserNeverRuns(t *testing.T) {
	o := obs.NewObserver()
	nw := netsim.New(time.Time{})
	o.SetClock(nw.Now)
	var mu sync.Mutex
	reports := map[string]int{} // csp -> failed tries reported
	e := New(Config{Runtime: nw, Obs: o, Report: func(cspName, _ string, err error, _ int64, _ time.Duration) {
		if err != nil {
			mu.Lock()
			reports[cspName]++
			mu.Unlock()
		}
	}})
	e.attempts = 1
	e.sem.perCap = 1
	ran := false
	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		blocker := Attempt{CSP: "cspb", Kind: "download", Run: func(ctx context.Context) (int64, error) {
			for ctx.Err() == nil {
				nw.Sleep(time.Millisecond)
			}
			return 0, ctx.Err()
		}}
		queued := Attempt{CSP: "cspb", Kind: "download", Run: func(ctx context.Context) (int64, error) {
			ran = true
			return 1, ctx.Err() // a provider call fails under a dead context
		}}
		err := op.Gather(op.Context(), Gather{
			Need:       1,
			Primary:    []Attempt{sleepAttempt(nw, "cspa", 10*time.Millisecond), blocker},
			Next:       supplyOnce(queued),
			HedgeAfter: []time.Duration{0, time.Nanosecond},
		})
		if err != nil {
			t.Errorf("gather: %v", err)
		}
		nw.Sleep(100 * time.Millisecond) // let the losers drain
	})
	if ran {
		t.Error("the queued loser ran after its gather resolved")
	}
	if got := reports["cspb"]; got != 1 {
		t.Errorf("cspb has %d failed tries reported, want 1 (the blocking loser's)", got)
	}
	starts := 0
	for _, ev := range o.FlightEvents() {
		if ev.Kind == obs.FlightAttemptStart && ev.CSP == "cspb" {
			starts++
		}
	}
	if starts != 1 {
		t.Errorf("%d attempt.start records on cspb, want 1", starts)
	}
	if n, _ := e.sem.load("cspb"); n != 0 {
		t.Errorf("%d cspb slots still held", n)
	}
}

// TestGatherHedgeNeedsCandidate: a hedge is a backup lane with an attempt
// to make. A watchdog that fires while the fallback supply is dry launches
// nothing, so nothing is counted in cyrus_transfer_hedges_total and nothing
// settles as a loss that would stretch the primary's adaptive multiple.
// Two cases: one primary whose supply is empty, and a (2,3) gather whose two
// watchdogs both fire over a single fallback location — one hedge, not two.
func TestGatherHedgeNeedsCandidate(t *testing.T) {
	cases := []struct {
		name    string
		need    int
		primary []string
		next    func(nw *netsim.Network) func() (Attempt, bool)
		hedges  float64
	}{
		{"empty supply", 1, []string{"cspa"}, func(*netsim.Network) func() (Attempt, bool) {
			return func() (Attempt, bool) { return Attempt{}, false }
		}, 0},
		{"one fallback for two watchdogs", 2, []string{"cspa", "cspb"}, func(nw *netsim.Network) func() (Attempt, bool) {
			return supplyOnce(sleepAttempt(nw, "cspc", 200*time.Millisecond))
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.NewObserver()
			e, nw := newOneTryEngine(Tunables{}, o)
			o.SetClock(nw.Now)
			var primaries []Attempt
			var after []time.Duration
			for _, name := range tc.primary {
				primaries = append(primaries, sleepAttempt(nw, name, 50*time.Millisecond))
				after = append(after, 10*time.Millisecond)
			}
			nw.Run(func() {
				op := e.Begin(context.Background())
				defer op.Finish()
				g := Gather{Need: tc.need, Primary: primaries, Next: tc.next(nw), HedgeAfter: after}
				if err := op.Gather(op.Context(), g); err != nil {
					t.Errorf("gather: %v", err)
				}
				nw.Sleep(time.Second) // let any backup drain
			})

			s := o.Registry().Snapshot()
			if p, _ := s.Find(obs.MetricTransferHedges, nil); p.Value != tc.hedges {
				t.Errorf("cyrus_transfer_hedges_total = %v, want %v", p.Value, tc.hedges)
			}
			losses, moved := 0.0, 0
			for _, name := range tc.primary {
				if p, ok := s.Find(obs.MetricHedgeLosses, map[string]string{"csp": name}); ok {
					losses += p.Value
				}
				if e.hedge.multiple(name) != e.hedge.base {
					moved++
				}
			}
			// Every counted hedge backs up a primary that lands first.
			if losses != tc.hedges || float64(moved) != tc.hedges {
				t.Errorf("hedge losses %v and moved multiples %d, want %v of each", losses, moved, tc.hedges)
			}
		})
	}
}
