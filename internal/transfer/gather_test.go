package transfer

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
)

// TestGatherSchedules: a hedge schedule and a race schedule are the same
// gather with the redundant lane issued at different times. Over the same
// attempts — a fast and a stalled primary, two fallbacks — both resolve on
// exactly Need distinct successes, the race earlier than the hedge.
func TestGatherSchedules(t *testing.T) {
	cases := []struct {
		name       string
		race       int
		hedgeAfter []time.Duration
		want       time.Duration
	}{
		{"hedge", 0, []time.Duration{50 * time.Millisecond, 50 * time.Millisecond}, 70 * time.Millisecond},
		{"race", 1, nil, 20 * time.Millisecond},
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
					Race:       tc.race,
					HedgeAfter: tc.hedgeAfter,
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

// TestGatherNoLane: a gather that can start no lane — no primary, and no
// race lane asked for or all of them withheld by load — reports exhaustion
// instead of parking on its latch forever. Real clock, so a hang is a hang
// (netsim would panic on the deadlock instead).
func TestGatherNoLane(t *testing.T) {
	e := New(Config{Runtime: vclock.Real(), Tunables: Tunables{MaxInFlight: 8}})
	release := park(e, vclock.Real(), "cspb", 10) // 6 queued: past 0.75 x 8, race lanes are withheld
	defer release()
	supply := func() (Attempt, bool) { return sleepAttempt(vclock.Real(), "cspa", 0), true }

	for name, g := range map[string]Gather{
		"nothing asked": {Need: 1, Next: supply},
		"load withheld": {Need: 1, Race: 1, Next: supply},
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
