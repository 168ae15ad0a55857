package transfer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/csp"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// newSimEngine builds an engine on a fresh netsim network so every test in
// this file runs under deterministic virtual time.
func newSimEngine(tun Tunables, o *obs.Observer) (*Engine, *netsim.Network) {
	nw := netsim.New(time.Time{})
	e := New(Config{Runtime: nw, Obs: o, Tunables: tun})
	return e, nw
}

// hedged is the single-source hedge schedule: one primary, one success
// needed, one backup lane from next at the deadline (0 = none).
func hedged(primary Attempt, after time.Duration, next func() (Attempt, bool)) Gather {
	return Gather{Need: 1, Primary: []Attempt{primary}, Next: next, HedgeAfter: []time.Duration{after}}
}

// noHedge is the HedgePolicy that never arms a hedge.
func noHedge(string, time.Duration) time.Duration { return 0 }

// sleepAttempt returns an attempt whose Run just spends d of virtual time.
func sleepAttempt(rt vclock.Runtime, cspName string, d time.Duration) Attempt {
	return Attempt{
		CSP:  cspName,
		Kind: "download",
		Run: func(ctx context.Context) (int64, error) {
			rt.Sleep(d)
			return 1, nil
		},
	}
}

func TestTunablesDefaults(t *testing.T) {
	tun := Tunables{}.withDefaults()
	if tun.MaxInFlight != 32 || tun.PerCSP != 4 || tun.Attempts != 2 {
		t.Fatalf("unexpected defaults: %+v", tun)
	}
	if tun.BaseBackoff != 25*time.Millisecond || tun.MaxBackoff != 2*time.Second {
		t.Fatalf("unexpected backoff defaults: %+v", tun)
	}
	clamped := Tunables{MaxInFlight: 2, PerCSP: 10}.withDefaults()
	if clamped.PerCSP != 2 {
		t.Fatalf("PerCSP not clamped to MaxInFlight: %+v", clamped)
	}
}

func TestClassifiers(t *testing.T) {
	wrapped := fmt.Errorf("csp: upload x: %w", csp.ErrUnavailable)
	cases := []struct {
		err       error
		retryable bool
		fault     bool
	}{
		{nil, false, false},
		{context.Canceled, false, false},
		{context.DeadlineExceeded, false, false},
		{csp.ErrNotFound, false, false},
		{fmt.Errorf("share 2 runs long: %w", ErrRejected), false, false},
		{csp.ErrUnauthorized, false, true},
		{csp.ErrOverCapacity, false, true},
		{csp.ErrExists, false, true},
		{csp.ErrUnavailable, true, true},
		{wrapped, true, true},
		{errors.New("connection reset"), true, true},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.retryable {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.retryable)
		}
		if got := ProviderFault(c.err); got != c.fault {
			t.Errorf("ProviderFault(%v) = %v, want %v", c.err, got, c.fault)
		}
	}
}

// TestCapsBound: fan out far wider than the caps and verify the semaphore
// held both the per-CSP and the global in-flight ceilings, while still
// letting every attempt through.
func TestCapsBound(t *testing.T) {
	e, nw := newSimEngine(Tunables{MaxInFlight: 5, PerCSP: 2}, nil)

	var mu sync.Mutex
	cur, peak := 0, 0
	done := 0
	const width = 24
	csps := []string{"cspa", "cspb", "cspc"}

	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		op.Each(width, func(i int) {
			name := csps[i%len(csps)]
			err := op.Do(op.Context(), Attempt{
				CSP:  name,
				Kind: "upload",
				Run: func(ctx context.Context) (int64, error) {
					mu.Lock()
					cur++
					if cur > peak {
						peak = cur
					}
					mu.Unlock()
					nw.Sleep(10 * time.Millisecond)
					mu.Lock()
					cur--
					done++
					mu.Unlock()
					return 1, nil
				},
			})
			if err != nil {
				t.Errorf("attempt %d: %v", i, err)
			}
		})
	})

	if done != width {
		t.Fatalf("completed %d of %d attempts", done, width)
	}
	if peak > 5 {
		t.Errorf("global in-flight peak %d exceeds cap 5", peak)
	}
	if peak < 2 {
		t.Errorf("global in-flight peak %d: no concurrency at all", peak)
	}
	for _, name := range csps {
		if p := e.PeakInFlight(name); p > 2 {
			t.Errorf("per-CSP peak for %s = %d exceeds cap 2", name, p)
		} else if p == 0 {
			t.Errorf("per-CSP peak for %s = 0: provider never ran", name)
		}
	}
}

// TestRetryBackoff: one transient failure retries after the deterministic
// backoff delay and then succeeds; Report sees both tries.
func TestRetryBackoff(t *testing.T) {
	var reports []string
	nw := netsim.New(time.Time{})
	e := New(Config{
		Runtime: nw,
		Report: func(cspName, kind string, err error, bytes int64, elapsed time.Duration) {
			reports = append(reports, fmt.Sprintf("%s/%s err=%v", cspName, kind, err != nil))
		},
		Tunables: Tunables{Attempts: 3, BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second},
	})

	tries := 0
	var elapsed time.Duration
	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		start := nw.Now()
		err := op.Do(op.Context(), Attempt{
			CSP:  "cspa",
			Kind: "upload",
			Run: func(ctx context.Context) (int64, error) {
				tries++
				if tries == 1 {
					return 0, csp.ErrUnavailable
				}
				return 1, nil
			},
		})
		elapsed = nw.Now().Sub(start)
		if err != nil {
			t.Errorf("Do: %v", err)
		}
	})

	if tries != 2 {
		t.Fatalf("tries = %d, want 2", tries)
	}
	want := e.backoff("cspa", "upload", 0)
	if elapsed != want {
		t.Errorf("virtual elapsed %v, want exactly the try-0 backoff %v", elapsed, want)
	}
	if len(reports) != 2 || reports[0] != "cspa/upload err=true" || reports[1] != "cspa/upload err=false" {
		t.Errorf("reports = %v, want failed try then success", reports)
	}
}

// TestNonRetryableStops: a definite answer (NotFound) is returned at once
// without burning further attempts, and does not poison the failed set.
func TestNonRetryableStops(t *testing.T) {
	e, nw := newSimEngine(Tunables{Attempts: 3}, nil)
	tries := 0
	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		err := op.Do(op.Context(), Attempt{
			CSP:  "cspa",
			Kind: "download",
			Run: func(ctx context.Context) (int64, error) {
				tries++
				return 0, csp.ErrNotFound
			},
		})
		if !errors.Is(err, csp.ErrNotFound) {
			t.Errorf("err = %v, want ErrNotFound", err)
		}
		if op.Failed("cspa") {
			t.Error("NotFound must not mark the provider failed")
		}
	})
	if tries != 1 {
		t.Fatalf("tries = %d, want 1 (no retry of a definite answer)", tries)
	}
}

// TestBackoffDeterministic: the jittered backoff is a pure function of
// (csp, kind, try) — equal across engines, unequal across providers.
func TestBackoffDeterministic(t *testing.T) {
	e1, _ := newSimEngine(Tunables{}, nil)
	e2, _ := newSimEngine(Tunables{}, nil)
	for try := 0; try < 4; try++ {
		a := e1.backoff("cspa", "upload", try)
		b := e2.backoff("cspa", "upload", try)
		if a != b {
			t.Errorf("try %d: backoff differs across engines: %v vs %v", try, a, b)
		}
		base := e1.tun.BaseBackoff << uint(try)
		if base > e1.tun.MaxBackoff {
			base = e1.tun.MaxBackoff
		}
		lo := time.Duration(float64(base) * 0.75)
		hi := time.Duration(float64(base) * 1.25)
		if a < lo || a > hi {
			t.Errorf("try %d: backoff %v outside jitter window [%v, %v]", try, a, lo, hi)
		}
	}
	if e1.backoff("cspa", "upload", 0) == e1.backoff("cspb", "upload", 0) {
		t.Error("jitter should decorrelate providers (hash collision would be a red flag)")
	}
}

// TestFailedSetSkips: once a provider burns its retries, sibling attempts
// of the same operation get ErrSkipped without invoking Run again.
func TestFailedSetSkips(t *testing.T) {
	e, nw := newSimEngine(Tunables{Attempts: 2, BaseBackoff: time.Millisecond}, nil)
	runs := 0
	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		err := op.Do(op.Context(), Attempt{
			CSP:  "cspa",
			Kind: "upload",
			Run: func(ctx context.Context) (int64, error) {
				runs++
				return 0, csp.ErrUnavailable
			},
		})
		if !errors.Is(err, csp.ErrUnavailable) {
			t.Errorf("first Do: %v", err)
		}
		if !op.Failed("cspa") {
			t.Fatal("provider not in failed set after exhausting retries")
		}
		err = op.Do(op.Context(), Attempt{
			CSP:  "cspa",
			Kind: "upload",
			Run: func(ctx context.Context) (int64, error) {
				runs++
				return 1, nil
			},
		})
		if !errors.Is(err, ErrSkipped) {
			t.Errorf("second Do = %v, want ErrSkipped", err)
		}
	})
	if runs != 2 {
		t.Fatalf("runs = %d, want 2 (both from the first Do's retries)", runs)
	}

	// A different op on the same engine starts with a clean slate.
	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		if op.Failed("cspa") {
			t.Error("failed set leaked across operations")
		}
	})
}

// TestQueuedSiblingSkipsFailedProvider: with one slot per provider, the
// second attempt passes the failed-set check while the first is still in
// flight and then queues behind it. The slot is the gate: the sibling leaves
// the queue only when the first attempt — out of retries — releases it. The
// provider must be in the failed set by then and the sibling must look again
// under its slot, so the dead provider is probed once, not twice.
func TestQueuedSiblingSkipsFailedProvider(t *testing.T) {
	e, nw := newSimEngine(Tunables{PerCSP: 1, Attempts: 1}, nil)
	var runs atomic.Int32
	errs := make([]error, 2)
	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		op.Each(2, func(i int) {
			errs[i] = op.Do(op.Context(), Attempt{
				CSP:  "cspa",
				Kind: "download",
				Run: func(ctx context.Context) (int64, error) {
					runs.Add(1)
					nw.Sleep(10 * time.Millisecond)
					return 0, csp.ErrUnavailable
				},
			})
		})
	})
	if got := runs.Load(); got != 1 {
		t.Fatalf("dead provider probed %d times in one operation, want 1", got)
	}
	var failed, skipped int
	for _, err := range errs {
		switch {
		case errors.Is(err, csp.ErrUnavailable):
			failed++
		case errors.Is(err, ErrSkipped):
			skipped++
		}
	}
	if failed != 1 || skipped != 1 {
		t.Fatalf("outcomes %v, want one ErrUnavailable and one ErrSkipped", errs)
	}
	if n := e.sem.inFlight("cspa"); n != 0 {
		t.Fatalf("%d slots still held after the operation", n)
	}
}

// TestFailCancelsSiblings: Op.Fail cancels the operation context so
// in-flight sibling attempts observe cancellation instead of finishing
// doomed work (the Put wasted-work bug).
func TestFailCancelsSiblings(t *testing.T) {
	e, nw := newSimEngine(Tunables{Attempts: 1}, nil)
	var sawCancel bool
	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		op.Each(2, func(i int) {
			if i == 0 {
				nw.Sleep(5 * time.Millisecond)
				op.Fail(errors.New("fatal chunk error"))
				return
			}
			err := op.Do(op.Context(), Attempt{
				CSP:  "cspb",
				Kind: "upload",
				Run: func(ctx context.Context) (int64, error) {
					// Poll like a netsim transfer loop would between rounds.
					for j := 0; j < 100; j++ {
						if ctx.Err() != nil {
							sawCancel = true
							return 0, ctx.Err()
						}
						nw.Sleep(time.Millisecond)
					}
					return 1, nil
				},
			})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("sibling err = %v, want context.Canceled", err)
			}
		})
		if op.Err() == nil {
			t.Error("op.Err() lost the first fatal error")
		}
	})
	if !sawCancel {
		t.Error("sibling never observed cancellation")
	}
}

// TestDoAfterCancelReturnsPromptly: an attempt issued after the op context
// is cancelled does not run at all.
func TestDoAfterCancelReturnsPromptly(t *testing.T) {
	e, nw := newSimEngine(Tunables{}, nil)
	nw.Run(func() {
		op := e.Begin(context.Background())
		op.Fail(errors.New("boom"))
		defer op.Finish()
		ran := false
		err := op.Do(op.Context(), Attempt{
			CSP:  "cspa",
			Kind: "upload",
			Run: func(ctx context.Context) (int64, error) {
				ran = true
				return 1, nil
			},
		})
		if err == nil {
			t.Error("Do after cancel returned nil")
		}
		if ran {
			t.Error("Run executed under a cancelled op")
		}
	})
}

// TestHedgeWin: a slow primary trips the watchdog, the backup lane wins,
// and the hedge counters record both the launch and the win.
func TestHedgeWin(t *testing.T) {
	o := obs.NewObserver()
	e, nw := newSimEngine(Tunables{Attempts: 1}, o)
	o.SetClock(nw.Now)

	var winner string
	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		primary := Attempt{
			CSP:  "slowcsp",
			Kind: "download",
			Run: func(ctx context.Context) (int64, error) {
				nw.Sleep(2 * time.Second) // way past the hedge trigger
				if ctx.Err() != nil {
					return 0, ctx.Err()
				}
				winner = "slowcsp"
				return 1, nil
			},
		}
		backups := []string{"fastcsp"}
		next := func() (Attempt, bool) {
			if len(backups) == 0 {
				return Attempt{}, false
			}
			name := backups[0]
			backups = backups[1:]
			return Attempt{
				CSP:  name,
				Kind: "download",
				Run: func(ctx context.Context) (int64, error) {
					nw.Sleep(10 * time.Millisecond)
					winner = name
					return 1, nil
				},
			}, true
		}
		start := nw.Now()
		if err := op.Gather(op.Context(), hedged(primary, 100*time.Millisecond, next)); err != nil {
			t.Errorf("Gather: %v", err)
		}
		if got := nw.Now().Sub(start); got >= 2*time.Second {
			t.Errorf("hedged download took %v — waited for the slow primary", got)
		}
	})

	if winner != "fastcsp" {
		t.Fatalf("winner = %q, want the hedge lane", winner)
	}
	s := o.Registry().Snapshot()
	if p, ok := s.Find(obs.MetricTransferHedges, map[string]string{"result": "launched"}); !ok || p.Value != 1 {
		t.Errorf("hedges_total{result=launched} = %+v (found=%v), want 1", p, ok)
	}
	if p, ok := s.Find(obs.MetricTransferHedges, map[string]string{"result": "win"}); !ok || p.Value != 1 {
		t.Errorf("hedges_total{result=win} = %+v (found=%v), want 1", p, ok)
	}
}

// TestHedgeNotLaunchedWhenFast: a primary that beats the trigger keeps the
// backup lane parked.
func TestHedgeNotLaunchedWhenFast(t *testing.T) {
	o := obs.NewObserver()
	e, nw := newSimEngine(Tunables{Attempts: 1}, o)
	o.SetClock(nw.Now)

	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		pulled := false
		err := op.Gather(op.Context(), hedged(sleepAttempt(nw, "cspa", 10*time.Millisecond), 500*time.Millisecond,
			func() (Attempt, bool) {
				pulled = true
				return Attempt{}, false
			}))
		if err != nil {
			t.Errorf("Gather: %v", err)
		}
		// Let the watchdog timer expire and observe finished.
		nw.Sleep(time.Second)
		if pulled {
			t.Error("backup candidate pulled although the primary was fast")
		}
	})

	s := o.Registry().Snapshot()
	if p, ok := s.Find(obs.MetricTransferHedges, map[string]string{"result": "launched"}); ok && p.Value != 0 {
		t.Errorf("hedges_total{result=launched} = %v, want 0", p.Value)
	}
}

// TestHedgeSequentialFailover: under a policy that never hedges the walk
// degrades to ordered failover and still finds the good provider.
func TestHedgeSequentialFailover(t *testing.T) {
	e, nw := newSimEngine(Tunables{Attempts: 1, HedgePolicy: noHedge}, nil)
	var order []string
	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		bad := Attempt{
			CSP:  "deadcsp",
			Kind: "download",
			Run: func(ctx context.Context) (int64, error) {
				order = append(order, "deadcsp")
				return 0, csp.ErrUnavailable
			},
		}
		candidates := []string{"alsodead", "goodcsp"}
		next := func() (Attempt, bool) {
			if len(candidates) == 0 {
				return Attempt{}, false
			}
			name := candidates[0]
			candidates = candidates[1:]
			return Attempt{
				CSP:  name,
				Kind: "download",
				Run: func(ctx context.Context) (int64, error) {
					order = append(order, name)
					if name == "goodcsp" {
						return 1, nil
					}
					return 0, csp.ErrUnavailable
				},
			}, true
		}
		if err := op.Gather(op.Context(), hedged(bad, e.HedgeAfter(op.Context(), "deadcsp", time.Millisecond), next)); err != nil {
			t.Errorf("Gather: %v", err)
		}
	})
	want := []string{"deadcsp", "alsodead", "goodcsp"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("failover order = %v, want %v", order, want)
	}
}

// TestHedgeAllFail: when every lane exhausts, the last meaningful error
// comes back (not a cancellation artifact).
func TestHedgeAllFail(t *testing.T) {
	e, nw := newSimEngine(Tunables{Attempts: 1}, nil)
	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		bad := func(name string) Attempt {
			return Attempt{CSP: name, Kind: "download", Run: func(ctx context.Context) (int64, error) {
				return 0, fmt.Errorf("read %s: %w", name, csp.ErrUnavailable)
			}}
		}
		served := false
		err := op.Gather(op.Context(), hedged(bad("cspa"), 0, func() (Attempt, bool) {
			if served {
				return Attempt{}, false
			}
			served = true
			return bad("cspb"), true
		}))
		if !errors.Is(err, csp.ErrUnavailable) {
			t.Errorf("err = %v, want a provider error", err)
		}
	})
}

// TestHedgeAfter converts expected latency into trigger delays. Without
// an observer there is no load signal, so the engine takes the open-loop
// HedgeMultiple path.
func TestHedgeAfter(t *testing.T) {
	ctx := context.Background()
	e, _ := newSimEngine(Tunables{HedgeMultiple: 3}, nil)
	if got := e.HedgeAfter(ctx, "cspa", 0); got != 0 {
		t.Errorf("unknown expectation: HedgeAfter(0) = %v, want 0", got)
	}
	if got := e.HedgeAfter(ctx, "cspa", 100*time.Millisecond); got != 300*time.Millisecond {
		t.Errorf("HedgeAfter(100ms) = %v, want 300ms", got)
	}
	if got := e.HedgeAfter(ctx, "cspa", time.Millisecond); got != hedgeFloor {
		t.Errorf("HedgeAfter(1ms) = %v, want the %v floor", got, hedgeFloor)
	}
	off, _ := newSimEngine(Tunables{HedgePolicy: noHedge}, nil)
	if got := off.HedgeAfter(ctx, "cspa", time.Second); got != 0 {
		t.Errorf("never-hedge policy: HedgeAfter = %v, want 0", got)
	}
}

// TestQueueMetrics: saturating one provider records queue depth and the
// in-flight peak gauge through obs.
func TestQueueMetrics(t *testing.T) {
	o := obs.NewObserver()
	e, nw := newSimEngine(Tunables{MaxInFlight: 8, PerCSP: 1}, o)
	o.SetClock(nw.Now)

	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		op.Each(4, func(i int) {
			if err := op.Do(op.Context(), sleepAttempt(nw, "cspa", 5*time.Millisecond)); err != nil {
				t.Errorf("attempt %d: %v", i, err)
			}
		})
	})

	if p := e.PeakInFlight("cspa"); p != 1 {
		t.Errorf("peak in-flight = %d, want 1 under PerCSP=1", p)
	}
	s := o.Registry().Snapshot()
	if p, ok := s.Find(obs.MetricTransferInFlightPeak, map[string]string{"csp": "cspa"}); !ok || p.Value != 1 {
		t.Errorf("inflight_peak gauge = %+v (found=%v), want 1", p, ok)
	}
	// Queue drained by the end.
	if p, ok := s.Find(obs.MetricTransferQueueDepth, nil); !ok || p.Value != 0 {
		t.Errorf("queue depth = %+v (found=%v), want 0 after drain", p, ok)
	}
}

// TestDeterministicReplay: the same fan-out over an engine on two fresh
// netsim networks finishes at the identical virtual instant — the property
// every latency experiment depends on. Arrivals are staggered to distinct
// virtual instants: netsim runs same-instant goroutines concurrently in
// real time, so when heterogeneous jobs contend for slots at the very same
// instant their admission order is scheduler-dependent by design; the
// engine's determinism contract is deterministic arrivals in, deterministic
// completion out.
func TestDeterministicReplay(t *testing.T) {
	run := func() time.Duration {
		e, nw := newSimEngine(Tunables{MaxInFlight: 4, PerCSP: 2, BaseBackoff: 20 * time.Millisecond}, nil)
		var elapsed time.Duration
		nw.Run(func() {
			op := e.Begin(context.Background())
			defer op.Finish()
			start := nw.Now()
			op.Each(9, func(i int) {
				nw.Sleep(time.Duration(i) * time.Millisecond)
				name := fmt.Sprintf("csp%d", i%3)
				fails := i%2 == 0
				tries := 0
				_ = op.Do(op.Context(), Attempt{
					CSP:  name,
					Kind: "upload",
					Run: func(ctx context.Context) (int64, error) {
						tries++
						nw.Sleep(time.Duration(3+i) * time.Millisecond)
						if fails && tries == 1 {
							return 0, csp.ErrUnavailable
						}
						return 1, nil
					},
				})
			})
			elapsed = nw.Now().Sub(start)
		})
		return elapsed
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("replay diverged: %v vs %v", a, b)
	}
	if a == 0 {
		t.Error("scenario consumed no virtual time")
	}
}

// TestEngineRace exercises the semaphore, failed set, and hedging under the
// real runtime so `go test -race` can catch data races.
func TestEngineRace(t *testing.T) {
	o := obs.NewObserver()
	e := New(Config{
		Runtime: vclock.Real(),
		Obs:     o,
		Report:  func(string, string, error, int64, time.Duration) {},
		Tunables: Tunables{
			MaxInFlight: 8, PerCSP: 2, Attempts: 2,
			BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond,
		},
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := e.Begin(context.Background())
			defer op.Finish()
			op.Each(16, func(i int) {
				name := fmt.Sprintf("csp%d", (w+i)%4)
				att := Attempt{
					CSP:  name,
					Kind: "upload",
					Run: func(ctx context.Context) (int64, error) {
						if i%5 == 0 {
							return 0, csp.ErrUnavailable
						}
						return 32, nil
					},
					Done: func(error, int64, time.Duration) {},
				}
				if i%3 == 0 {
					fallback := sleepAttempt(vclock.Real(), "cspf", 0)
					_ = op.Gather(op.Context(), hedged(att, 50*time.Microsecond, func() (Attempt, bool) {
						return fallback, true
					}))
				} else {
					_ = op.Do(op.Context(), att)
				}
			})
		}()
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("csp%d", i)
		if p := e.PeakInFlight(name); p > 2 {
			t.Errorf("per-CSP peak for %s = %d exceeds cap 2 under load", name, p)
		}
	}
}

// Each + Do keeps one outcome per attempt: successes, not-found probes,
// and skips land in their own slots instead of collapsing to a first
// error, and a provider-fault failure still feeds the shared failed set
// so later attempts against that provider are skipped.
func TestEachPerAttemptOutcomes(t *testing.T) {
	e, nw := newSimEngine(Tunables{Attempts: 1}, nil)

	var errs []error
	nw.Run(func() {
		op := e.Begin(context.Background())
		defer op.Finish()
		batch := func(atts []Attempt) []error {
			out := make([]error, len(atts))
			op.Each(len(atts), func(i int) { out[i] = op.Do(op.Context(), atts[i]) })
			return out
		}
		op.MarkFailed("cspdown")
		errs = batch([]Attempt{
			{CSP: "cspa", Kind: "ref", Run: func(ctx context.Context) (int64, error) { return 0, nil }},
			{CSP: "cspb", Kind: "ref", Run: func(ctx context.Context) (int64, error) { return 0, csp.ErrNotFound }},
			{CSP: "cspdown", Kind: "ref", Run: func(ctx context.Context) (int64, error) { return 0, nil }},
			{CSP: "cspc", Kind: "ref", Run: func(ctx context.Context) (int64, error) { return 0, csp.ErrUnavailable }},
		})
		// The fault on cspc marked it failed; a follow-up batch skips it.
		follow := batch([]Attempt{
			{CSP: "cspc", Kind: "ref", Run: func(ctx context.Context) (int64, error) { return 0, nil }},
		})
		errs = append(errs, follow...)
	})

	if errs[0] != nil {
		t.Errorf("slot 0 = %v, want nil", errs[0])
	}
	if !errors.Is(errs[1], csp.ErrNotFound) {
		t.Errorf("slot 1 = %v, want ErrNotFound", errs[1])
	}
	if !errors.Is(errs[2], ErrSkipped) {
		t.Errorf("slot 2 = %v, want ErrSkipped", errs[2])
	}
	if !errors.Is(errs[3], csp.ErrUnavailable) {
		t.Errorf("slot 3 = %v, want ErrUnavailable", errs[3])
	}
	if !errors.Is(errs[4], ErrSkipped) {
		t.Errorf("slot 4 = %v, want ErrSkipped after provider fault", errs[4])
	}
}
