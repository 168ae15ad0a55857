package transfer

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Gather describes one k-out-of-n gather — the paper's Algorithm 3 Gather:
// fetch any Need of a chunk's candidates. Candidates normally carry
// distinct payloads (erasure shares), so successes accumulate — Need is the
// decode quorum, not a retry count.
//
// Every Primary attempt gets its own lane at t=0. A lane runs its attempt
// under Do semantics (slot bounding, retries, the operation's shared failed
// set) and on failure walks on through Next, the fallback supply all lanes
// share, until one candidate succeeds or the supply runs dry.
//
// Race and HedgeAfter are the launch schedule for redundant lanes, which
// start with no attempt of their own and draw from Next. In the (n,k)
// redundant-request model (Ghosh et al.) they are the same thing issued at
// different times: Race lanes launch at t=0, a hedge lane launches at its
// primary's deadline. Both buy tail latency with extra load.
type Gather struct {
	// Need is how many successful attempts resolve the gather.
	Need int
	// Primary attempts each start a lane at t=0.
	Primary []Attempt
	// Next supplies fallback candidates to every lane; calls are
	// serialized. nil means no fallback: redundant lanes find nothing.
	Next func() (Attempt, bool)
	// Race is how many redundant lanes launch at t=0. They are withheld
	// entirely while the engine is past the load crossover (LoadPermits).
	Race int
	// HedgeAfter[i], when positive, launches one backup lane for Primary[i]
	// if that lane has not finished by then (see Engine.HedgeAfter for the
	// deadline). nil or short means no hedge for the remaining primaries.
	HedgeAfter []time.Duration
}

// A primary's hedge goes idle -> launched -> closed: the watchdog launches
// the backup only from idle, the primary lane finishing first closes it,
// and the first success of a launched pair settles win or loss.
const (
	hedgeIdle = iota
	hedgeLaunched
	hedgeClosed
)

var errExhausted = errors.New("transfer: gather exhausted its candidates")

// Gather runs g and returns nil as soon as g.Need lanes have succeeded,
// cancelling the rest; otherwise, once every lane has dried up, the last
// meaningful candidate error (or the context error).
//
// Lanes run detached from the caller, which blocks only on the resolution
// latch: Gather returns the moment the quorum lands, even while losers are
// still draining (netsim transfers are not interruptible mid-flight). A
// loser's Run may therefore execute after Gather returns — callers must
// guard attempt side effects with their own mutex and snapshot shared
// state before consuming it.
//
// This is also the one place redundancy is accounted. A backup lane that
// lands before its primary is a hedge win and a primary that beats its
// launched backup is a loss (cyrus_transfer_hedges_total,
// cyrus_hedge_{wins,losses}_total), and both steer the per-provider
// multiple HedgeAfter is computed from. Attempts made by Race lanes count
// in cyrus_race_launched_total. Payload bytes a loser completes after the
// gather resolved — transfers cancellation could not reach — are pure
// waste, counted in cyrus_race_cancelled_bytes_total.
func (o *Op) Gather(ctx context.Context, g Gather) error {
	e := o.e
	if g.Need <= 0 {
		return nil
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()

	race := g.Race
	if race > 0 && !e.LoadPermits() {
		race = 0
	}

	var mu sync.Mutex
	var lastErr error
	successes := 0
	lanes := len(g.Primary) + race
	hedge := make([]int, len(g.Primary))
	// With no lane to launch the gather is already exhausted; the latch
	// stays open and the wait below falls through.
	finished := lanes == 0
	latch := e.rt.NewGroup()
	if !finished {
		latch.Add(1)
	}

	pull := func() (Attempt, bool) {
		mu.Lock()
		defer mu.Unlock()
		if g.Next == nil {
			return Attempt{}, false
		}
		return g.Next()
	}

	// lane walks candidates, starting from att when given, until one
	// succeeds or the supply runs dry. slot names the primary a lane is, or
	// backs up; redundant Race lanes have slot -1.
	lane := func(att *Attempt, slot int, backup bool) {
		defer func() {
			mu.Lock()
			if slot >= 0 && !backup && hedge[slot] == hedgeIdle {
				hedge[slot] = hedgeClosed
			}
			lanes--
			if lanes == 0 && !finished {
				finished = true
				latch.Done()
			}
			mu.Unlock()
		}()
		for {
			mu.Lock()
			done := finished
			mu.Unlock()
			if done || gctx.Err() != nil {
				return
			}
			if att == nil {
				a, ok := pull()
				if !ok {
					return
				}
				att = &a
			}
			if slot < 0 {
				e.obs.RaceLaunched(gctx, att.CSP)
			}
			bytes, err := o.do(gctx, *att)
			if err != nil {
				mu.Lock()
				if (!errors.Is(err, context.Canceled) && !errors.Is(err, ErrSkipped)) || lastErr == nil {
					lastErr = err
				}
				mu.Unlock()
				att = nil
				continue
			}
			mu.Lock()
			late := finished
			if !late {
				successes++
				if slot >= 0 && hedge[slot] == hedgeLaunched {
					// Recorded before the latch opens so the caller sees
					// the outcome as soon as Gather returns.
					hedge[slot] = hedgeClosed
					primary := g.Primary[slot].CSP
					if backup {
						e.obs.TransferHedge(gctx, "win")
					}
					e.obs.HedgeOutcome(gctx, primary, backup)
					e.hedge.outcome(primary, backup)
				}
				if successes >= g.Need {
					finished = true
					latch.Done()
				}
			}
			mu.Unlock()
			if late {
				e.obs.RaceCancelledBytes(gctx, att.CSP, bytes)
			}
			return
		}
	}

	for i := range g.Primary {
		att := g.Primary[i]
		e.rt.Go(func() { lane(&att, i, false) })
		if i >= len(g.HedgeAfter) || g.HedgeAfter[i] <= 0 {
			continue
		}
		// Watchdog: fire the backup lane if the primary is still out at its
		// deadline. Deliberately not joined — after a resolution it wakes,
		// sees the gather finished, and exits on its own.
		e.rt.Go(func() {
			e.rt.Sleep(g.HedgeAfter[i])
			mu.Lock()
			fire := !finished && hedge[i] == hedgeIdle
			if fire {
				hedge[i] = hedgeLaunched
				lanes++
			}
			mu.Unlock()
			if fire {
				e.obs.TransferHedge(gctx, "launched")
				lane(nil, i, true)
			}
		})
	}
	for i := 0; i < race; i++ {
		e.rt.Go(func() { lane(nil, -1, false) })
	}
	latch.Wait()

	mu.Lock()
	defer mu.Unlock()
	if successes >= g.Need {
		return nil
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	if lastErr == nil {
		lastErr = errExhausted
	}
	return lastErr
}
