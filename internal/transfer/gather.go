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
// HedgeAfter is the launch schedule for redundant lanes, which have no
// attempt of their own and draw their first from Next: a primary's backup
// lane launches at that primary's deadline if the supply has a candidate.
// In the (n,k) redundant-request model (Ghosh et al.) a race read is the
// same lane issued at t≈0, so a deadline near zero is a race; either buys
// tail latency with extra load.
type Gather struct {
	// Need is how many successful attempts resolve the gather.
	Need int
	// Primary attempts each start a lane at t=0.
	Primary []Attempt
	// Next supplies fallback candidates to every lane; calls are
	// serialized. nil means no fallback, and no redundant lane launches.
	Next func() (Attempt, bool)
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
// loser's Run that had its slot may therefore execute after Gather returns
// (one still queued for its slot is not made) — callers must guard attempt
// side effects with their own mutex and snapshot shared state before
// consuming it.
//
// This is also the one place redundancy is accounted. A backup lane that
// lands before its primary is a hedge win and a primary that beats its
// launched backup is a loss (cyrus_transfer_hedges_total,
// cyrus_hedge_{wins,losses}_total), and both steer the per-provider
// multiple HedgeAfter is computed from. Payload bytes a loser completes
// after the gather resolved — transfers cancellation could not reach — are
// pure waste, counted in cyrus_race_cancelled_bytes_total.
func (o *Op) Gather(ctx context.Context, g Gather) error {
	e := o.e
	if g.Need <= 0 {
		return nil
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex
	var lastErr error
	successes := 0
	lanes := len(g.Primary)
	hedge := make([]int, len(g.Primary))
	// With no lane to launch the gather is already exhausted; the latch
	// stays open and the wait below falls through.
	finished := lanes == 0
	latch := e.rt.NewGroup()
	if !finished {
		latch.Add(1)
	}

	// pullLocked draws the next fallback candidate; mu is held, which
	// serializes the calls to Next.
	pullLocked := func() (Attempt, bool) {
		if g.Next == nil {
			return Attempt{}, false
		}
		return g.Next()
	}

	// lane walks candidates, starting from att when given, until one
	// succeeds or the supply runs dry. slot names the primary a lane is, or
	// backs up.
	lane := func(att *Attempt, slot int, backup bool) {
		defer func() {
			mu.Lock()
			if !backup && hedge[slot] == hedgeIdle {
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
				mu.Lock()
				a, ok := pullLocked()
				mu.Unlock()
				if !ok {
					return
				}
				att = &a
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
				if hedge[slot] == hedgeLaunched {
					// Recorded before the latch opens so the caller sees
					// the outcome as soon as Gather returns.
					hedge[slot] = hedgeClosed
					primary := g.Primary[slot].CSP
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
		// deadline. The backup draws its candidate first: with the supply
		// dry there is no hedge to count or to settle as a win or loss.
		// Deliberately not joined — after a resolution it wakes, sees the
		// gather finished, and exits on its own.
		e.rt.Go(func() {
			e.rt.Sleep(g.HedgeAfter[i])
			var backup Attempt
			mu.Lock()
			fire := !finished && hedge[i] == hedgeIdle
			if fire {
				backup, fire = pullLocked()
			}
			if fire {
				hedge[i] = hedgeLaunched
				lanes++
			}
			mu.Unlock()
			if fire {
				e.obs.TransferHedge(gctx)
				lane(&backup, i, true)
			}
		})
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
