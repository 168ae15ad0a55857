package transfer

import (
	"context"
	"sync"
	"time"
)

// Load-adaptive hedge scheduling: the actuator half of the redundancy
// control loop. The sensors are this engine's semaphore (per-CSP
// in-flight, global admission-queue depth) and the caller's link model,
// whose latency EWMA and arming count arrive as HedgeAfter's arguments.
// This file closes the loop:
//
//	semaphore.load ─────────► HedgeAfter / LoadPermits ──► Op.Gather (hedge lanes)
//	expected, samples (args) ┘       ▲                            │
//	                                 └───── hedgeController ──────┘  (win/loss feedback)
//
// Three decisions are made per hedge, in order. (1) Arming: a provider
// whose EWMA was fed by fewer than hedgeMinSamples successes does not
// hedge at all — a cold estimate seeded from one fast sample would fire a
// hedge storm. (2) Suppression: past the Ghosh crossover (queue depth
// over hedgeLoadThreshold of the in-flight capacity) redundancy is withheld
// entirely, because an extra request would join the congestion it is
// dodging. (3) Deadline: the trigger delay is the per-CSP effective
// multiple times the predicted completion under current load,
// expected x (1 + in-flight), not the open-loop HedgeMultiple x EWMA.
// The load and the latency are this client's own: clients sharing one
// observer never steer off each other's queues or samples. Every input is read at the moment of the
// decision, so a netsim run replays only as far as the order of its events
// does: goroutines woken at the same virtual instant (transfer completions,
// admissions, hedge watchdogs) reach this state in a real-time order netsim
// does not fix, and a run with many attempts in flight differs from run to
// run.

const (
	// hedgeWinDecay shrinks a provider's effective multiple after a backup
	// win: hedges against it are paying off, fire a little earlier.
	hedgeWinDecay = 0.85
	// hedgeLossGrowth stretches the multiple after a wasted hedge (backup
	// launched, primary won anyway): back off before redundancy feeds load.
	hedgeLossGrowth = 1.25
	// hedgeMultMinFrac / hedgeMultMaxFrac bound the effective multiple to
	// [base x min, base x max] so a burst of one outcome cannot pin the
	// controller at an extreme.
	hedgeMultMinFrac = 0.5
	hedgeMultMaxFrac = 4.0
)

// hedgeController auto-tunes the effective hedge multiple per provider
// from observed hedge outcomes. Movements are fixed multiplicative steps
// on win/loss events only, so the state is a deterministic fold over the
// outcome sequence.
type hedgeController struct {
	mu   sync.Mutex
	base float64
	per  map[string]float64
}

func newHedgeController(base float64) *hedgeController {
	return &hedgeController{base: base, per: make(map[string]float64)}
}

// multiple returns the provider's current effective hedge multiple.
func (h *hedgeController) multiple(cspName string) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if m, ok := h.per[cspName]; ok {
		return m
	}
	return h.base
}

// outcome folds one resolved hedge in.
func (h *hedgeController) outcome(cspName string, win bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.per[cspName]
	if !ok {
		m = h.base
	}
	if win {
		m = max(m*hedgeWinDecay, h.base*hedgeMultMinFrac)
	} else {
		m = min(m*hedgeLossGrowth, h.base*hedgeMultMaxFrac)
	}
	h.per[cspName] = m
}

// HedgeAfter converts an expected attempt latency into the hedge trigger
// delay for one provider, or 0 when no hedge should arm. samples is how
// many successful contacts the caller's latency estimate rests on. A
// configured Tunables.HedgePolicy decides alone. Otherwise this is the
// closed loop: no hedge while the expectation is unknown or HedgeState
// withholds it (counted in cyrus_hedge_suppressed_total), else the
// provider's effective multiple times the predicted completion under this
// engine's load. Callers treat 0 as "sequential failover only". ctx is only
// used to stamp flight-recorder events.
func (e *Engine) HedgeAfter(ctx context.Context, cspName string, expected time.Duration, samples int64) time.Duration {
	if p := e.tun.HedgePolicy; p != nil {
		return p(cspName, expected)
	}
	if expected <= 0 {
		return 0
	}
	if reason := e.HedgeState(cspName, samples); reason != "" {
		e.obs.HedgeSuppressed(ctx, cspName, reason)
		return 0
	}
	// Predicted completion under current load: the expectation stacked
	// behind the attempts already in flight at this provider.
	inFlight, _ := e.sem.load(cspName)
	predicted := float64(expected) * float64(1+inFlight)
	return max(time.Duration(e.hedge.multiple(cspName)*predicted), hedgeFloor)
}

// HedgeState is the closed loop's arming/suppression decision: why a hedge
// against the provider would currently be withheld — "cold" (its latency
// estimate rests on fewer than hedgeMinSamples successes), "load" (past the
// utilization crossover) — or "" when a hedge would arm. Always "" under a
// HedgePolicy (which owns the decision). `cyrusctl top` renders this as the
// per-provider suppression indicator.
func (e *Engine) HedgeState(cspName string, samples int64) string {
	if e.tun.HedgePolicy != nil {
		return ""
	}
	if samples < hedgeMinSamples {
		return "cold"
	}
	if !e.LoadPermits() {
		return "load"
	}
	return ""
}

// LoadPermits is the Ghosh crossover test against this engine's admission
// queue: whether launching a purely redundant attempt is currently sound.
// It turns false once the queue reaches hedgeLoadThreshold of the
// in-flight capacity. The signal is deliberately global, not per-CSP — a
// redundant request costs a global slot and lands on a *different*
// provider than the slow primary, so a saturated primary is an argument for
// hedging away from it, while a saturated engine means the redundant
// request would only join the queue it is trying to beat.
func (e *Engine) LoadPermits() bool {
	_, queued := e.sem.load("")
	return float64(queued) < hedgeLoadThreshold*float64(e.tun.MaxInFlight)
}
