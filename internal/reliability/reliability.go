// Package reliability implements CYRUS's privacy/reliability parameter
// planning (paper §4.2) and CSP failure estimation (paper §5.5).
//
// The user picks the privacy level t (shares — hence CSPs — required to
// reconstruct a chunk) and a reliability bound ε on the probability that a
// chunk cannot be downloaded. Given a per-CSP failure probability p, the
// planner finds the minimum n such that
//
//	Σ_{s=0}^{t-1} C(n, s) (1-p)^s p^(n-s)  ≤  ε        (Eq. 1)
//
// i.e. the probability that fewer than t of the n share-holding CSPs are
// alive is at most ε. Minimizing n limits the data stored on the cloud,
// since total stored bytes scale with n/t.
package reliability

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Errors returned by the planner.
var (
	ErrBadParams   = errors.New("reliability: invalid parameters")
	ErrUnreachable = errors.New("reliability: bound not reachable with available CSPs")
)

// HoursPerYear converts annual downtime to an availability fraction.
const HoursPerYear = 24 * 365

// FailureProbFromDowntime converts annual downtime hours (as reported by
// monitoring services such as CloudHarmony, which the paper cites) into the
// probability p that a CSP is unavailable at a random instant.
func FailureProbFromDowntime(hoursPerYear float64) float64 {
	if hoursPerYear <= 0 {
		return 0
	}
	if hoursPerYear >= HoursPerYear {
		return 1
	}
	return hoursPerYear / HoursPerYear
}

// FailureProbability returns the probability that a (t, n) placement cannot
// be read: the probability that fewer than t of the n CSPs holding shares
// are alive, with each CSP independently failed with probability p.
//
// This is Eq. (1)'s left-hand side: Σ_{s=0}^{t-1} C(n,s) (1-p)^s p^(n-s),
// where s counts alive CSPs.
func FailureProbability(n, t int, p float64) (float64, error) {
	if n <= 0 || t <= 0 || t > n {
		return 0, fmt.Errorf("%w: n=%d t=%d", ErrBadParams, n, t)
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("%w: p=%g", ErrBadParams, p)
	}
	var sum float64
	for s := 0; s < t; s++ {
		sum += binomialPMF(n, s, 1-p)
	}
	if sum > 1 {
		sum = 1
	}
	return sum, nil
}

// binomialPMF returns C(n, k) q^k (1-q)^(n-k) computed in log space to stay
// stable for large n.
func binomialPMF(n, k int, q float64) float64 {
	if q == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if q == 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg := lnChoose(n, k) + float64(k)*math.Log(q) + float64(n-k)*math.Log(1-q)
	return math.Exp(lg)
}

func lnChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// MinShares finds the minimum n in [t, maxN] satisfying Eq. (1) for the
// given privacy level t, per-CSP failure probability p, and reliability
// bound eps. maxN is the number of available CSPs (or platform clusters
// when clustering is enabled). It returns ErrUnreachable when even n = maxN
// misses the bound.
func MinShares(t int, p, eps float64, maxN int) (int, error) {
	if t <= 0 || maxN < t {
		return 0, fmt.Errorf("%w: t=%d maxN=%d", ErrBadParams, t, maxN)
	}
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("%w: eps=%g", ErrBadParams, eps)
	}
	for n := t; n <= maxN; n++ {
		f, err := FailureProbability(n, t, p)
		if err != nil {
			return 0, err
		}
		if f <= eps {
			return n, nil
		}
	}
	return 0, fmt.Errorf("%w: t=%d p=%g eps=%g maxN=%d", ErrUnreachable, t, p, eps, maxN)
}

// Plan bundles the chosen secret-sharing parameters.
type Plan struct {
	T int // shares needed to reconstruct (privacy level)
	N int // shares stored (reliability level)
}

// StorageOverhead returns the storage blow-up factor n/t of the plan.
func (p Plan) StorageOverhead() float64 { return float64(p.N) / float64(p.T) }

// Choose runs the paper's two-step parameter selection: the user fixes t,
// then n is the minimal value meeting the ε bound. p should be the largest
// failure probability among candidate CSPs (conservative, per the paper's
// footnote 6).
func Choose(t int, p, eps float64, available int) (Plan, error) {
	n, err := MinShares(t, p, eps, available)
	if err != nil {
		return Plan{}, err
	}
	return Plan{T: t, N: n}, nil
}

// ---------------------------------------------------------------------------
// CSP failure estimation (paper §4.2 footnote and §5.5)
//
// "The failure probability of any given CSP ... is estimated using the
// number of consistent failed attempts to contact CSPs. Users specify a
// threshold, e.g., one day, of time; if a CSP cannot be contacted for that
// length of time, then we count a CSP failure."

// Estimator tracks contact attempts per CSP and derives failure
// probabilities and down/up state. It is safe for concurrent use.
type Estimator struct {
	mu        sync.Mutex
	threshold time.Duration
	states    map[string]*cspState
}

type cspState struct {
	firstFailure time.Time // zero when the last attempt succeeded
	failing      bool
	failures     int // completed failure episodes (outages >= threshold)
	attempts     int
	failedTries  int
	down         bool // currently counted as failed
}

// NewEstimator returns an estimator counting an outage once a CSP has been
// unreachable for the given threshold (the paper suggests one day).
func NewEstimator(threshold time.Duration) *Estimator {
	if threshold <= 0 {
		threshold = 24 * time.Hour
	}
	return &Estimator{threshold: threshold, states: make(map[string]*cspState)}
}

func (e *Estimator) state(csp string) *cspState {
	s, ok := e.states[csp]
	if !ok {
		s = &cspState{}
		e.states[csp] = s
	}
	return s
}

// RecordSuccess notes a successful contact with the CSP at time now. It
// returns the CSP's down state after the call (always false) and whether
// this call changed it — i.e. a down→up recovery. Returning the transition
// from under the estimator's own lock lets callers drive per-transition
// hooks (gauges, flight events) without a racy read-then-record sequence.
func (e *Estimator) RecordSuccess(csp string, now time.Time) (down, changed bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.state(csp)
	s.attempts++
	s.failing = false
	s.firstFailure = time.Time{}
	changed = s.down
	s.down = false
	return false, changed
}

// RecordFailure notes a failed contact at time now. Once failures have been
// consistent for the threshold duration, the CSP is marked down and one
// failure episode is counted. Like RecordSuccess, it returns the down state
// after the call and whether this call transitioned it (up→down).
func (e *Estimator) RecordFailure(csp string, now time.Time) (down, changed bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.state(csp)
	s.attempts++
	s.failedTries++
	if !s.failing {
		s.failing = true
		s.firstFailure = now
		return s.down, false
	}
	if !s.down && now.Sub(s.firstFailure) >= e.threshold {
		s.down = true
		s.failures++
		return true, true
	}
	return s.down, false
}

// Down reports whether the CSP is currently considered failed.
func (e *Estimator) Down(csp string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state(csp).down
}

// FailureProb estimates the failure probability of the CSP as the fraction
// of failed contact attempts; returns fallback when there is no history.
func (e *Estimator) FailureProb(csp string, fallback float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.states[csp]
	if !ok || s.attempts == 0 {
		return fallback
	}
	return float64(s.failedTries) / float64(s.attempts)
}

// Failures returns the number of completed outage episodes for the CSP.
func (e *Estimator) Failures(csp string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state(csp).failures
}

// MaxFailureProb returns the largest estimated failure probability across
// the given CSPs — the conservative p the planner should use (footnote 6).
func (e *Estimator) MaxFailureProb(csps []string, fallback float64) float64 {
	p := 0.0
	for _, c := range csps {
		if q := e.FailureProb(c, fallback); q > p {
			p = q
		}
	}
	if p == 0 {
		return fallback
	}
	return p
}

// Tracked returns the CSPs with recorded history, sorted.
func (e *Estimator) Tracked() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.states))
	for c := range e.states {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
