// Package selector implements CYRUS's downlink CSP selection (paper §4.3,
// Algorithm 1) and the baseline policies it is evaluated against.
//
// Problem (5)–(7): R chunks must each fetch t shares; a share of chunk r
// can only come from a CSP c that stores one (u_{r,c}); CSP link bandwidth
// is capped at β̄_c and the client's total download bandwidth at β. Choose
// the indicator d_{r,c} and bandwidths β_c to minimize the completion time
// y = max_c Σ_r b_r d_{r,c} / β_c.
//
// The exact problem is a non-convex mixed-integer program. Optimized solves
// it approximately and online:
//
//  1. Fractional loads: spread each chunk's t shares over the CSPs that
//     store it in proportion to their link bandwidth β̄_c, capped at one
//     share per CSP. The paper gets these loads from a convexified LP
//     relaxation instead. On the placements this client makes, the
//     branch-and-bound below picks the same sources from either start,
//     and the LP cost more than the rest of Select combined, so it is not
//     built (DESIGN.md §4 has the measurements).
//  2. Fix the bandwidths β_c by water-filling the current loads, then make
//     chunk η's d_{η,c} integral with a branch-and-bound over the
//     C(t, |stored|) selections, bounding partial selections by the best
//     completed makespan; fix the result and move to chunk η+1 (chunks are
//     visited largest-share-first, and β is re-water-filled as integral
//     load replaces fractional load).
//
// Baselines: Random (uniform t-subset), RoundRobin (the paper's
// "heuristic"), and Greedy (DepSky's fastest-CSPs-always policy).
package selector

import (
	"errors"
	"fmt"
	"sort"
)

// Chunk is one unit of download work.
type Chunk struct {
	ID        string
	ShareSize int64    // b_r: bytes per share of this chunk
	StoredOn  []string // CSPs holding one share each (u_{r,c} = 1)
}

// Instance is one selection problem.
type Instance struct {
	Chunks    []Chunk
	T         int                // shares to download per chunk
	LinkBps   map[string]float64 // β̄_c: per-CSP download cap, bytes/sec
	ClientBps float64            // β: client aggregate cap; 0 = unlimited
}

// Validate checks instance consistency.
func (in Instance) Validate() error {
	if in.T <= 0 {
		return fmt.Errorf("selector: t=%d", in.T)
	}
	for _, ch := range in.Chunks {
		if ch.ShareSize <= 0 {
			return fmt.Errorf("selector: chunk %s share size %d", ch.ID, ch.ShareSize)
		}
		if len(ch.StoredOn) < in.T {
			return fmt.Errorf("%w: chunk %s stored on %d CSPs, need %d", ErrInfeasible, ch.ID, len(ch.StoredOn), in.T)
		}
		seen := map[string]bool{}
		for _, c := range ch.StoredOn {
			if seen[c] {
				return fmt.Errorf("selector: chunk %s lists CSP %s twice", ch.ID, c)
			}
			seen[c] = true
			if bps, ok := in.LinkBps[c]; !ok || bps <= 0 {
				return fmt.Errorf("selector: chunk %s stored on %s with no positive bandwidth", ch.ID, c)
			}
		}
	}
	return nil
}

// ErrInfeasible is returned when a chunk cannot reach t source CSPs.
var ErrInfeasible = errors.New("selector: infeasible instance")

// Assignment is the output: which CSPs serve each chunk.
type Assignment struct {
	Pick     map[string][]string // chunk ID -> chosen CSPs (sorted, len T)
	Makespan float64             // predicted completion time, seconds
}

// LoadBytes recomputes the per-CSP byte loads of the assignment.
func (a *Assignment) LoadBytes(in Instance) map[string]int64 {
	loads := make(map[string]int64)
	for _, ch := range in.Chunks {
		for _, c := range a.Pick[ch.ID] {
			loads[c] += ch.ShareSize
		}
	}
	return loads
}

// PredictMakespan evaluates an assignment under the fluid model: each CSP
// serves its load at min(β̄_c, fair share), and the client cap binds on the
// total.
func PredictMakespan(in Instance, pick map[string][]string) float64 {
	loads := make(map[string]float64)
	var total float64
	for _, ch := range in.Chunks {
		for _, c := range pick[ch.ID] {
			loads[c] += float64(ch.ShareSize)
			total += float64(ch.ShareSize)
		}
	}
	y := 0.0
	for c, l := range loads {
		if t := l / in.LinkBps[c]; t > y {
			y = t
		}
	}
	if in.ClientBps > 0 {
		if t := total / in.ClientBps; t > y {
			y = t
		}
	}
	return y
}

// Selector chooses download sources for an instance.
type Selector interface {
	Name() string
	Select(in Instance) (*Assignment, error)
}

// sortedCSPs returns the union of eligible CSPs, sorted.
func sortedCSPs(in Instance) []string {
	set := map[string]bool{}
	for _, ch := range in.Chunks {
		for _, c := range ch.StoredOn {
			set[c] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func finish(in Instance, pick map[string][]string) *Assignment {
	for id := range pick {
		sort.Strings(pick[id])
	}
	return &Assignment{Pick: pick, Makespan: PredictMakespan(in, pick)}
}
