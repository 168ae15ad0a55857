package selector

import (
	"math"
	"sort"
)

// Optimized is Algorithm 1's online stage: fractional loads from a
// bandwidth-proportional split, then per-chunk branch-and-bound.
type Optimized struct{}

// Name implements Selector.
func (Optimized) Name() string { return "cyrus" }

// Select implements Selector.
func (Optimized) Select(in Instance) (*Assignment, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}

	csps := sortedCSPs(in)
	cIdx := make(map[string]int, len(csps))
	for i, c := range csps {
		cIdx[c] = i
	}

	// Stage 1: fractional loads, frac[r][c] in [0,1].
	frac := proportionalSplit(in, csps, cIdx)

	// Fractional remaining load per CSP (shrinks as chunks are fixed).
	fracLoad := make([]float64, len(csps))
	for r, ch := range in.Chunks {
		for c := range csps {
			fracLoad[c] += frac[r][c] * float64(ch.ShareSize)
		}
	}

	// Stage 2: online integral assignment, largest shares first (they
	// constrain the makespan most; fixing them early lets later, smaller
	// chunks fill the valleys).
	order := make([]int, len(in.Chunks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Chunks[order[a]].ShareSize > in.Chunks[order[b]].ShareSize
	})

	intLoad := make([]float64, len(csps))
	pick := make(map[string][]string, len(in.Chunks))
	for _, r := range order {
		ch := in.Chunks[r]
		// Remove this chunk's fractional contribution; β is re-derived by
		// water-filling over the combined (integral + remaining
		// fractional) loads — Algorithm 1's "fix the resulting bandwidths"
		// step.
		for c := range csps {
			fracLoad[c] -= frac[r][c] * float64(ch.ShareSize)
			if fracLoad[c] < 0 {
				fracLoad[c] = 0
			}
		}
		combined := make([]float64, len(csps))
		for c := range csps {
			combined[c] = intLoad[c] + fracLoad[c]
		}
		beta := waterfill(combined, csps, in)

		chosen := bestSubset(ch, in.T, cIdx, intLoad, beta)
		pick[ch.ID] = chosen
		for _, c := range chosen {
			intLoad[cIdx[c]] += float64(ch.ShareSize)
		}
	}
	return finish(in, pick), nil
}

// bestSubset runs branch-and-bound over the C(t, |stored|) source subsets
// for one chunk: minimize the resulting max_c (load_c + b·chosen_c)/β_c.
// Partial selections are pruned against the best complete makespan.
func bestSubset(ch Chunk, t int, cIdx map[string]int, load []float64, beta []float64) []string {
	stored := append([]string(nil), ch.StoredOn...)
	// Explore lightly-loaded CSPs first so good solutions appear early and
	// pruning bites.
	sort.Slice(stored, func(i, j int) bool {
		li := (load[cIdx[stored[i]]] + float64(ch.ShareSize)) / beta[cIdx[stored[i]]]
		lj := (load[cIdx[stored[j]]] + float64(ch.ShareSize)) / beta[cIdx[stored[j]]]
		if li != lj {
			return li < lj
		}
		return stored[i] < stored[j]
	})

	best := math.Inf(1)
	var bestSet []string
	cur := make([]string, 0, t)

	var rec func(start int, partialMax float64)
	rec = func(start int, partialMax float64) {
		if partialMax >= best {
			return // bound
		}
		if len(cur) == t {
			best = partialMax
			bestSet = append([]string(nil), cur...)
			return
		}
		// Not enough CSPs left to complete the subset.
		if len(stored)-start < t-len(cur) {
			return
		}
		for i := start; i < len(stored); i++ {
			c := stored[i]
			ci := cIdx[c]
			finish := (load[ci] + float64(ch.ShareSize)) / beta[ci]
			pm := math.Max(partialMax, finish)
			cur = append(cur, c)
			rec(i+1, pm)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, 0)
	return bestSet
}

// waterfill computes the bandwidth allocation β minimizing max_c load_c/β_c
// subject to Σβ_c ≤ clientBps and β_c ≤ β̄_c: the closed-form inner
// optimization of problem (5)–(7) for fixed loads. With no client cap every
// link runs at its maximum.
func waterfill(load []float64, csps []string, in Instance) []float64 {
	beta := make([]float64, len(csps))
	caps := make([]float64, len(csps))
	for i, c := range csps {
		caps[i] = in.LinkBps[c]
		beta[i] = caps[i]
	}
	if in.ClientBps <= 0 {
		return beta
	}
	var capSum float64
	for _, c := range caps {
		capSum += c
	}
	if capSum <= in.ClientBps {
		return beta // client cap not binding
	}
	// Find the smallest y with Σ_c min(load_c/y, cap_c) ≤ clientBps via
	// bisection on y, then β_c = min(load_c/y, cap_c). Idle CSPs receive
	// the floor share epsilon of the remaining budget.
	var totalLoad float64
	for _, l := range load {
		totalLoad += l
	}
	if totalLoad == 0 {
		// No demand: split the budget evenly under caps.
		share := in.ClientBps / float64(len(csps))
		for i := range beta {
			beta[i] = math.Min(caps[i], share)
		}
		return beta
	}
	lo := totalLoad / in.ClientBps // y cannot beat the aggregate bound
	hi := lo
	for used(load, caps, hi) > in.ClientBps {
		hi *= 2
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if used(load, caps, mid) > in.ClientBps {
			lo = mid
		} else {
			hi = mid
		}
	}
	y := hi
	for i := range beta {
		if load[i] > 0 {
			beta[i] = math.Min(caps[i], load[i]/y)
			if beta[i] <= 0 {
				beta[i] = 1 // floor to keep divisions sane
			}
		} else {
			beta[i] = math.Min(caps[i], in.ClientBps/float64(len(csps)))
			if beta[i] <= 0 {
				beta[i] = 1
			}
		}
	}
	return beta
}

func used(load, caps []float64, y float64) float64 {
	var s float64
	for i := range load {
		if load[i] > 0 {
			s += math.Min(caps[i], load[i]/y)
		}
	}
	return s
}

// proportionalSplit spreads each chunk's t shares across its stored CSPs
// proportional to link bandwidth.
func proportionalSplit(in Instance, csps []string, cIdx map[string]int) [][]float64 {
	frac := make([][]float64, len(in.Chunks))
	for r, ch := range in.Chunks {
		row := make([]float64, len(csps))
		var sum float64
		for _, c := range ch.StoredOn {
			sum += in.LinkBps[c]
		}
		for _, c := range ch.StoredOn {
			row[cIdx[c]] = float64(in.T) * in.LinkBps[c] / sum
			if row[cIdx[c]] > 1 {
				row[cIdx[c]] = 1
			}
		}
		// Renormalize to sum exactly t under the ≤1 caps.
		rebalance(row, ch, cIdx, float64(in.T))
		frac[r] = row
	}
	return frac
}

// rebalance scales the unsaturated entries so the row sums to target while
// respecting the [0,1] caps.
func rebalance(row []float64, ch Chunk, cIdx map[string]int, target float64) {
	for iter := 0; iter < 8; iter++ {
		var sum, free float64
		for _, c := range ch.StoredOn {
			v := row[cIdx[c]]
			sum += v
			if v < 1 {
				free += v
			}
		}
		if math.Abs(sum-target) < 1e-9 || free == 0 {
			return
		}
		scale := (target - (sum - free)) / free
		for _, c := range ch.StoredOn {
			if row[cIdx[c]] < 1 {
				row[cIdx[c]] = clamp01(row[cIdx[c]] * scale)
			}
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
