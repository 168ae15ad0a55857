package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 100) of vals by linear
// interpolation between closest ranks; NaN for an empty input. vals is not
// modified.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 50) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var t float64
	for _, v := range vals {
		t += v
	}
	return t / float64(len(vals))
}

// interval is a half-open time span [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// unionLen is the total time covered by at least one interval: the wall
// time a layer was busy, however many of its calls overlapped.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
		} else if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// maxOverlap is the largest number of intervals open at one instant. An
// interval ending at t does not overlap one starting at t.
func maxOverlap(ivs []interval) int {
	type edge struct {
		at    int64
		delta int
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		edges = append(edges, edge{iv.start, 1}, edge{iv.end, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// selfTime is a span's duration minus the part of it its children cover.
// Children are clipped to the parent, so a call that outlives its op (a
// hedge loser still draining) is not charged twice.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	return parent.end - parent.start - unionLen(clipped)
}

// quartiles returns the three cut points of vals as Python's
// statistics.quantiles(vals, n=4) computes them (the "exclusive" method),
// so `bench compare` sees the spread the driver sees. len(vals) >= 2.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside [0, 4] at the ends: Python extrapolates, so does this
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
