package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	vals := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 25}, {100, 40}, {25, 17.5}, {95, 38.5},
	} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 40 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single sample p95 = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input should give NaN")
	}
}

// Reference values are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.5, 1.25, 9, 4, 4.5, 2, 8}, [3]float64{2, 4, 8}},
	} {
		q1, q2, q3 := quartiles(c.vals)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}

func TestUnionLenAndMaxOverlap(t *testing.T) {
	for _, c := range []struct {
		name    string
		ivs     []interval
		union   int64
		overlap int
	}{
		{"empty", nil, 0, 0},
		{"disjoint", []interval{{0, 10}, {20, 30}}, 20, 1},
		{"touching", []interval{{0, 10}, {10, 20}}, 20, 1},
		{"nested", []interval{{0, 100}, {10, 20}, {30, 40}}, 100, 2},
		{"staggered", []interval{{30, 50}, {0, 20}, {10, 40}}, 50, 2},
		{"three deep", []interval{{0, 10}, {1, 9}, {2, 8}, {20, 21}}, 11, 3},
	} {
		if got := unionLen(c.ivs); got != c.union {
			t.Errorf("%s: unionLen = %d, want %d", c.name, got, c.union)
		}
		if got := maxOverlap(c.ivs); got != c.overlap {
			t.Errorf("%s: maxOverlap = %d, want %d", c.name, got, c.overlap)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"two overlapping", []interval{{110, 150}, {140, 160}}, 50},
		{"child outlives parent", []interval{{190, 500}}, 90},
		{"child began before parent", []interval{{0, 120}}, 80},
		{"child entirely outside", []interval{{300, 400}}, 100},
		{"fully covered", []interval{{100, 200}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lat := metricDef{"write_p50_ms", "ms", lower, 0.10}
	rate := metricDef{"write_ops_per_s", "ops/s", higher, 0.15}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		d      metricDef
		base   []float64
		change []float64
		want   string
	}{
		{"unchanged", lat, steady, steady, "ok"},
		{"latency up 20%", lat, steady, []float64{120, 121, 119, 120, 120}, "REGRESSION"},
		{"latency down 20%", lat, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{"rate down 20%", rate, steady, []float64{80, 81, 79, 80, 80}, "REGRESSION"},
		{"rate up 20%", rate, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{"same median, noisy", lat, steady, []float64{60, 100, 140, 80, 120}, "unresolved"},
		{"noisy but every run better", lat, []float64{100, 140, 180, 120, 160}, []float64{50, 70, 90, 60, 80}, "ok"},
		{"single runs", lat, []float64{100}, []float64{105}, "ok"},
	} {
		if _, _, got := verdict(c.d, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
