package selector

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

const MB = 1 << 20

// testbed mirrors the paper's setup: 4 fast clouds (15 MB/s) and 3 slow
// (2 MB/s).
func testbedLinks() map[string]float64 {
	return map[string]float64{
		"fast1": 15 * MB, "fast2": 15 * MB, "fast3": 15 * MB, "fast4": 15 * MB,
		"slow1": 2 * MB, "slow2": 2 * MB, "slow3": 2 * MB,
	}
}

func allCSPs(links map[string]float64) []string {
	var out []string
	for c := range links {
		out = append(out, c)
	}
	return out
}

func makeInstance(nChunks int, t int, shareSize int64, links map[string]float64, clientBps float64) Instance {
	in := Instance{T: t, LinkBps: links, ClientBps: clientBps}
	for i := 0; i < nChunks; i++ {
		in.Chunks = append(in.Chunks, Chunk{
			ID:        fmt.Sprintf("chunk-%03d", i),
			ShareSize: shareSize,
			StoredOn:  allCSPs(links),
		})
	}
	return in
}

func checkFeasible(t *testing.T, in Instance, a *Assignment) {
	t.Helper()
	if len(a.Pick) != len(in.Chunks) {
		t.Fatalf("assignment covers %d of %d chunks", len(a.Pick), len(in.Chunks))
	}
	for _, ch := range in.Chunks {
		chosen := a.Pick[ch.ID]
		if len(chosen) != in.T {
			t.Fatalf("chunk %s: %d sources, want %d", ch.ID, len(chosen), in.T)
		}
		stored := map[string]bool{}
		for _, c := range ch.StoredOn {
			stored[c] = true
		}
		seen := map[string]bool{}
		for _, c := range chosen {
			if !stored[c] {
				t.Fatalf("chunk %s: source %s does not hold a share", ch.ID, c)
			}
			if seen[c] {
				t.Fatalf("chunk %s: source %s chosen twice", ch.ID, c)
			}
			seen[c] = true
		}
	}
}

func selectors() []Selector {
	return []Selector{Optimized{}, Random{Seed: 1}, RoundRobin{}, Greedy{}}
}

func TestAllSelectorsFeasible(t *testing.T) {
	in := makeInstance(40, 2, 2*MB, testbedLinks(), 0)
	for _, s := range selectors() {
		a, err := s.Select(in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		checkFeasible(t, in, a)
		if a.Makespan <= 0 {
			t.Fatalf("%s: makespan %g", s.Name(), a.Makespan)
		}
	}
}

func TestValidation(t *testing.T) {
	links := testbedLinks()
	bad := Instance{T: 0, LinkBps: links}
	for _, s := range selectors() {
		if _, err := s.Select(bad); err == nil {
			t.Errorf("%s accepted t=0", s.Name())
		}
	}
	// Chunk stored on fewer than t CSPs.
	in := Instance{T: 3, LinkBps: links, Chunks: []Chunk{
		{ID: "c", ShareSize: 1, StoredOn: []string{"fast1", "fast2"}},
	}}
	if _, err := (Optimized{}).Select(in); !errors.Is(err, ErrInfeasible) {
		t.Errorf("under-stored chunk err = %v", err)
	}
	// Unknown CSP.
	in2 := Instance{T: 1, LinkBps: links, Chunks: []Chunk{
		{ID: "c", ShareSize: 1, StoredOn: []string{"ghost"}},
	}}
	if _, err := (Optimized{}).Select(in2); err == nil {
		t.Error("unknown CSP accepted")
	}
	// Duplicate stored entry.
	in3 := Instance{T: 1, LinkBps: links, Chunks: []Chunk{
		{ID: "c", ShareSize: 1, StoredOn: []string{"fast1", "fast1"}},
	}}
	if _, err := (Optimized{}).Select(in3); err == nil {
		t.Error("duplicate StoredOn accepted")
	}
	// Zero share size.
	in4 := Instance{T: 1, LinkBps: links, Chunks: []Chunk{
		{ID: "c", ShareSize: 0, StoredOn: []string{"fast1"}},
	}}
	if _, err := (Optimized{}).Select(in4); err == nil {
		t.Error("zero share size accepted")
	}
}

func TestGreedyPilesOntoFastest(t *testing.T) {
	in := makeInstance(10, 2, MB, testbedLinks(), 0)
	a, err := Greedy{}.Select(in)
	if err != nil {
		t.Fatal(err)
	}
	loads := a.LoadBytes(in)
	// Greedy uses exactly two (fast) CSPs for everything.
	used := 0
	for c, l := range loads {
		if l > 0 {
			used++
			if c[:4] != "fast" {
				t.Fatalf("greedy used slow cloud %s", c)
			}
		}
	}
	if used != 2 {
		t.Fatalf("greedy used %d CSPs, want 2", used)
	}
}

func TestOptimizedBeatsGreedyAndRandomOnHeterogeneousLinks(t *testing.T) {
	// Many equal chunks on the 4-fast/3-slow testbed: CYRUS must spread
	// load and beat both baselines (Figure 14's ordering:
	// cyrus < heuristic < random; greedy saturates the fast clouds).
	in := makeInstance(60, 2, 2*MB, testbedLinks(), 0)
	results := map[string]float64{}
	for _, s := range selectors() {
		a, err := s.Select(in)
		if err != nil {
			t.Fatal(err)
		}
		results[s.Name()] = a.Makespan
	}
	if results["cyrus"] > results["greedy"]+1e-9 {
		t.Errorf("cyrus %.2fs worse than greedy %.2fs", results["cyrus"], results["greedy"])
	}
	if results["cyrus"] > results["random"]+1e-9 {
		t.Errorf("cyrus %.2fs worse than random %.2fs", results["cyrus"], results["random"])
	}
	if results["cyrus"] > results["heuristic"]+1e-9 {
		t.Errorf("cyrus %.2fs worse than heuristic %.2fs", results["cyrus"], results["heuristic"])
	}
	// And the gap to random should be material (paper: random is worst).
	if results["random"] < results["cyrus"]*1.2 {
		t.Errorf("random %.2fs suspiciously close to cyrus %.2fs", results["random"], results["cyrus"])
	}
}

func TestOptimizedMatchesBruteForceOnSmallInstances(t *testing.T) {
	// Exhaustive search over all selections for tiny instances; the online
	// algorithm must land within 15% of the true optimum (it is a
	// heuristic, but a near-optimal one).
	rng := rand.New(rand.NewSource(7))
	links := map[string]float64{"a": 10 * MB, "b": 5 * MB, "c": 2 * MB, "d": 1 * MB}
	csps := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 30; trial++ {
		in := Instance{T: 2, LinkBps: links}
		n := 2 + rng.Intn(4)
		for i := 0; i < n; i++ {
			in.Chunks = append(in.Chunks, Chunk{
				ID:        fmt.Sprintf("c%d", i),
				ShareSize: int64(1+rng.Intn(20)) * MB / 2,
				StoredOn:  csps,
			})
		}
		a, err := Optimized{}.Select(in)
		if err != nil {
			t.Fatal(err)
		}
		best := bruteForce(in)
		if a.Makespan > best*1.15+1e-9 {
			t.Fatalf("trial %d: optimized %.3fs vs brute force %.3fs", trial, a.Makespan, best)
		}
	}
}

// bruteForce enumerates every feasible assignment.
func bruteForce(in Instance) float64 {
	best := math.Inf(1)
	pick := make(map[string][]string)
	var rec func(i int)
	rec = func(i int) {
		if i == len(in.Chunks) {
			if y := PredictMakespan(in, pick); y < best {
				best = y
			}
			return
		}
		ch := in.Chunks[i]
		n := len(ch.StoredOn)
		idx := make([]int, in.T)
		var comb func(start, k int)
		comb = func(start, k int) {
			if k == in.T {
				sel := make([]string, in.T)
				for j, ix := range idx {
					sel[j] = ch.StoredOn[ix]
				}
				pick[ch.ID] = sel
				rec(i + 1)
				return
			}
			for x := start; x < n; x++ {
				idx[k] = x
				comb(x+1, k+1)
			}
		}
		comb(0, 0)
	}
	rec(0)
	return best
}

func TestOptimizedRespectsPartialStorage(t *testing.T) {
	links := testbedLinks()
	in := Instance{T: 2, LinkBps: links, Chunks: []Chunk{
		{ID: "only-slow", ShareSize: MB, StoredOn: []string{"slow1", "slow2", "slow3"}},
		{ID: "mixed", ShareSize: MB, StoredOn: []string{"fast1", "slow1"}},
	}}
	a, err := Optimized{}.Select(in)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, in, a)
}

func TestClientCapRaisesMakespan(t *testing.T) {
	links := testbedLinks()
	free := makeInstance(20, 2, 2*MB, links, 0)
	capped := makeInstance(20, 2, 2*MB, links, 4*MB)
	af, _ := Optimized{}.Select(free)
	ac, _ := Optimized{}.Select(capped)
	// 20 chunks x 2 shares x 2MB = 80MB at 4MB/s client cap = at least 20s.
	if ac.Makespan < 19.99 {
		t.Fatalf("capped makespan %.2f below the aggregate bound", ac.Makespan)
	}
	if af.Makespan >= ac.Makespan {
		t.Fatalf("uncapped %.2f not faster than capped %.2f", af.Makespan, ac.Makespan)
	}
}

func TestSelectScalesToLargeFiles(t *testing.T) {
	// A 1 GiB Get: 240 chunks of 4 MiB at t=2 of 3 over 4 equal providers,
	// each chunk on the 3 providers after its index, as the ring places
	// them. planGather selects every chunk before the first byte moves, so
	// Select must stay cheap at this size (about half a millisecond on a
	// 2-vCPU Xeon).
	links := map[string]float64{"p0": 15 * MB, "p1": 15 * MB, "p2": 15 * MB, "p3": 15 * MB}
	in := Instance{T: 2, LinkBps: links}
	for i := 0; i < 240; i++ {
		on := make([]string, 0, 3)
		for k := 0; k < 3; k++ {
			on = append(on, fmt.Sprintf("p%d", (i+k)%4))
		}
		in.Chunks = append(in.Chunks, Chunk{ID: fmt.Sprintf("c%d", i), ShareSize: 2 * MB, StoredOn: on})
	}
	best := time.Duration(math.MaxInt64)
	for run := 0; run < 3; run++ {
		start := time.Now()
		a, err := Optimized{}.Select(in)
		if d := time.Since(start); d < best {
			best = d
		}
		if err != nil {
			t.Fatal(err)
		}
		checkFeasible(t, in, a)
	}
	if best > 25*time.Millisecond {
		t.Fatalf("Select over 240 chunks took %v, want under 25ms", best)
	}
}

func TestRandomIsSeeded(t *testing.T) {
	in := makeInstance(10, 2, MB, testbedLinks(), 0)
	a1, _ := Random{Seed: 42}.Select(in)
	a2, _ := Random{Seed: 42}.Select(in)
	for id := range a1.Pick {
		for i := range a1.Pick[id] {
			if a1.Pick[id][i] != a2.Pick[id][i] {
				t.Fatal("same seed produced different selections")
			}
		}
	}
}

func TestRoundRobinSpreadsAcrossCSPs(t *testing.T) {
	in := makeInstance(70, 2, MB, testbedLinks(), 0)
	a, err := RoundRobin{}.Select(in)
	if err != nil {
		t.Fatal(err)
	}
	loads := a.LoadBytes(in)
	if len(loads) != 7 {
		t.Fatalf("round robin used %d CSPs, want all 7", len(loads))
	}
	// Even per-CSP chunk counts: 70 chunks x 2 picks / 7 CSPs = 20MB each.
	for c, l := range loads {
		if l != 20*MB {
			t.Fatalf("round robin load on %s = %d, want %d", c, l, 20*MB)
		}
	}
}

func TestPredictMakespanClientBound(t *testing.T) {
	links := map[string]float64{"a": 100 * MB}
	in := Instance{T: 1, LinkBps: links, ClientBps: 1 * MB, Chunks: []Chunk{
		{ID: "c", ShareSize: 10 * MB, StoredOn: []string{"a"}},
	}}
	y := PredictMakespan(in, map[string][]string{"c": {"a"}})
	if math.Abs(y-10) > 1e-9 {
		t.Fatalf("client-capped makespan = %g, want 10", y)
	}
}

func BenchmarkOptimizedTestbedScale(b *testing.B) {
	in := makeInstance(160, 2, 2*MB, testbedLinks(), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Optimized{}).Select(in); err != nil {
			b.Fatal(err)
		}
	}
}
