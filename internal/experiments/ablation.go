package experiments

import (
	"fmt"

	"repro/internal/chunker"
	"repro/internal/hashring"
	"repro/internal/metadata"
	"repro/internal/netsim"
	"repro/internal/selector"
	"repro/internal/workload"
)

// AblationSelector quantifies the pieces of Algorithm 1: the full
// optimizer, the optimizer without the LP relaxation (proportional-split
// warm start only), and the baselines, against the exhaustive optimum on
// instances small enough to enumerate.
func AblationSelector(seed int64) (Report, error) {
	links := map[string]float64{
		"fast1": 15 * MB, "fast2": 15 * MB, "slow1": 2 * MB, "slow2": 2 * MB, "slow3": 2 * MB,
	}
	csps := []string{"fast1", "fast2", "slow1", "slow2", "slow3"}
	r := Report{
		ID:      "ablation-selector",
		Title:   "Downlink selection: Algorithm 1 vs its pieces vs exhaustive optimum",
		Columns: []string{"chunks", "policy", "makespan", "vs optimal"},
		Notes:   []string{"small instances (exhaustive search feasible); LP-off = branch-and-bound stage over a proportional-split warm start"},
	}
	for _, nChunks := range []int{3, 5, 7} {
		in := selector.Instance{T: 2, LinkBps: links}
		for i := 0; i < nChunks; i++ {
			in.Chunks = append(in.Chunks, selector.Chunk{
				ID:        fmt.Sprintf("c%d", i),
				ShareSize: int64((i%3 + 1)) * MB,
				StoredOn:  csps,
			})
		}
		optimal := bruteForceMakespan(in)
		policies := []struct {
			name string
			sel  selector.Selector
		}{
			{"cyrus (full)", selector.Optimized{}},
			{"cyrus (LP off)", selector.Optimized{MaxLPCells: 1}},
			{"greedy (DepSky)", selector.Greedy{}},
			{"heuristic (RR)", selector.RoundRobin{}},
			{"random", selector.Random{Seed: seed}},
		}
		for _, p := range policies {
			a, err := p.sel.Select(in)
			if err != nil {
				return r, err
			}
			r.Rows = append(r.Rows, []string{
				fmt.Sprint(nChunks), p.name, secs(a.Makespan),
				fmt.Sprintf("%.2fx", a.Makespan/optimal),
			})
		}
		r.Rows = append(r.Rows, []string{fmt.Sprint(nChunks), "exhaustive", secs(optimal), "1.00x"})
	}
	return r, nil
}

// bruteForceMakespan enumerates every feasible assignment.
func bruteForceMakespan(in selector.Instance) float64 {
	best := -1.0
	pick := make(map[string][]string)
	var rec func(i int)
	rec = func(i int) {
		if i == len(in.Chunks) {
			y := selector.PredictMakespan(in, pick)
			if best < 0 || y < best {
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

// AblationChunking sweeps the average chunk size and reports dedup ratio
// and chunk counts on an edit-heavy workload: each file is stored, then an
// edited copy (64-byte in-place edit) is stored again. Smaller chunks find
// more duplicates at the cost of more metadata.
func AblationChunking(seed int64) (Report, error) {
	all, err := workload.Generate(workload.Config{Seed: seed, Scale: 0.05})
	if err != nil {
		return Report{}, err
	}
	// Keep files large enough to span many chunks at every swept size.
	var files []workload.File
	for _, f := range all {
		if len(f.Data) >= 512<<10 {
			files = append(files, f)
		}
		if len(files) == 12 {
			break
		}
	}
	r := Report{
		ID:      "ablation-chunking",
		Title:   "Chunk size vs deduplication on an edit workload (store file, store edited copy)",
		Columns: []string{"avg chunk", "unique chunks", "total chunks", "dedup'd bytes", "stored bytes"},
	}
	for _, avg := range []int{16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		ch, err := chunker.New(chunker.Config{Algorithm: chunker.Rabin, AverageSize: avg})
		if err != nil {
			return r, err
		}
		seen := map[string]int64{}
		var totalChunks, dedupBytes, storedBytes int64
		account := func(data []byte) {
			for _, c := range ch.Split(data) {
				totalChunks++
				id := metadata.HashData(c.Data)
				if sz, ok := seen[id]; ok {
					dedupBytes += sz
					continue
				}
				seen[id] = int64(len(c.Data))
				storedBytes += int64(len(c.Data))
			}
		}
		for i, f := range files {
			account(f.Data)
			account(workload.Edit(f.Data, int64(i), 64))
		}
		r.Rows = append(r.Rows, []string{
			mb(int64(avg)), fmt.Sprint(len(seen)), fmt.Sprint(totalChunks),
			mb(dedupBytes), mb(storedBytes),
		})
	}
	return r, nil
}

// AblationRing measures the share-reallocation cost of consistent hashing
// versus naive modulo placement when a CSP is added: the fraction of
// chunk placements that move.
func AblationRing(seed int64) (Report, error) {
	const chunks = 5000
	names := []string{"a", "b", "c", "d", "e", "f"}
	r := Report{
		ID:      "ablation-ring",
		Title:   "Placement churn when adding a CSP: consistent hashing vs modulo",
		Columns: []string{"policy", "moved placements", "of total", "moved %"},
		Notes:   []string{"consistent hashing moves ~1/(k+1) of placements; modulo placement moves almost all"},
	}

	// Consistent hashing.
	ring := hashring.New(0)
	for _, n := range names {
		if err := ring.Add(n); err != nil {
			return r, err
		}
	}
	before := make([][]string, chunks)
	for i := 0; i < chunks; i++ {
		sel, err := ring.SelectN(fmt.Sprintf("chunk-%d-%d", seed, i), 3)
		if err != nil {
			return r, err
		}
		before[i] = sel
	}
	if err := ring.Add("g"); err != nil {
		return r, err
	}
	moved := 0
	for i := 0; i < chunks; i++ {
		after, err := ring.SelectN(fmt.Sprintf("chunk-%d-%d", seed, i), 3)
		if err != nil {
			return r, err
		}
		moved += placementDiff(before[i], after)
	}
	totalPlacements := chunks * 3
	r.Rows = append(r.Rows, []string{"consistent hashing", fmt.Sprint(moved), fmt.Sprint(totalPlacements),
		fmt.Sprintf("%.1f%%", 100*float64(moved)/float64(totalPlacements))})

	// Modulo placement: CSP index = (hash + j) mod k.
	modPlace := func(i, k int) []string {
		all := append([]string{}, names...)
		if k == 7 {
			all = append(all, "g")
		}
		h := i * 2654435761 % len(all)
		if h < 0 {
			h += len(all)
		}
		out := make([]string, 3)
		for j := 0; j < 3; j++ {
			out[j] = all[(h+j)%len(all)]
		}
		return out
	}
	movedMod := 0
	for i := 0; i < chunks; i++ {
		movedMod += placementDiff(modPlace(i, 6), modPlace(i, 7))
	}
	r.Rows = append(r.Rows, []string{"modulo", fmt.Sprint(movedMod), fmt.Sprint(totalPlacements),
		fmt.Sprintf("%.1f%%", 100*float64(movedMod)/float64(totalPlacements))})
	return r, nil
}

func placementDiff(a, b []string) int {
	in := map[string]bool{}
	for _, x := range a {
		in[x] = true
	}
	moved := 0
	for _, x := range b {
		if !in[x] {
			moved++
		}
	}
	return moved
}

// AblationMigration compares lazy share migration (the paper's design)
// with eager migration after a CSP removal: bytes moved immediately vs on
// demand, and the time the first post-removal download takes.
func AblationMigration(seed int64) (Report, error) {
	files, err := workload.Generate(workload.Config{Seed: seed, Scale: 0.005})
	if err != nil {
		return Report{}, err
	}
	files = files[:12]

	r := Report{
		ID:      "ablation-migration",
		Title:   "Lazy vs eager share migration after removing a CSP",
		Columns: []string{"policy", "bytes moved at removal", "first-download time", "accessed-chunk shares healed"},
		Notes: []string{
			"lazy (CYRUS): nothing moves at removal; the downloaded file's stale shares are healed in passing",
			"eager: every stale share is re-uploaded immediately (download everything, re-encode, re-upload)",
		},
	}

	type outcome struct {
		removalCost   float64 // virtual seconds spent healing at removal
		firstDownload float64 // first user download after removal
		staleLeft     int     // chunks still mapped to the removed CSP
	}
	runPolicy := func(eager bool) (outcome, error) {
		env := newSimEnv(netsim.NodeConfig{}, testbedClouds())
		var out outcome
		var err error
		env.net.Run(func() {
			client, cerr := env.newClient("mig", 2, 3, testbedChunking(0.01), nil)
			if cerr != nil {
				err = cerr
				return
			}
			for _, f := range files {
				if perr := client.Put(bg, f.Name, f.Data); perr != nil {
					err = perr
					return
				}
			}
			victim := "fast1"
			if rerr := client.RemoveCSP(bg, victim); rerr != nil {
				err = rerr
				return
			}
			if eager {
				// Eager healing: immediately touch every file so all stale
				// shares migrate now; the user pays this cost up front.
				out.removalCost, err = env.timeOp(func() error {
					for _, f := range files {
						if _, _, gerr := client.Get(bg, f.Name); gerr != nil {
							return gerr
						}
					}
					return nil
				})
				if err != nil {
					return
				}
			}
			// First user-visible download after removal: under lazy it
			// carries that one file's migration work; under eager it is
			// clean.
			out.firstDownload, err = env.timeOp(func() error {
				_, _, e := client.Get(bg, files[0].Name)
				return e
			})
			if err != nil {
				return
			}
			out.staleLeft = len(client.ChunkTable().SharesOn(victim))
		})
		return out, err
	}

	lazy, err := runPolicy(false)
	if err != nil {
		return r, err
	}
	eager, err := runPolicy(true)
	if err != nil {
		return r, err
	}
	r.Columns = []string{"policy", "healing cost at removal", "first-download time", "chunks still on removed CSP"}
	r.Rows = append(r.Rows, []string{"lazy", secs(0), secs(lazy.firstDownload), fmt.Sprint(lazy.staleLeft)})
	r.Rows = append(r.Rows, []string{"eager", secs(eager.removalCost), secs(eager.firstDownload), fmt.Sprint(eager.staleLeft)})
	return r, nil
}
