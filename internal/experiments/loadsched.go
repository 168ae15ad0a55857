package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/workload"
)

// LoadSchedConfig parameterizes the load-adaptive redundancy benchmark
// (BENCH id "9"): offered load x hedging policy on a mixed-speed topology.
type LoadSchedConfig struct {
	// Scale sets the per-file size, 12.8 MB x Scale. Default 0.02
	// (256 KiB files).
	Scale float64
	// Gets is how many downloads each cell times. Default 60.
	Gets int
	Seed int64
}

func (c *LoadSchedConfig) defaults() {
	if c.Scale == 0 {
		c.Scale = 0.02
	}
	if c.Gets == 0 {
		c.Gets = 90
	}
}

// LoadCell is one (policy, offered-load) measurement.
type LoadCell struct {
	Policy     string  `json:"policy"`
	Load       int     `json:"load"` // concurrent Gets offered
	P50        float64 `json:"p50_seconds"`
	P99        float64 `json:"p99_seconds"`
	Hedges     int     `json:"hedges_launched"`
	Suppressed int     `json:"hedges_suppressed"`
	Wins       int     `json:"hedge_wins"`
	Losses     int     `json:"hedge_losses"`
	RaceWaste  int64   `json:"race_cancelled_bytes"`
}

// LoadSchedResult carries the sweep for regression comparison
// (BENCH_9.json).
type LoadSchedResult struct {
	Report Report
	Cells  []LoadCell
}

// loadSchedClouds is a deliberately mixed topology: three fast clouds and
// two slow ones, so every (t=2, n=3) gather has a real chance of drawing a
// slow share — the latency variance hedging exists to cut.
func loadSchedClouds() []cloudSpec {
	return []cloudSpec{
		{"fast1", 12 * MB, 12 * MB, time.Millisecond},
		{"fast2", 12 * MB, 12 * MB, 2 * time.Millisecond},
		{"fast3", 10 * MB, 10 * MB, 2 * time.Millisecond},
		{"slow1", 1.5 * MB, 1.5 * MB, 8 * time.Millisecond},
		{"slow2", 1.2 * MB, 1.2 * MB, 10 * time.Millisecond},
	}
}

// staticHedgeDelay is the "operator-tuned at low load" fixed hedge
// timeout of the static policy: about 2-3x an idle share download on this
// topology — a sensible 99th-percentile cutoff for the load it was tuned
// under, and a storm trigger for the load it was not.
const staticHedgeDelay = 60 * time.Millisecond

// loadSchedPolicies are the hedging policies the sweep compares. The three
// open-loop baselines are injected as transfer.HedgePolicy values — the
// engine itself only builds the closed loop: "nohedge" never hedges;
// "static" is what real deployments start from (a fixed trigger delay
// tuned at low load, which turns into a hedge storm when load rises past
// it); "ewma" re-scales the deadline from measured latency (the engine's
// HedgeMultiple, floored at 50 ms like the closed loop) but takes no load
// feedback, cold-start arming or adaptive multiple — the pre-telemetry
// behavior. "adaptive" is the closed loop; "race" swaps its deadline
// hedges for one redundant read lane per gather at t=0.
var loadSchedPolicies = []struct {
	name  string
	tweak func(c *core.Config)
}{
	{"nohedge", func(c *core.Config) { c.Transfer.HedgePolicy = noHedge }},
	{"static", func(c *core.Config) {
		c.Transfer.HedgePolicy = func(string, time.Duration) time.Duration { return staticHedgeDelay }
	}},
	{"ewma", func(c *core.Config) {
		multiple := c.Transfer.HedgeMultiple
		c.Transfer.HedgePolicy = func(_ string, expected time.Duration) time.Duration {
			return max(time.Duration(multiple*float64(expected)), 50*time.Millisecond)
		}
	}},
	{"adaptive", func(c *core.Config) {}},
	{"race", func(c *core.Config) { c.RaceReads = 1 }},
}

// noHedge is the transfer.HedgePolicy that never arms a hedge: the unhedged
// baseline of experiments "3" and "9".
func noHedge(string, time.Duration) time.Duration { return 0 }

// flapPeriod / flapBps define the flaky-provider rotation: during the
// timed pass one fast cloud at a time has its downlink collapsed to a
// crawl, moving to the next fast cloud every quarter second (the paper's
// own Figure 17 measures exactly this kind of time-varying per-CSP
// performance). Because the victim rotates, the client's estimators
// (bandwidth tracker, latency EWMA) are perpetually one phase stale for
// whichever provider just collapsed — the persistent tail-latency source
// deadline hedging exists for, and one a fair-share simulator cannot
// produce from load alone (under steady load every estimate self-corrects
// and hedges stop firing).
const (
	flapPeriod = 250 * time.Millisecond
	flapBps    = 0.6 * MB

	// loadSchedFiles is the dataset size (files of 12.8 MB x Scale each).
	loadSchedFiles = 48
)

// loadSchedClient caps the client's downlink (the §7.5 trial's observed
// bottleneck). This is what creates the crossover: a hedge lands on a
// different provider but the duplicate bytes still cross the one client
// pipe, so at saturation redundancy displaces useful traffic one-for-one
// — and contention compresses the victim-vs-norm gap (a 0.6 MB/s crawl is
// 20x slower than an idle fast cloud but only ~3x slower than a fair
// share of the saturated pipe), so the rescue shrinks just as its price
// peaks.
func loadSchedClient() netsim.NodeConfig {
	return netsim.NodeConfig{DownBps: 24 * MB}
}

// LoadSched measures the Ghosh crossover (BENCH id "9"): redundancy helps
// at low load and hurts past a utilization threshold. Each cell uploads the
// dataset once, warms the downloader's telemetry with one sequential pass,
// then offers cfg.Gets downloads OPEN LOOP — arrivals at a fixed rate
// (gets/second, the cell's load), launched whether or not earlier gets
// have finished, the way user-facing traffic actually arrives — while the
// fast clouds take turns flapping (flapPeriod). At low rates a hedge
// rescues every share caught on the flapping link, nearly for free. Past
// the crossover the client pipe is the bottleneck and every redundant
// byte displaces a useful one, so the open-loop baselines (static, ewma)
// burn capacity exactly when there is none spare: queues grow without the
// self-throttling a closed loop would provide, and the tail inflates. The
// adaptive policy suppresses hedges past the threshold and should track
// nohedge at high load while keeping the rescue at low load.
//
// The seed fixes the dataset and the arrival schedule, not the result:
// open-loop arrivals keep many gets in flight, and goroutines woken at the
// same virtual instant — arrivals, transfer completions, semaphore
// hand-offs and, when hedging, watchdogs — reach the engine's semaphore,
// the bandwidth tracker and the latency EWMA in a real-time order netsim
// does not fix. Most cells therefore differ from run to run, the unhedged
// ones included; the orderings hold, and the acceptance margins in
// TestLoadSchedCrossover are set wide enough to absorb the spread.
func LoadSched(cfg LoadSchedConfig) (LoadSchedResult, error) {
	cfg.defaults()
	// Equal-size files, unlike the Table-4 mix the other experiments use:
	// every get moves the same number of bytes, so the latency percentiles
	// compare scheduling decisions across policies instead of reporting
	// "the biggest file" in every cell. 256 KiB at the default scale — one
	// chunk, three 128 KiB shares.
	fileBytes := int(12.8 * MB * cfg.Scale)
	rng := rand.New(rand.NewSource(cfg.Seed))
	files := make([]workload.File, loadSchedFiles)
	for i := range files {
		buf := make([]byte, fileBytes)
		rng.Read(buf)
		files[i] = workload.File{Name: fmt.Sprintf("ls-%03d.bin", i), Data: buf}
	}

	loads := []int{8, 32, 192} // offered gets/second
	res := LoadSchedResult{}

	counter := func(s obs.Snapshot, name string) int {
		var total float64
		for _, p := range s.Metrics {
			if p.Name == name {
				total += p.Value
			}
		}
		return int(total)
	}

	// run measures one cell on a fresh world.
	run := func(policy func(c *core.Config), load int) (LoadCell, error) {
		env := newSimEnv(loadSchedClient(), loadSchedClouds())
		o := obs.NewObserver()
		var latencies []float64
		var runErr error
		env.net.Run(func() {
			uploader, err := env.newClient("uploader", 2, 3, testbedChunking(cfg.Scale), nil)
			if err != nil {
				runErr = err
				return
			}
			for _, f := range files {
				if err := uploader.Put(bg, f.Name, f.Data); err != nil {
					runErr = fmt.Errorf("put %s: %w", f.Name, err)
					return
				}
			}
			dl, err := env.newClient("downloader", 2, 3, testbedChunking(cfg.Scale), func(c *core.Config) {
				c.Obs = o
				// A small engine the high-load cell saturates, and an
				// aggressive multiple (the same for every policy) so
				// deadline hedges actually fire under contention — the
				// regime where open-loop and closed-loop behavior diverge.
				c.Transfer.MaxInFlight = 12
				c.Transfer.HedgeMultiple = 2
				policy(c)
			})
			if err != nil {
				runErr = err
				return
			}
			if err := dl.Recover(bg); err != nil {
				runErr = err
				return
			}
			// Warm pass: teaches the bandwidth tracker and arms the
			// hedge controller (its minimum-sample guard) on every provider.
			for _, f := range files {
				if _, _, err := dl.Get(bg, f.Name); err != nil {
					runErr = fmt.Errorf("warm get %s: %w", f.Name, err)
					return
				}
			}

			// Timed pass: cfg.Gets downloads offered open loop at `load`
			// gets/second through the one shared engine, while the fast
			// clouds take turns flapping.
			var mu sync.Mutex
			flapDone := false
			fg := env.net.NewGroup()
			fg.Add(1)
			clouds := loadSchedClouds()
			setDown := func(name string, down float64) {
				for _, c := range clouds {
					if c.name == name {
						env.net.SetLink("client", name, netsim.LinkConfig{
							RTT: c.rtt, UpBps: c.upBps, DownBps: down,
						})
					}
				}
			}
			fastNames := []string{"fast1", "fast2", "fast3"}
			env.net.Go(func() {
				defer fg.Done()
				victim := 0
				setDown(fastNames[victim], flapBps)
				for {
					env.net.Sleep(flapPeriod)
					mu.Lock()
					stop := flapDone
					mu.Unlock()
					if stop {
						break
					}
					// Restore the current victim, collapse the next.
					for _, c := range clouds {
						if c.name == fastNames[victim] {
							setDown(c.name, c.downBps)
						}
					}
					victim = (victim + 1) % len(fastNames)
					setDown(fastNames[victim], flapBps)
				}
				for _, c := range clouds {
					if c.name == fastNames[victim] {
						setDown(c.name, c.downBps)
					}
				}
			})
			// Open-loop arrivals: one get every 1/load seconds, launched
			// regardless of how many are still outstanding.
			interval := time.Duration(float64(time.Second) / float64(load))
			g := env.net.NewGroup()
			g.Add(cfg.Gets)
			for i := 0; i < cfg.Gets; i++ {
				mu.Lock()
				failed := runErr != nil
				mu.Unlock()
				if failed {
					g.Add(i - cfg.Gets) // un-count the gets never launched
					break
				}
				f := files[i%len(files)]
				env.net.Go(func() {
					defer g.Done()
					start := env.net.VirtualNow()
					if _, _, err := dl.Get(bg, f.Name); err != nil {
						mu.Lock()
						runErr = fmt.Errorf("get %s: %w", f.Name, err)
						mu.Unlock()
						return
					}
					mu.Lock()
					latencies = append(latencies, env.net.VirtualNow()-start)
					mu.Unlock()
				})
				env.net.Sleep(interval)
			}
			g.Wait()
			mu.Lock()
			flapDone = true
			mu.Unlock()
			fg.Wait()
		})
		if runErr != nil {
			return LoadCell{}, runErr
		}
		s := o.Registry().Snapshot()
		cell := LoadCell{
			Load:       load,
			P50:        percentile(latencies, 0.50),
			P99:        percentile(latencies, 0.99),
			Suppressed: counter(s, obs.MetricHedgeSuppressed),
			Wins:       counter(s, obs.MetricHedgeWins),
			Losses:     counter(s, obs.MetricHedgeLosses),
			RaceWaste:  int64(counter(s, obs.MetricRaceCancelledBytes)),
		}
		if p, ok := s.Find(obs.MetricTransferHedges, map[string]string{"result": "launched"}); ok {
			cell.Hedges = int(p.Value)
		}
		return cell, nil
	}

	for _, p := range loadSchedPolicies {
		for _, load := range loads {
			cell, err := run(p.tweak, load)
			if err != nil {
				return res, fmt.Errorf("%s @ load %d: %w", p.name, load, err)
			}
			cell.Policy = p.name
			res.Cells = append(res.Cells, cell)
		}
	}

	find := func(policy string, load int) LoadCell {
		for _, c := range res.Cells {
			if c.Policy == policy && c.Load == load {
				return c
			}
		}
		return LoadCell{}
	}
	rows := make([][]string, 0, len(res.Cells))
	for _, c := range res.Cells {
		rows = append(rows, []string{
			c.Policy, fmt.Sprintf("%d", c.Load), secs(c.P50), secs(c.P99),
			fmt.Sprintf("%d", c.Hedges), fmt.Sprintf("%d", c.Suppressed),
			fmt.Sprintf("%d/%d", c.Wins, c.Losses), fmt.Sprintf("%d", c.RaceWaste),
		})
	}
	hi := loads[len(loads)-1]
	lo := loads[0]
	res.Report = Report{
		ID:      "9",
		Title:   "load-adaptive redundancy: offered load x hedging policy (3 fast + 2 slow clouds)",
		Columns: []string{"policy", "load", "p50", "p99", "hedges", "suppressed", "win/loss", "race waste B"},
		Rows:    rows,
		Notes: []string{
			fmt.Sprintf("%d equal-size files of %d B each, seed %d; %d gets per cell offered open loop at the given rate (gets/s); engine MaxInFlight 12, client downlink 24 MB/s, fast clouds flap in rotation", loadSchedFiles, int(12.8*MB*cfg.Scale), cfg.Seed, cfg.Gets),
			fmt.Sprintf("crossover: at %d gets/s static p99 %.2fs vs adaptive %.2fs (nohedge %.2fs); at %d gets/s static p50 %.3fs vs adaptive %.3fs",
				hi, find("static", hi).P99, find("adaptive", hi).P99, find("nohedge", hi).P99,
				lo, find("static", lo).P50, find("adaptive", lo).P50),
		},
	}
	return res, nil
}

// percentile interpolates the p-quantile of samples (p in [0,1]).
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	idx := p * float64(len(s)-1)
	lo := int(idx)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
