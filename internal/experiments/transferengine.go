package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TransferEngineConfig parameterizes the transfer-engine benchmark (BENCH
// id "3"): Put/Get throughput on the §7.2 testbed topology plus the
// straggler scenario hedged downloads exist for.
type TransferEngineConfig struct {
	// Scale shrinks the Table-4 dataset (1.0 = the full 638 MB).
	// Default 0.1.
	Scale float64
	Seed  int64
}

func (c *TransferEngineConfig) defaults() {
	if c.Scale == 0 {
		c.Scale = 0.1
	}
}

// TransferEngineResult carries the headline numbers for regression
// comparison across PRs (BENCH_3.json): total virtual seconds per phase.
type TransferEngineResult struct {
	Report Report

	PutSeconds  float64 // cold upload of the dataset, engine dispatch
	GetSeconds  float64 // warm gather, all links healthy
	PlainStrag  float64 // first post-straggler gather, hedging disabled
	HedgedStrag float64 // first post-straggler gather, hedging enabled
	HedgeWins   int     // backup lanes that beat the straggler
}

// stragglerBps is the collapsed link rate of the straggler scenario: the
// provider still answers (no error, no estimator trip) but serves shares
// at a crawl — the regime where only a latency hedge helps.
const stragglerBps = 0.05 * MB

// TransferEngine measures the unified transfer engine on the 4-fast/3-slow
// topology: (a) cold Put and warm Get of the dataset — the throughput
// numbers tracked across PRs — and (b) a straggler: one fast provider's
// downlink collapses to 0.05 MB/s after the bandwidth estimator has
// learned to prefer it, and the very next Get (the largest file) is timed
// with hedging disabled vs enabled. Only the first post-collapse gather
// discriminates: its source pick is already committed to the straggler,
// whereas later gathers re-select with updated estimates and route around
// it in both modes. Deterministic for a given seed.
func TransferEngine(cfg TransferEngineConfig) (TransferEngineResult, error) {
	cfg.defaults()
	files, err := workload.Generate(workload.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return TransferEngineResult{}, err
	}

	res := TransferEngineResult{}

	// run executes one full pass (upload, warm gather, straggler gather)
	// on a fresh world, with hedging on or off, and returns the three
	// phase durations plus the downloader's hedge-win count.
	run := func(hedged bool) (putS, getS, stragS float64, wins int, err error) {
		env := newSimEnv(netsim.NodeConfig{}, testbedClouds())
		o := obs.NewObserver()
		var runErr error
		env.net.Run(func() {
			uploader, err := env.newClient("uploader", 2, 3, testbedChunking(cfg.Scale), nil)
			if err != nil {
				runErr = err
				return
			}
			start := env.net.VirtualNow()
			for _, f := range files {
				if err := uploader.Put(bg, f.Name, f.Data); err != nil {
					runErr = fmt.Errorf("put %s: %w", f.Name, err)
					return
				}
			}
			putS = env.net.VirtualNow() - start

			dl, err := env.newClient("downloader", 2, 3, testbedChunking(cfg.Scale), func(c *core.Config) {
				c.Obs = o
				if !hedged {
					c.Transfer.HedgePolicy = noHedge
				}
			})
			if err != nil {
				runErr = err
				return
			}
			if err := dl.Recover(bg); err != nil {
				runErr = err
				return
			}
			// Warm pass: healthy links. Teaches the bandwidth tracker and
			// the latency EWMA that fast1 is fast — which is what makes it
			// a straggler rather than an avoided provider below.
			start = env.net.VirtualNow()
			for _, f := range files {
				if _, _, err := dl.Get(bg, f.Name); err != nil {
					runErr = fmt.Errorf("warm get %s: %w", f.Name, err)
					return
				}
			}
			getS = env.net.VirtualNow() - start

			// Straggler: fast1's downlink collapses two orders of
			// magnitude. No error is ever returned, so retry and failover
			// never trigger — only the hedge can rescue the gather. Time
			// the first Get after the collapse (the largest file): its
			// selector pick still trusts the stale estimate and routes
			// shares through the straggler.
			env.net.SetLink("client", "fast1", netsim.LinkConfig{
				RTT: time.Millisecond, UpBps: 15 * MB, DownBps: stragglerBps,
			})
			big := files[0]
			for _, f := range files[1:] {
				if len(f.Data) > len(big.Data) {
					big = f
				}
			}
			start = env.net.VirtualNow()
			if _, _, err := dl.Get(bg, big.Name); err != nil {
				runErr = fmt.Errorf("straggler get %s: %w", big.Name, err)
				return
			}
			stragS = env.net.VirtualNow() - start
		})
		if runErr != nil {
			return 0, 0, 0, 0, runErr
		}
		if p, ok := o.Registry().Snapshot().Find(obs.MetricTransferHedges, map[string]string{"result": "win"}); ok {
			wins = int(p.Value)
		}
		return putS, getS, stragS, wins, nil
	}

	putS, getS, plain, _, err := run(false)
	if err != nil {
		return res, fmt.Errorf("unhedged pass: %w", err)
	}
	_, _, hedgedS, wins, err := run(true)
	if err != nil {
		return res, fmt.Errorf("hedged pass: %w", err)
	}

	res.PutSeconds = putS
	res.GetSeconds = getS
	res.PlainStrag = plain
	res.HedgedStrag = hedgedS
	res.HedgeWins = wins

	var bytes int64
	for _, f := range files {
		bytes += int64(len(f.Data))
	}
	mb := float64(bytes) / MB
	row := func(phase string, s float64) []string {
		return []string{phase, secs(s), fmt.Sprintf("%.2f", mb/s)}
	}
	res.Report = Report{
		ID:      "3",
		Title:   "transfer engine: Put/Get throughput and straggler hedging (4 fast + 3 slow clouds)",
		Columns: []string{"phase", "virtual time", "MB/s"},
		Rows: [][]string{
			row("put (cold, t=2 n=3)", putS),
			row("get (warm, healthy links)", getS),
			{"first get after fast1 drops to 0.05 MB/s, hedge off", secs(plain), "-"},
			{"first get after fast1 drops to 0.05 MB/s, hedge on", secs(hedgedS), "-"},
		},
		Notes: []string{
			fmt.Sprintf("dataset %.1f MB (scale %.2g, seed %d); straggler returns no errors, so only hedging helps", mb, cfg.Scale, cfg.Seed),
			fmt.Sprintf("hedged backup lanes won %d times; straggler gather %.1fx faster with hedging", wins, plain/hedgedS),
		},
	}
	return res, nil
}
