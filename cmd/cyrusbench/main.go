// Command cyrusbench regenerates the paper's tables and figures.
//
// Usage:
//
//	cyrusbench -exp all                 # everything (can take a while)
//	cyrusbench -exp fig14 -scale 0.25   # one experiment, scaled dataset
//	cyrusbench -list                    # what is available
//
// Every experiment is deterministic for a given -seed. Absolute numbers
// depend on the simulated network profiles (see DESIGN.md); the shapes —
// orderings, ratios, crossovers — are the reproduction targets recorded in
// EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

type runner struct {
	id, desc string
	run      func(opts options) (experiments.Report, error)
}

type options struct {
	seed    int64
	scale   float64
	trials  int
	chunkMB int
	samples int
}

func table(r experiments.Report, err error) (experiments.Report, error) { return r, err }

var runners = []runner{
	{"table1", "feature matrix vs related systems", func(o options) (experiments.Report, error) {
		return experiments.Table1(), nil
	}},
	{"table2", "CSP survey: APIs, RTT, modeled throughput", func(o options) (experiments.Report, error) {
		return experiments.Table2(), nil
	}},
	{"table4", "testbed dataset composition", func(o options) (experiments.Report, error) {
		return table(experiments.Table4(o.seed, o.scale))
	}},
	{"fig3", "CSP platform clustering (traceroute MST)", func(o options) (experiments.Report, error) {
		res, err := experiments.Figure3()
		return res.Report, err
	}},
	{"fig12", "erasure coding throughput vs t and n", func(o options) (experiments.Report, error) {
		res, err := experiments.Figure12(experiments.Figure12Config{ChunkBytes: o.chunkMB << 20, Seed: o.seed})
		return res.Report, err
	}},
	{"fig13", "simulated cumulative CSP failures", func(o options) (experiments.Report, error) {
		res, err := experiments.Figure13(experiments.Figure13Config{Trials: o.trials, Seed: o.seed})
		return res.Report, err
	}},
	{"fig14", "testbed download: selector comparison", func(o options) (experiments.Report, error) {
		res, err := experiments.Figure14(experiments.TestbedConfig{Scale: o.scale, Seed: o.seed})
		return res.Report, err
	}},
	{"fig15", "testbed cumulative completion per (t,n)", func(o options) (experiments.Report, error) {
		res, err := experiments.Figure15(experiments.TestbedConfig{Scale: o.scale, Seed: o.seed})
		return res.Report, err
	}},
	{"fig16", "40MB file: CYRUS vs DepSky vs replication vs striping", func(o options) (experiments.Report, error) {
		res, err := experiments.Figure16(experiments.Figure16Config{Seed: o.seed})
		return res.Report, err
	}},
	{"fig17", "hourly 1MB completion times: CYRUS vs DepSky", func(o options) (experiments.Report, error) {
		res, err := experiments.Figure17(experiments.HourlyConfig{Samples: o.samples, Seed: o.seed})
		return res.Report, err
	}},
	{"fig18", "share distribution across CSPs", func(o options) (experiments.Report, error) {
		res, err := experiments.Figure18(experiments.HourlyConfig{Samples: o.samples, Seed: o.seed})
		return res.Report, err
	}},
	{"fig19", "deployment trial: US and Korea, 20MB file", func(o options) (experiments.Report, error) {
		res, err := experiments.Figure19(experiments.TrialConfig{Seed: o.seed})
		return res.Report, err
	}},
	{"3", "transfer engine: Put/Get throughput + straggler hedging on 4-fast/3-slow", func(o options) (experiments.Report, error) {
		res, err := experiments.TransferEngine(experiments.TransferEngineConfig{Scale: o.scale, Seed: o.seed})
		return res.Report, err
	}},
	{"4", "client compute fast path: codec and chunking throughput", func(o options) (experiments.Report, error) {
		res, err := experiments.FastPath(experiments.FastPathConfig{Seed: o.seed})
		return res.Report, err
	}},
	{"5", "streaming data plane: PutReader/GetTo memory, TTFB, throughput vs whole-file", func(o options) (experiments.Report, error) {
		res, err := experiments.Pipeline(experiments.PipelineConfig{Scale: o.scale, Seed: o.seed})
		return res.Report, err
	}},
	{"6", "convergent dedup: raw CSP bytes and dedup ratio vs overlap at (2,4)/(3,6), two users", func(o options) (experiments.Report, error) {
		res, err := experiments.Dedup(experiments.DedupConfig{Seed: o.seed})
		return res.Report, err
	}},
	{"8", "metadata plane: batched resolve RTs, cold vs warm cache, shard fan-out (scale 1.0 = 100k files)", func(o options) (experiments.Report, error) {
		res, err := experiments.MetaPlane(experiments.MetaPlaneConfig{Scale: o.scale, Seed: o.seed})
		return res.Report, err
	}},
	{"9", "load-adaptive redundancy: offered load x hedging policy crossover (fixed 256 KiB files)", func(o options) (experiments.Report, error) {
		// Deliberately ignores -scale: the crossover acceptance bars are
		// asserted against the experiment's own defaults.
		res, err := experiments.LoadSched(experiments.LoadSchedConfig{Seed: o.seed})
		return res.Report, err
	}},
	{"10", "storage classes: cost proxy vs Get p50/p99 across all-hot / 70-30 / all-cold at (2,4) hot vs (3,8) cold", func(o options) (experiments.Report, error) {
		res, err := experiments.Classes(experiments.ClassesConfig{Seed: o.seed})
		return res.Report, err
	}},
	{"ablation-selector", "Algorithm 1 vs its pieces vs exhaustive", func(o options) (experiments.Report, error) {
		return experiments.AblationSelector(o.seed)
	}},
	{"ablation-chunking", "chunk size vs dedup on edit workload", func(o options) (experiments.Report, error) {
		return experiments.AblationChunking(o.seed)
	}},
	{"ablation-ring", "consistent hashing vs modulo placement churn", func(o options) (experiments.Report, error) {
		return experiments.AblationRing(o.seed)
	}},
	{"ablation-migration", "lazy vs eager share migration", func(o options) (experiments.Report, error) {
		return experiments.AblationMigration(o.seed)
	}},
	{"ablation-concurrency", "optimistic concurrent updates vs lock files", func(o options) (experiments.Report, error) {
		return experiments.AblationConcurrency(o.seed)
	}},
	{"ablation-metadata", "metadata size vs file size", func(o options) (experiments.Report, error) {
		return experiments.AblationMetadata(o.seed)
	}},
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list), or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	seed := flag.Int64("seed", 1, "random seed")
	scale := flag.Float64("scale", 0.25, "dataset scale for testbed experiments (1.0 = paper's 638 MB)")
	trials := flag.Int("trials", 10_000_000, "Monte Carlo trials for fig13")
	chunkMB := flag.Int("chunkmb", 100, "chunk size in MB for fig12 (paper: 100)")
	samples := flag.Int("samples", 48, "hourly samples for fig17/fig18 (paper: 48)")
	asJSON := flag.Bool("json", false, "additionally write BENCH_<id>.json per experiment")
	outdir := flag.String("outdir", ".", "directory for -json output files")
	flag.Parse()

	if *list {
		for _, r := range runners {
			fmt.Printf("  %-20s %s\n", r.id, r.desc)
		}
		return
	}
	opts := options{seed: *seed, scale: *scale, trials: *trials, chunkMB: *chunkMB, samples: *samples}

	want := strings.Split(*exp, ",")
	matched := 0
	for _, r := range runners {
		if !selected(r.id, want) {
			continue
		}
		matched++
		start := time.Now()
		report, err := r.run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cyrusbench: %s: %v\n", r.id, err)
			os.Exit(1)
		}
		fmt.Println(report.String())
		if *asJSON {
			if err := writeBenchJSON(*outdir, r.id, report, opts, time.Since(start)); err != nil {
				fmt.Fprintf(os.Stderr, "cyrusbench: %s: %v\n", r.id, err)
				os.Exit(1)
			}
		}
	}
	if matched == 0 {
		fmt.Fprintf(os.Stderr, "cyrusbench: no experiment matches %q (use -list)\n", *exp)
		os.Exit(2)
	}
}

// benchResult is the machine-readable form of one experiment run
// (BENCH_<id>.json). Virtual durations — the simulated completion times the
// experiment measured — live in the report rows; WallSeconds is the real
// time the run took on this machine. Bytes is the experiment's nominal
// dataset size where one is defined (testbed runs scale the paper's 638 MB
// dataset; fig12/fig16 process a fixed payload), 0 otherwise, and MBps
// derives from Bytes over wall time.
type benchResult struct {
	Op          string             `json:"op"`
	Description string             `json:"description"`
	Seed        int64              `json:"seed"`
	Scale       float64            `json:"scale,omitempty"`
	Bytes       int64              `json:"bytes,omitempty"`
	WallSeconds float64            `json:"wall_seconds"`
	MBps        float64            `json:"mb_per_second,omitempty"`
	Report      experiments.Report `json:"report"`
}

// datasetBytes returns the nominal payload an experiment pushes through the
// system, when one is defined.
func datasetBytes(id string, opts options) int64 {
	const paperDataset = 638 << 20 // Table 4's 638 MB testbed dataset
	switch id {
	case "table4", "fig14", "fig15", "3":
		return int64(opts.scale * paperDataset)
	case "5":
		return int64(opts.scale * (256 << 20)) // the streaming benchmark's 256 MiB object
	case "fig12":
		return int64(opts.chunkMB) << 20
	case "fig16":
		return 40 << 20
	case "6":
		return 2 * 12 * (32 << 10) * 8 // 2 users x 12 files x 32 KiB, 8 sweep points
	case "fig19":
		return 20 << 20
	case "9":
		return 48 * (256 << 10) // 48 equal-size 256 KiB files at the default scale
	case "10":
		return 3 * 24 * (256 << 10) // 3 class-mix cells x 24 files x 256 KiB
	}
	return 0
}

func writeBenchJSON(outdir, id string, report experiments.Report, opts options, wall time.Duration) error {
	res := benchResult{
		Op:          id,
		Seed:        opts.seed,
		Scale:       opts.scale,
		Bytes:       datasetBytes(id, opts),
		WallSeconds: wall.Seconds(),
		Report:      report,
	}
	for _, r := range runners {
		if r.id == id {
			res.Description = r.desc
		}
	}
	if res.Bytes > 0 && wall > 0 {
		res.MBps = float64(res.Bytes) / (1 << 20) / wall.Seconds()
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outdir, "BENCH_"+id+".json")
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func selected(id string, want []string) bool {
	for _, w := range want {
		if w == "all" || w == id {
			return true
		}
	}
	return false
}
