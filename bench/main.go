// Command bench is the repository's wall-clock benchmark: it drives a
// default-configured cyrus client against four in-memory cyruscsp processes
// on loopback and reports end-to-end metrics (untraced run) or per-layer
// metrics (traced run) for one of four workloads. See README.md.
//
//	bash bench/run.sh --workload small_burst --seed 1 --seconds 28 --trace 0
//	cd bench && go run . -all -seed 1 -out out/base.jsonl
//	cd bench && go run . compare out/base.jsonl out/new.jsonl
//	cd bench && go run . manifest > ../BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	provider  string // path of the cyruscsp binary
	keepAwake string // state of the keep-awake helper, for the env block
	outDir    string
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	defer janitor.run()
	janitor.watchSignals()
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "keepawake": // the helper process of keepawake_linux.go
			return keepAwakeMain()
		case "compare":
			return compareMain(os.Args[2:])
		case "manifest":
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.SetEscapeHTML(false)
			if err := enc.Encode(buildManifest()); err != nil {
				return fatal(err)
			}
			return 0
		}
	}

	var o options
	var trace int
	var all bool
	var outFile string
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.BoolVar(&all, "all", false, "run every workload, untraced then traced")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "time budget: whole rounds are repeated until it is used")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.provider, "cyruscsp", "", "cyruscsp binary (default: build ./cmd/cyruscsp into a temp dir)")
	flag.StringVar(&outFile, "out", "", "append each run's full report (env, samples, result) to this JSON-lines file")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 || o.seconds <= 0 || all == (o.workload != "") {
		fmt.Fprintln(os.Stderr, "usage: bench (-workload <name> | -all) [-seed n] [-seconds s] [-trace 0|1] [-out file]")
		fmt.Fprintln(os.Stderr, "       bench compare <base.jsonl> <new.jsonl>")
		fmt.Fprintln(os.Stderr, "       bench manifest")
		return 2
	}
	if !all && workloadImpl[o.workload] == nil {
		return fatal(fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", ")))
	}

	root, err := repoRoot()
	if err != nil {
		return fatal(err)
	}
	o.outDir = filepath.Join(root, "bench", "out")
	if o.provider == "" {
		if o.provider, err = buildProvider(root); err != nil {
			return fatal(err)
		}
	}

	type job struct {
		workload string
		trace    bool
	}
	jobs := []job{{o.workload, trace == 1}}
	if all {
		jobs = nil
		for _, w := range workloadNames() {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	}
	o.keepAwake = keepAwake()
	code := 0
	for _, j := range jobs {
		o.workload, o.trace = j.workload, j.trace
		rep, err := runWorkload(context.Background(), o)
		if err != nil {
			return fatal(err)
		}
		for _, f := range rep.Failures {
			fmt.Fprintln(os.Stderr, "FAIL", f)
		}
		if outFile != "" {
			if err := appendReport(outFile, rep); err != nil {
				return fatal(err)
			}
		}
		line, err := json.Marshal(rep.Result)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%s seed=%d trace=%v rounds=%d samples=%v\n", rep.Workload, rep.Seed, rep.Trace, rep.Rounds, rep.Samples)
		fmt.Println(string(line))
		if !rep.Result.Correct {
			code = 1
		}
	}
	return code
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

func appendReport(path string, rep *report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// environment stamps a report with what the numbers depend on.
func environment(o options) map[string]string {
	return map[string]string{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"cpu":        cpuModel(),
		"commit":     commit(),
		"seed":       strconv.FormatUint(o.seed, 10),
		"keepawake":  o.keepAwake,
		"providers":  fmt.Sprintf("%d x cyruscsp in-memory, -obs=false, 127.0.0.1", providerCount),
		"client":     fmt.Sprintf("default Config, T=%d N=%d, Obs=nil, 1 closed-loop caller", shareT, shareN),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// commit is the checked-out revision, or "unknown" outside a git checkout
// (the driver's copy is not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
