package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// loadReports reads a JSON-lines file written with -out and groups the
// untraced runs' values by workload and end-to-end metric. Failure counts
// are kept under the pseudo-metric "fail_ratio".
func loadReports(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Trace {
			continue
		}
		m := out[rep.Workload]
		if m == nil {
			m = make(map[string][]float64)
			out[rep.Workload] = m
		}
		for name, v := range rep.Result.Metrics {
			m[name] = append(m[name], v.Value)
		}
		m["fail_ratio"] = append(m["fail_ratio"], float64(rep.Result.Failed)/float64(rep.Result.Attempted))
	}
	return out, sc.Err()
}

// verdict applies one metric's bound to two sets of runs. worse is the
// share of the base median by which the new median is worse (negative when
// better); spread is the wider of the two sides' interquartile ranges as a
// share of its median.
func verdict(d metricDef, base, change []float64) (worse, spread float64, word string) {
	bm, cm := median(base), median(change)
	worse = (cm - bm) / bm
	if d.Better == higher {
		worse = -worse
	}
	spread = max(relSpread(base), relSpread(change))
	switch {
	case worse > d.Bound:
		return worse, spread, "REGRESSION"
	case spread > d.Bound && !allBetter(d, base, change):
		// Too noisy to call unchanged: say so instead.
		return worse, spread, "unresolved"
	default:
		return worse, spread, "ok"
	}
}

// relSpread is the distance between the first and third quartile as a
// share of the median; 0 for fewer than two runs.
func relSpread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}

// allBetter reports whether every run of the change reads better than
// every run of the base.
func allBetter(d metricDef, base, change []float64) bool {
	for _, c := range change {
		for _, b := range base {
			if (d.Better == lower && c >= b) || (d.Better == higher && c <= b) {
				return false
			}
		}
	}
	return true
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <base.jsonl> <new.jsonl>")
		return 2
	}
	base, err := loadReports(args[0])
	if err != nil {
		return fatal(err)
	}
	change, err := loadReports(args[1])
	if err != nil {
		return fatal(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median (runs)\tnew median (runs)\tworse by (share of base)\tspread\tbound\tverdict")
	regressions := 0
	for _, w := range workloadDefs {
		if base[w.Name] == nil && change[w.Name] == nil {
			continue // neither side ran this workload
		}
		for _, d := range endToEnd {
			b, c := base[w.Name][d.Name], change[w.Name][d.Name]
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t%.2f\tmissing\n", w.Name, d.Name, d.Bound)
				regressions++
				continue
			}
			worse, spread, word := verdict(d, b, c)
			if word == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (%d)\t%.6g %s (%d)\t%+.4f of %.6g\t%.4f\t%.2f\t%s\n",
				w.Name, d.Name, median(b), d.Unit, len(b), median(c), d.Unit, len(c), worse, median(b), spread, d.Bound, word)
		}
		// Any increase in failures is a regression.
		bf, cf := mean(base[w.Name]["fail_ratio"]), mean(change[w.Name]["fail_ratio"])
		word := "ok"
		if cf > bf {
			word = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%.6g\t%.6g\t%+.6g of %.6g\t-\tany\t%s\n", w.Name, bf, cf, cf-bf, bf, word)
	}
	if err := tw.Flush(); err != nil {
		return fatal(err)
	}
	if regressions > 0 {
		fmt.Printf("%d regression(s)\n", regressions)
		return 1
	}
	return 0
}
