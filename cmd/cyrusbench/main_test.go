package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
)

func TestRunnerRegistryIsComplete(t *testing.T) {
	// Every table/figure in the paper's evaluation plus the ablations, the
	// convergent-dedup sweep, the metadata-plane benchmark, the
	// load-adaptive redundancy sweep, and the storage-class cost/latency
	// frontier.
	want := []string{
		"table1", "table2", "table4", "fig3", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "6", "8", "9", "10",
		"ablation-selector", "ablation-chunking", "ablation-ring",
		"ablation-migration", "ablation-concurrency", "ablation-metadata",
	}
	have := map[string]bool{}
	for _, r := range runners {
		if r.id == "" || r.desc == "" || r.run == nil {
			t.Fatalf("malformed runner %+v", r)
		}
		if have[r.id] {
			t.Fatalf("duplicate runner %q", r.id)
		}
		have[r.id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("missing experiment %q", id)
		}
	}
	if len(runners) != len(want) {
		t.Fatalf("%d runners, want %d", len(runners), len(want))
	}
}

func TestSelected(t *testing.T) {
	if !selected("fig14", []string{"all"}) {
		t.Fatal("all did not match")
	}
	if !selected("fig14", []string{"fig13", "fig14"}) {
		t.Fatal("list did not match")
	}
	if selected("fig14", []string{"fig15"}) {
		t.Fatal("mismatched id matched")
	}
}

func TestFastRunnersExecute(t *testing.T) {
	opts := options{seed: 1, scale: 0.01, trials: 10_000, chunkMB: 1, samples: 3}
	fast := map[string]bool{"table1": true, "table2": true, "table4": true, "fig3": true, "fig13": true, "ablation-metadata": true}
	for _, r := range runners {
		if !fast[r.id] {
			continue
		}
		report, err := r.run(opts)
		if err != nil {
			t.Fatalf("%s: %v", r.id, err)
		}
		if len(report.Rows) == 0 {
			t.Fatalf("%s produced no rows", r.id)
		}
	}
}

func TestWriteBenchJSON(t *testing.T) {
	dir := t.TempDir()
	opts := options{seed: 42, scale: 0.25, trials: 1000, chunkMB: 4, samples: 3}
	report := experiments.Report{
		ID: "table4", Title: "testbed throughput",
		Columns: []string{"op", "MB/s"},
		Rows:    [][]string{{"upload", "12.3"}},
	}
	if err := writeBenchJSON(dir, "table4", report, opts, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_table4.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res benchResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("BENCH_table4.json does not parse: %v", err)
	}
	if res.Op != "table4" || res.Seed != 42 || res.Scale != 0.25 {
		t.Errorf("identity fields = %+v", res)
	}
	if res.Description == "" {
		t.Error("description not filled from the runner registry")
	}
	wantBytes := int64(0.25 * (638 << 20))
	if res.Bytes != wantBytes {
		t.Errorf("bytes = %d, want %d (scale*638MB)", res.Bytes, wantBytes)
	}
	if res.WallSeconds != 2 {
		t.Errorf("wall_seconds = %v, want 2", res.WallSeconds)
	}
	wantMBps := float64(wantBytes) / (1 << 20) / 2
	if math.Abs(res.MBps-wantMBps) > 1e-9 {
		t.Errorf("mb_per_second = %v, want %v", res.MBps, wantMBps)
	}
	if res.Report.ID != "table4" || len(res.Report.Rows) != 1 {
		t.Errorf("embedded report = %+v", res.Report)
	}
}

func TestDatasetBytes(t *testing.T) {
	opts := options{scale: 1, chunkMB: 8}
	cases := map[string]int64{
		"table4": 638 << 20,
		"fig14":  638 << 20,
		"fig12":  8 << 20,
		"fig16":  40 << 20,
		"6":      2 * 12 * (32 << 10) * 8,
		"fig19":  20 << 20,
		"9":      48 * (256 << 10),
		"table1": 0, // analytic experiment: no payload
	}
	for id, want := range cases {
		if got := datasetBytes(id, opts); got != want {
			t.Errorf("datasetBytes(%s) = %d, want %d", id, got, want)
		}
	}
}
