package main

// This file is the single source of truth for the benchmark's names: the
// workloads, the end-to-end metrics with unit, direction and regression
// bound, and the per-layer metrics. BENCHMARK.json is generated from it
// (`go run . manifest`) and manifest_test.go fails when the two differ.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef describes one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// runSeconds is how long one run measures (the manifest's run_seconds).
const runSeconds = 28

// The counts in each why are per round; "x1/5" is the scale-down from the
// op counts ISSUE 13 names (object sizes are unscaled), made to fit the
// driver's per-run time cap.
var workloadDefs = []workloadDef{
	{"large_stream", "6 PutReader + 6 GetTo of unique 32 MiB objects per round (x1/5): chunker, chunk hash, erasure/gf256, pipeline window and resthttp body streaming do nearly all the work; round trips are <2%"},
	{"small_burst", "300 Put + 300 Get of 16 KiB objects per round (x1/3): one chunk per op, so per-op fixed cost (best-effort Sync, metadata scatter, selector, admission, HTTP round trips) dominates; codec bypassed"},
	{"edit_resync", "5 re-puts of a 32 MiB doc with four 4 KiB edits (x1/6), then 50 GetRange of 1 MiB (x1/6): full scan+hash but dedup uploads only touched chunks; reads gather 1-2 chunks. Guards dedup and ranges"},
	{"namespace_sync", "metadata plane only: 100 x 1 KiB files in setup (x1/10), 300 Delete/Restore mutations (one record each, no share moved), 30 cold Syncs by fresh clients (list, fetch and decode every record)"},
}

const (
	lower  = "lower"
	higher = "higher"
)

// fail_ratio is not listed: the driver's contract carries it as the result's
// failed/attempted counts and requires end-to-end metrics that are never 0.
//
// The timing bounds are the contract's maximum, kept as margin over the
// sandbox's noise, not a wish: a pure-CPU loop on this shared 2-vCPU guest
// toggles between two speeds 27% apart every few seconds to minutes, and
// the cost of waking a halted vCPU shifts with the host's load (see
// keepawake_linux.go, which takes that part out). Ten 28 s runs of one
// commit spread (interquartile, share of median) 3-20% by workload and
// stretch of the day. A tighter bound would reject unchanged code.
// stored_bytes_per_user_byte is a count and repeats exactly.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"write_ops_per_s", "ops/s", higher, 0.25},
	{"read_ops_per_s", "ops/s", higher, 0.25},
	{"write_p50_ms", "ms", lower, 0.25},
	{"read_p50_ms", "ms", lower, 0.25},
	{"write_cpu_ms_per_op", "ms/op", lower, 0.25},
	{"read_cpu_ms_per_op", "ms/op", lower, 0.25},
	{"stored_bytes_per_user_byte", "B/B", lower, 0.01},
}

var perLayer = []metricDef{
	// resthttp: counted by the store decorator around every connector call.
	{"resthttp.write_calls_per_op", "count/op", lower, 0},
	{"resthttp.read_calls_per_op", "count/op", lower, 0},
	{"resthttp.write_list_calls_per_op", "count/op", lower, 0},
	{"resthttp.read_list_calls_per_op", "count/op", lower, 0},
	{"resthttp.write_list_entries_per_op", "count/op", lower, 0},
	{"resthttp.read_list_entries_per_op", "count/op", lower, 0},
	{"resthttp.write_bytes_up_per_user_byte", "B/B", lower, 0},
	{"resthttp.read_bytes_down_per_user_byte", "B/B", lower, 0},
	{"resthttp.write_busy_ms_per_op", "ms/op", lower, 0},
	{"resthttp.read_busy_ms_per_op", "ms/op", lower, 0},
	{"resthttp.write_wall_ms_per_op", "ms/op", lower, 0},
	{"resthttp.read_wall_ms_per_op", "ms/op", lower, 0},
	{"resthttp.write_max_inflight", "count", higher, 0},
	{"resthttp.read_max_inflight", "count", higher, 0},
	{"resthttp.errors_per_op", "count/op", lower, 0},
	{"resthttp.rtt_us", "us", lower, 0},
	{"resthttp.upload_mbps", "MB/s", higher, 0},
	{"resthttp.download_mbps", "MB/s", higher, 0},
	// chunker, metadata, erasure, gf256, selector, transfer, cloudsim:
	// replayed from the benchmark over the workload's own inputs.
	{"chunker.scan_mbps", "MB/s", higher, 0},
	{"chunker.chunks_per_op", "count/op", lower, 0},
	{"chunker.write_ms_per_op", "ms/op", lower, 0},
	{"metadata.hash_mbps", "MB/s", higher, 0},
	{"metadata.write_hash_ms_per_op", "ms/op", lower, 0},
	{"metadata.read_hash_ms_per_op", "ms/op", lower, 0},
	{"metadata.encode_us_per_record", "us", lower, 0},
	{"metadata.decode_us_per_record", "us", lower, 0},
	{"metadata.record_bytes", "B", lower, 0},
	{"metadata.records_total", "count", lower, 0},
	{"erasure.encode_mbps", "MB/s", higher, 0},
	{"erasure.decode_mbps", "MB/s", higher, 0},
	{"erasure.encode_allocs_per_chunk", "count", lower, 0},
	{"erasure.write_ms_per_op", "ms/op", lower, 0},
	{"erasure.read_ms_per_op", "ms/op", lower, 0},
	{"gf256.muladd_gbps", "GB/s", higher, 0},
	{"selector.select_us", "us", lower, 0},
	{"transfer.attempt_overhead_us", "us", lower, 0},
	{"cloudsim.upload_mbps", "MB/s", higher, 0},
	{"cloudsim.download_mbps", "MB/s", higher, 0},
	// core: what the layers above do not explain.
	{"core.write_self_ms_per_op", "ms/op", lower, 0},
	{"core.read_self_ms_per_op", "ms/op", lower, 0},
	{"core.write_attributed_frac", "ratio", higher, 0},
	{"core.read_attributed_frac", "ratio", higher, 0},
	{"core.write_p95_ms", "ms", lower, 0},
	{"core.read_p95_ms", "ms", lower, 0},
	{"core.peak_rss_mib", "MiB", lower, 0},
	{"core.buffer_peak_mib", "MiB", lower, 0},
	// bench: the cost of measuring.
	{"bench.trace_overhead_frac", "ratio", lower, 0},
	{"bench.generator_cpu_frac", "ratio", lower, 0},
	{"bench.fail_ratio", "ratio", lower, 0},
}

// manifest is BENCHMARK.json, field for field as the driver's contract
// defines it.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDef    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}
