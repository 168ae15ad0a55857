package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/cyrus"
	"repro/internal/metadata"
)

const clientKey = "bench-user-key"

// sample is one timed client call.
type sample struct {
	wall   time.Duration
	cpu    time.Duration
	failed bool
}

type phaseSamples struct {
	samples   []sample
	userBytes int64
}

func (p *phaseSamples) wall() (total time.Duration) {
	for _, s := range p.samples {
		total += s.wall
	}
	return total
}

func (p *phaseSamples) cpu() (total time.Duration) {
	for _, s := range p.samples {
		total += s.cpu
	}
	return total
}

// round is one repetition of a workload: fresh providers, a fresh client
// with the default Config, the workload's setup and its two timed phases.
// One closed-loop caller drives it (client count 1).
type round struct {
	ctx    context.Context
	index  int
	rng    *rng
	cloud  *cloud
	stores []cyrus.Store // the connectors, wrapped when the round is traced
	client *cyrus.Client
	tr     *tracer   // nil in an untraced round
	rp     *replayer // nil in an untraced round

	phase       string
	cur         *phaseSamples
	write, read phaseSamples
	setupBytes  int64
	setupS      float64
	stored      float64 // stored bytes per user byte after the write phase
	genCPU      time.Duration
	bufferPeak  int64
	readRecords int // metadata records absorbed by read ops (cold syncs)
	records     []*metadata.FileMeta
	failures    []string
}

// cpuNow is this process's user+system CPU time. Providers are separate
// processes, so deltas are client CPU only.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gen runs an input generator and books its CPU time, so
// bench.generator_cpu_frac can show the generator stays cheap.
func (r *round) gen(fn func()) {
	c0 := cpuNow()
	fn()
	r.genCPU += cpuNow() - c0
}

// op times one client call. Generation and checking happen outside it.
func (r *round) op(name string, userBytes int64, fn func() error) {
	if r.tr != nil {
		r.tr.beginOp(name)
	}
	c0, t0 := cpuNow(), time.Now()
	err := fn()
	s := sample{wall: time.Since(t0), cpu: cpuNow() - c0, failed: err != nil}
	if r.tr != nil {
		r.tr.endOp(err)
	}
	r.cur.samples = append(r.cur.samples, s)
	r.cur.userBytes += userBytes
	if err != nil {
		r.note("%s: %v", name, err)
	}
}

// check marks the op just timed as failed when its result is wrong.
func (r *round) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	last := &r.cur.samples[len(r.cur.samples)-1]
	if !last.failed { // an op that errored already said why
		last.failed = true
		r.note(format, args...)
	}
}

func (r *round) note(format string, args ...any) {
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf("round %d %s: ", r.index, r.phase)+fmt.Sprintf(format, args...))
	}
}

// wrote and reads tell a traced round's replayer what the next op moves.
func (r *round) wrote(name string, data []byte) {
	if r.rp != nil {
		r.rp.wrote(r.phase, name, data)
	}
}

func (r *round) reads(name string, off, n int64, whole bool) {
	if r.rp != nil {
		r.rp.reads(name, off, n, whole)
	}
}

// order returns a seeded permutation of 0..n-1.
func (r *round) order(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	r.rng.shuffle(idx)
	return idx
}

// newClient builds a client over the round's connectors: default Config
// but for identity, key and (t, n) = (2, 3); no observer.
func (r *round) newClient(id string) (*cyrus.Client, error) {
	return cyrus.New(cyrus.Config{ClientID: id, Key: clientKey, T: shareT, N: shareN}, r.stores)
}

// setPhase names what the round is doing; cur is where op books its
// samples (nil outside the two timed phases, which time nothing).
func (r *round) setPhase(p string, cur *phaseSamples) {
	r.phase, r.cur = p, cur
	if r.tr != nil {
		r.tr.setPhase(r.index, p)
	}
}

// runRound executes one round and tears its providers down.
func runRound(ctx context.Context, o options, index int, tr *tracer, rp *replayer) (*round, error) {
	r := &round{ctx: ctx, index: index, rng: newRng(o.seed, uint64(index)), tr: tr, rp: rp}
	impl := workloadImpl[o.workload](r)
	r.setPhase("setup", nil)
	if rp != nil {
		rp.newRound()
	}

	t0 := time.Now()
	var err error
	if r.cloud, err = startCloud(ctx, o.provider); err != nil {
		return nil, err
	}
	cloud := r.cloud
	defer func() {
		cloud.stop()
		// Connections to the dead providers would otherwise sit in the
		// shared transport's idle pool for the rest of the run.
		http.DefaultClient.CloseIdleConnections()
	}()
	r.stores = r.cloud.stores
	if tr != nil {
		r.stores = make([]cyrus.Store, len(r.cloud.stores))
		for i, s := range r.cloud.stores {
			r.stores[i] = wrapStore(s, tr)
		}
	}
	if r.client, err = r.newClient("writer"); err != nil {
		return nil, err
	}
	if err := impl.setup(); err != nil {
		return nil, fmt.Errorf("%s setup: %w", o.workload, err)
	}
	r.setupS = time.Since(t0).Seconds()

	r.setPhase("write", &r.write)
	if err := impl.write(); err != nil {
		return nil, fmt.Errorf("%s write phase: %w", o.workload, err)
	}
	r.setPhase("stored", nil)
	storedBytes, err := r.cloud.storedBytes(ctx)
	if err != nil {
		return nil, err
	}
	r.stored = float64(storedBytes) / float64(r.setupBytes+r.write.userBytes)

	r.setPhase("read", &r.read)
	if err := impl.read(); err != nil {
		return nil, fmt.Errorf("%s read phase: %w", o.workload, err)
	}
	_, r.bufferPeak = r.client.BufferBytes()
	if tr != nil {
		r.records = r.client.Tree().All()
	}
	if o.workload == "large_stream" {
		// Incompressible unique objects must cost n/t plus metadata; the
		// write phase stored the bytes, so its first op carries the blame.
		lo := float64(shareN) / shareT
		if r.stored < lo || r.stored > lo+metaAllowance {
			r.note("stored_bytes_per_user_byte %.6f outside [%.2f, %.2f]", r.stored, lo, lo+metaAllowance)
			r.write.samples[0].failed = true
		}
	}
	// Rounds are kept until the run ends; their client and connectors are not.
	r.client, r.cloud, r.stores = nil, nil, nil
	return r, nil
}

// metricValue is one reported number, as the driver's contract spells it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the full record of one run, appended to the -out file: the
// contract result plus what is needed to read it later.
type report struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Env      map[string]string  `json:"env"`
	Rounds   int                `json:"rounds"`
	Samples  map[string]int     `json:"samples"`
	Extra    map[string]float64 `json:"extra,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	Result   result             `json:"result"`
}

// runWorkload repeats rounds until the time budget is used and turns them
// into the run's metrics. Untraced runs yield the end-to-end metrics;
// traced runs alternate an untraced and a traced round on the same inputs
// (their ratio is the tracing overhead) and yield the per-layer metrics.
func runWorkload(ctx context.Context, o options) (*report, error) {
	var tr *tracer
	var rp *replayer
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		tr = newTracer()
		var err error
		if rp, err = newReplayer(tr); err != nil {
			return nil, err
		}
		budget -= standaloneReserve
	}

	var plain, traced []*round
	start := time.Now()
	for i := 0; ; i++ {
		// A traced run pairs each untraced round with a traced one on the
		// same inputs, alternating which goes first so that warm-up and
		// drift fall on both sides of the overhead ratio alike.
		order := []bool{false}
		if o.trace {
			order = []bool{i%2 == 1, i%2 == 0}
		}
		for _, withTrace := range order {
			if withTrace {
				r, err := runRound(ctx, o, i, tr, rp)
				if err != nil {
					return nil, err
				}
				traced = append(traced, r)
			} else {
				r, err := runRound(ctx, o, i, nil, nil)
				if err != nil {
					return nil, err
				}
				plain = append(plain, r)
			}
		}
		// Start another round only if at least half of it fits.
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(2*(i+1)) > budget {
			break
		}
	}

	rep := &report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Env: environment(o), Rounds: len(plain), Samples: map[string]int{}, Extra: map[string]float64{},
	}
	for _, r := range slices.Concat(plain, traced) {
		for _, p := range []*phaseSamples{&r.write, &r.read} {
			for _, s := range p.samples {
				rep.Result.Attempted++
				if s.failed {
					rep.Result.Failed++
				}
			}
		}
		rep.Failures = append(rep.Failures, r.failures...)
	}

	values := make(map[string]float64)
	defs := endToEnd
	if o.trace {
		defs = perLayer
		if err := layerMetrics(ctx, o, values, plain, traced, tr, rp); err != nil {
			return nil, err
		}
		if rp.err != nil { // a replay that did not round-trip is a wrong output too
			rep.Failures = append(rep.Failures, rp.err.Error())
			rep.Result.Failed++
		}
		values["bench.fail_ratio"] = float64(rep.Result.Failed) / float64(rep.Result.Attempted)
		if err := writeTrace(o, tr); err != nil {
			return nil, err
		}
	} else {
		endToEndMetrics(values, rep, plain)
	}

	rep.Result.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rep.Result.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	rep.Result.Correct = rep.Result.Failed == 0
	return rep, nil
}

// pooled returns one per-op quantity in ms for one phase over all rounds.
func pooled(rounds []*round, pick func(*round) *phaseSamples, of func(sample) time.Duration) []float64 {
	var out []float64
	for _, r := range rounds {
		for _, s := range pick(r).samples {
			out = append(out, float64(of(s))/1e6)
		}
	}
	return out
}

func wallOf(s sample) time.Duration { return s.wall }
func cpuOf(s sample) time.Duration  { return s.cpu }

// perRound maps each round to one number.
func perRound(rounds []*round, fn func(*round) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = fn(r)
	}
	return out
}

// timedPhases names the two timed phases and how to reach their samples.
var timedPhases = []struct {
	name string
	pick func(*round) *phaseSamples
}{
	{"write", func(r *round) *phaseSamples { return &r.write }},
	{"read", func(r *round) *phaseSamples { return &r.read }},
}

func opsPerSec(p *phaseSamples) float64 { return float64(len(p.samples)) / p.wall().Seconds() }

// endToEndMetrics picks estimators that shrug off the sandbox's bursts of
// interference (a pure-CPU loop here varies +-20% from second to second):
// latency and CPU per op are medians over every op of every round, and the
// rate is the median over rounds of a round's fixed op count over its wall
// time. Means would report the neighbours' load, not the client's.
func endToEndMetrics(values map[string]float64, rep *report, rounds []*round) {
	values["setup_s"] = median(perRound(rounds, func(r *round) float64 { return r.setupS }))
	values["stored_bytes_per_user_byte"] = median(perRound(rounds, func(r *round) float64 { return r.stored }))
	for _, ph := range timedPhases {
		walls := pooled(rounds, ph.pick, wallOf)
		values[ph.name+"_ops_per_s"] = median(perRound(rounds, func(r *round) float64 { return opsPerSec(ph.pick(r)) }))
		values[ph.name+"_p50_ms"] = median(walls)
		values[ph.name+"_cpu_ms_per_op"] = median(pooled(rounds, ph.pick, cpuOf))
		rep.Samples[ph.name+"_ops"] = len(walls)
		rep.Extra[ph.name+"_p95_ms"] = percentile(walls, 95)
	}
}

// standaloneReserve is the part of a traced run's budget kept for the
// workload-independent layer benchmarks.
const standaloneReserve = 4 * time.Second

// layerMetrics fills every per-layer metric from the traced rounds' spans,
// the replayer's sums and the standalone layer benchmarks.
func layerMetrics(ctx context.Context, o options, v map[string]float64, plain, traced []*round, tr *tracer, rp *replayer) error {
	last := traced[len(traced)-1]
	sa, err := rp.standalone(ctx, o.provider, last.records)
	if err != nil {
		return err
	}
	var readRecords int
	var genCPU, allCPU time.Duration
	var bufPeak int64
	for _, r := range traced {
		readRecords += r.readRecords
		genCPU += r.genCPU
		allCPU += r.genCPU + r.write.cpu() + r.read.cpu()
		if r.bufferPeak > bufPeak {
			bufPeak = r.bufferPeak
		}
	}

	for _, ph := range timedPhases {
		st := aggregate(tr.spans, ph.name)
		if st.ops == 0 {
			return fmt.Errorf("no %s op spans recorded", ph.name)
		}
		ops := float64(st.ops)
		var userBytes int64
		for _, r := range traced {
			userBytes += ph.pick(r).userBytes
		}
		pre := "resthttp." + ph.name + "_"
		v[pre+"calls_per_op"] = float64(st.calls) / ops
		v[pre+"list_calls_per_op"] = float64(st.listCalls) / ops
		v[pre+"list_entries_per_op"] = float64(st.listEntries) / ops
		v[pre+"busy_ms_per_op"] = float64(st.busyNs) / 1e6 / ops
		v[pre+"wall_ms_per_op"] = float64(st.wallNs) / 1e6 / ops
		v[pre+"max_inflight"] = float64(st.maxInflight)
		v["resthttp.errors_per_op"] += float64(st.errors) / ops
		moved, key := st.bytesUp, "resthttp.write_bytes_up_per_user_byte"
		if ph.name == "read" {
			moved, key = st.bytesDown, "resthttp.read_bytes_down_per_user_byte"
		}
		v[key] = ratio(float64(moved), float64(userBytes)) // 0 for a metadata-only phase

		// Replayed layer time per op: with the connector's wall time, the
		// part of an op the layer numbers account for.
		replayMs := sa.attemptOverheadUs / 1e3 * v[pre+"calls_per_op"]
		if ph.name == "write" {
			replayMs += perOpMs(rp.writeScanNs+rp.writeHashNs+rp.writeEncNs, rp.writeOps) + sa.encodeUsPerRecord/1e3
		} else {
			replayMs += perOpMs(rp.readHashNs+rp.readDecNs+rp.selectNs, rp.readOps) +
				sa.decodeUsPerRecord/1e3*float64(readRecords)/ops
		}
		opMs := float64(st.opNs) / 1e6 / ops
		v["core."+ph.name+"_self_ms_per_op"] = float64(st.selfNs) / 1e6 / ops
		v["core."+ph.name+"_attributed_frac"] = (v[pre+"wall_ms_per_op"] + replayMs) / opMs
		v["core."+ph.name+"_p95_ms"] = percentile(pooled(traced, ph.pick, wallOf), 95)
	}

	v["resthttp.rtt_us"] = sa.httpRttUs
	v["resthttp.upload_mbps"] = sa.httpUpMbps
	v["resthttp.download_mbps"] = sa.httpDownMbps
	v["chunker.scan_mbps"] = mbps(rp.scanBytes, rp.scanNs)
	v["chunker.chunks_per_op"] = ratio(float64(rp.writeChunks), float64(rp.writeOps))
	v["chunker.write_ms_per_op"] = perOpMs(rp.writeScanNs, rp.writeOps)
	v["metadata.hash_mbps"] = mbps(rp.hashBytes, rp.hashNs)
	v["metadata.write_hash_ms_per_op"] = perOpMs(rp.writeHashNs, rp.writeOps)
	v["metadata.read_hash_ms_per_op"] = perOpMs(rp.readHashNs, rp.readOps)
	v["metadata.encode_us_per_record"] = sa.encodeUsPerRecord
	v["metadata.decode_us_per_record"] = sa.decodeUsPerRecord
	v["metadata.record_bytes"] = sa.recordBytes
	v["metadata.records_total"] = float64(sa.records)
	v["erasure.encode_mbps"] = mbps(rp.encBytes, rp.encNs)
	v["erasure.decode_mbps"] = mbps(rp.decBytes, rp.decNs)
	v["erasure.encode_allocs_per_chunk"] = sa.encodeAllocs
	v["erasure.write_ms_per_op"] = perOpMs(rp.writeEncNs, rp.writeOps)
	v["erasure.read_ms_per_op"] = perOpMs(rp.readDecNs, rp.readOps)
	v["gf256.muladd_gbps"] = sa.muladdGbps
	v["selector.select_us"] = perOpMs(rp.selectNs, rp.selects) * 1e3
	v["transfer.attempt_overhead_us"] = sa.attemptOverheadUs
	v["cloudsim.upload_mbps"] = sa.simUpMbps
	v["cloudsim.download_mbps"] = sa.simDownMbps
	v["core.peak_rss_mib"] = peakRSSMiB()
	v["core.buffer_peak_mib"] = float64(bufPeak) / (1 << 20)

	// Tracing overhead: the share of op rate lost, 1 - traced/untraced, with
	// each side's rate taken as 1 / (write p50 + read p50) so a burst of
	// interference in one of the few rounds does not pass for overhead.
	latency := func(rounds []*round) (ms float64) {
		for _, ph := range timedPhases {
			ms += median(pooled(rounds, ph.pick, wallOf))
		}
		return ms
	}
	v["bench.trace_overhead_frac"] = 1 - latency(plain)/latency(traced)
	v["bench.generator_cpu_frac"] = float64(genCPU) / float64(allCPU)
	return nil
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// writeTrace dumps the run's spans to <out>/trace-<workload>.json.
func writeTrace(o options, tr *tracer) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, "trace-"+o.workload+".json"), data, 0o644)
}
