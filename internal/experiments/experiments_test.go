package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestTable1Shape(t *testing.T) {
	r := Table1()
	if len(r.Rows) != 5 {
		t.Fatalf("Table 1 has %d rows", len(r.Rows))
	}
	// CYRUS is the only all-yes row.
	for _, row := range r.Rows {
		allYes := true
		for _, cell := range row[1:] {
			if cell != "Yes" {
				allYes = false
			}
		}
		if allYes != (row[0] == "CYRUS") {
			t.Fatalf("row %v: all-yes = %v", row, allYes)
		}
	}
	if !strings.Contains(r.String(), "CYRUS") {
		t.Fatal("render missing CYRUS")
	}
}

func TestTable2Shape(t *testing.T) {
	r := Table2()
	if len(r.Rows) != 20 {
		t.Fatalf("Table 2 has %d rows", len(r.Rows))
	}
}

func TestTable4Shape(t *testing.T) {
	r, err := Table4(1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 { // 7 extensions + total
		t.Fatalf("Table 4 has %d rows", len(r.Rows))
	}
	if r.Rows[len(r.Rows)-1][1] != "172" {
		t.Fatalf("total files = %s", r.Rows[len(r.Rows)-1][1])
	}
}

func TestFigure3AmazonCluster(t *testing.T) {
	res, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	// One cluster of exactly the five Amazon-hosted CSPs.
	foundAmazon := false
	for _, cl := range res.Clusters {
		if len(cl) == 5 {
			foundAmazon = true
		} else if len(cl) != 1 {
			t.Fatalf("unexpected cluster %v", cl)
		}
	}
	if !foundAmazon {
		t.Fatalf("no 5-CSP amazon cluster in %v", res.Clusters)
	}
	if len(res.Clusters) != 16 {
		t.Fatalf("%d clusters, want 16", len(res.Clusters))
	}
}

func TestFigure12Shape(t *testing.T) {
	res, err := Figure12(Figure12Config{
		ChunkBytes: 4 * MB,
		TValues:    []int{2, 6, 10},
		NValues:    []int{3, 7, 11},
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("%d points", len(res.Points))
	}
	// Paper shape: decode slows as t grows; encode slows as n grows.
	varyT := res.Points[:3]
	if varyT[0].DecodeMBps <= varyT[2].DecodeMBps {
		t.Errorf("decode throughput did not fall with t: t=2 %.0f MB/s vs t=10 %.0f MB/s",
			varyT[0].DecodeMBps, varyT[2].DecodeMBps)
	}
	varyN := res.Points[3:]
	if varyN[0].EncodeMBps <= varyN[2].EncodeMBps {
		t.Errorf("encode throughput did not fall with n: n=3 %.0f MB/s vs n=11 %.0f MB/s",
			varyN[0].EncodeMBps, varyN[2].EncodeMBps)
	}
	for _, p := range res.Points {
		if p.EncodeMBps <= 0 || p.DecodeMBps <= 0 {
			t.Fatalf("non-positive throughput: %+v", p)
		}
	}
}

func TestFigure13Shape(t *testing.T) {
	res, err := Figure13(Figure13Config{Trials: 2_000_000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Most reliable single CSP: p = 1.37/8760 -> ~313 failures at 2e6.
	if res.SingleCSP[0] < 150 || res.SingleCSP[0] > 600 {
		t.Fatalf("best single CSP failures = %d, expect ~313", res.SingleCSP[0])
	}
	// CYRUS (3,4) at least 5x fewer failures than the most reliable single
	// CSP (paper: ~34x at 10^7 trials).
	if res.Cyrus34*5 > res.SingleCSP[0] {
		t.Fatalf("CYRUS(3,4) = %d failures vs best single %d", res.Cyrus34, res.SingleCSP[0])
	}
	// CYRUS (2,4) essentially zero.
	if res.Cyrus24 > 2 {
		t.Fatalf("CYRUS(2,4) = %d failures", res.Cyrus24)
	}
	// Monotone: worse downtime -> more failures.
	for i := 1; i < 4; i++ {
		if res.SingleCSP[i] < res.SingleCSP[i-1] {
			t.Fatalf("single-CSP failures not monotone: %v", res.SingleCSP)
		}
	}
}

func TestFigure13RejectsWrongCSPCount(t *testing.T) {
	if _, err := Figure13(Figure13Config{Trials: 10, DowntimeHours: []float64{1}}); err == nil {
		t.Fatal("3-CSP config accepted")
	}
}

// tinyTestbed keeps tests quick while staying transfer-dominated (files
// must be big enough that share size, not RTT, drives completion times).
var tinyTestbed = TestbedConfig{Scale: 0.05, Seed: 5}

func TestFigure14Shapes(t *testing.T) {
	res, err := Figure14(tinyTestbed)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfgKey := range []string{"(2,3)", "(2,4)", "(3,4)"} {
		m := res.MeanDownload[cfgKey]
		if m == nil {
			t.Fatalf("missing config %s", cfgKey)
		}
		// Paper: CYRUS shortest, random longest.
		if m["cyrus"] > m["heuristic"]+1e-9 {
			t.Errorf("%s: cyrus %.3fs worse than heuristic %.3fs", cfgKey, m["cyrus"], m["heuristic"])
		}
		if m["cyrus"] > m["random"]+1e-9 {
			t.Errorf("%s: cyrus %.3fs worse than random %.3fs", cfgKey, m["cyrus"], m["random"])
		}
		if m["random"] < m["heuristic"]*0.8 {
			t.Errorf("%s: random %.3fs unexpectedly beats heuristic %.3fs badly", cfgKey, m["random"], m["heuristic"])
		}
	}
	// Paper: CYRUS (3,4) especially short (smaller shares). For mostly
	// single-chunk files the smaller-share gain is partly offset by having
	// to touch a third (possibly slow) cloud, so allow a 10% band rather
	// than strict dominance.
	if res.MeanDownload["(3,4)"]["cyrus"] > res.MeanDownload["(2,3)"]["cyrus"]*1.1 {
		t.Errorf("(3,4) cyrus %.3fs materially slower than (2,3) %.3fs",
			res.MeanDownload["(3,4)"]["cyrus"], res.MeanDownload["(2,3)"]["cyrus"])
	}
	// Figure 14b: CYRUS throughput distribution to the right of the others.
	if res.ThroughputBox["cyrus"].Median <= res.ThroughputBox["random"].Median {
		t.Errorf("cyrus median throughput %.0f not above random %.0f",
			res.ThroughputBox["cyrus"].Median, res.ThroughputBox["random"].Median)
	}
}

func TestFigure15Shapes(t *testing.T) {
	res, err := Figure15(tinyTestbed)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: (3,4) consistently shortest, especially uploads; (2,4) uploads
	// slower than (2,3).
	if res.CumulativeUpload["(3,4)"] > res.CumulativeUpload["(2,3)"] {
		t.Errorf("(3,4) upload %.1fs not shorter than (2,3) %.1fs",
			res.CumulativeUpload["(3,4)"], res.CumulativeUpload["(2,3)"])
	}
	if res.CumulativeUpload["(2,4)"] < res.CumulativeUpload["(2,3)"] {
		t.Errorf("(2,4) upload %.1fs shorter than (2,3) %.1fs — extra share should cost time",
			res.CumulativeUpload["(2,4)"], res.CumulativeUpload["(2,3)"])
	}
	if res.CumulativeDownload["(3,4)"] > res.CumulativeDownload["(2,3)"]*1.1 {
		t.Errorf("(3,4) download %.1fs materially slower than (2,3) %.1fs",
			res.CumulativeDownload["(3,4)"], res.CumulativeDownload["(2,3)"])
	}
}

func TestFigure16Shapes(t *testing.T) {
	res, err := Figure16(Figure16Config{FileBytes: 8 * MB, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	up, down := res.Upload, res.Download
	// Paper: striping has the shortest upload; CYRUS second.
	if up["full-striping"] > up["cyrus"] {
		t.Errorf("striping upload %.1fs worse than cyrus %.1fs", up["full-striping"], up["cyrus"])
	}
	if up["cyrus"] > up["depsky"] {
		t.Errorf("cyrus upload %.1fs worse than depsky %.1fs", up["cyrus"], up["depsky"])
	}
	if up["cyrus"] > up["full-replication"] {
		t.Errorf("cyrus upload %.1fs worse than full replication %.1fs", up["cyrus"], up["full-replication"])
	}
	// Paper: CYRUS shortest download; DepSky worse; replication (averaged)
	// worst.
	if down["cyrus"] > down["depsky"] {
		t.Errorf("cyrus download %.1fs worse than depsky %.1fs", down["cyrus"], down["depsky"])
	}
	if down["depsky"] > down["full-replication"] {
		t.Errorf("depsky download %.1fs worse than replication avg %.1fs", down["depsky"], down["full-replication"])
	}
}

// tinyHourly covers one full day so per-cloud diurnal phases average out.
var tinyHourly = HourlyConfig{Samples: 24, FileBytes: MB / 2, Seed: 11}

func TestFigure17Shapes(t *testing.T) {
	res, err := Figure17(tinyHourly)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: CYRUS significantly shorter; DepSky uploads ~2x.
	if res.CyrusUpload.Median >= res.DepskyUpload.Median {
		t.Errorf("cyrus upload median %.2fs not below depsky %.2fs",
			res.CyrusUpload.Median, res.DepskyUpload.Median)
	}
	if res.DepskyUpload.Median < 1.4*res.CyrusUpload.Median {
		t.Errorf("depsky upload median %.2fs not materially above cyrus %.2fs",
			res.DepskyUpload.Median, res.CyrusUpload.Median)
	}
	if res.CyrusDownload.Median >= res.DepskyDownload.Median {
		t.Errorf("cyrus download median %.2fs not below depsky %.2fs",
			res.CyrusDownload.Median, res.DepskyDownload.Median)
	}
}

func TestFigure18Shapes(t *testing.T) {
	res, err := Figure18(tinyHourly)
	if err != nil {
		t.Fatal(err)
	}
	// CYRUS: every CSP holds shares; spread within a reasonable band.
	cyMin, cyMax := 1<<30, 0
	cyTotal := 0
	for _, spec := range realWorld4() {
		n := res.Cyrus[spec.name]
		cyTotal += n
		if n < cyMin {
			cyMin = n
		}
		if n > cyMax {
			cyMax = n
		}
	}
	if cyMin == 0 {
		t.Errorf("CYRUS left a CSP with zero shares: %v", res.Cyrus)
	}
	if cyMax > 3*cyMin {
		t.Errorf("CYRUS distribution skewed: %v", res.Cyrus)
	}
	// DepSky: the consistently fastest CSP (google-drive) wins a share on
	// every upload, and at least one slower CSP is left materially behind.
	if res.Depsky["google-drive"] != tinyHourly.Samples {
		t.Errorf("DepSky fastest CSP got %d of %d shares: %v",
			res.Depsky["google-drive"], tinyHourly.Samples, res.Depsky)
	}
	dsMin := tinyHourly.Samples
	for _, spec := range realWorld4() {
		if n := res.Depsky[spec.name]; n < dsMin {
			dsMin = n
		}
	}
	if dsMin >= res.Depsky["google-drive"] {
		t.Errorf("DepSky distribution not skewed: %v", res.Depsky)
	}
	// And DepSky's spread exceeds CYRUS's (the Figure-18 contrast).
	if (res.Depsky["google-drive"] - dsMin) <= (cyMax - cyMin) {
		t.Errorf("DepSky spread %d not above CYRUS spread %d (depsky %v, cyrus %v)",
			res.Depsky["google-drive"]-dsMin, cyMax-cyMin, res.Depsky, res.Cyrus)
	}
	// Total DepSky shares = n per upload.
	dsTotal := 0
	for _, n := range res.Depsky {
		dsTotal += n
	}
	if dsTotal != tinyHourly.Samples*3 {
		t.Errorf("DepSky stored %d shares, want %d", dsTotal, tinyHourly.Samples*3)
	}
	if cyTotal != tinyHourly.Samples*3 {
		t.Errorf("CYRUS stored %d shares, want %d", cyTotal, tinyHourly.Samples*3)
	}
}

func TestFigure19Shapes(t *testing.T) {
	res, err := Figure19(TrialConfig{FileBytes: 4 * MB, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]TrialRow{}
	for _, row := range res.Rows {
		byKey[row.Region+"/"+row.Scheme] = row
	}
	// US: (2,4) upload slower than every single CSP (client uplink
	// bottleneck), (2,3) faster than all but at most one CSP.
	singles := []string{"google-drive", "dropbox", "onedrive", "box"}
	worseThan23 := 0
	for _, s := range singles {
		if byKey["us/cyrus(2,4)"].Upload < byKey["us/"+s].Upload {
			t.Errorf("US cyrus(2,4) upload %.1fs beat single %s %.1fs",
				byKey["us/cyrus(2,4)"].Upload, s, byKey["us/"+s].Upload)
		}
		if byKey["us/cyrus(2,3)"].Upload > byKey["us/"+s].Upload {
			worseThan23++
		}
	}
	if worseThan23 > 1 {
		t.Errorf("US cyrus(2,3) upload beaten by %d single CSPs, paper says at most 1", worseThan23)
	}
	// Korea: both CYRUS configs upload faster than every single CSP.
	for _, cfg := range []string{"cyrus(2,3)", "cyrus(2,4)"} {
		for _, s := range singles {
			if byKey["kr/"+cfg].Upload > byKey["kr/"+s].Upload {
				t.Errorf("KR %s upload %.1fs slower than single %s %.1fs",
					cfg, byKey["kr/"+cfg].Upload, s, byKey["kr/"+s].Upload)
			}
		}
	}
	// Downloads: CYRUS shorter than all singles except possibly the fastest.
	for _, region := range []string{"us", "kr"} {
		beaten := 0
		for _, s := range singles {
			if byKey[region+"/cyrus(2,4)"].Down > byKey[region+"/"+s].Down {
				beaten++
			}
		}
		if beaten > 1 {
			t.Errorf("%s cyrus(2,4) download beaten by %d singles", region, beaten)
		}
	}
}

func TestAblations(t *testing.T) {
	r, err := AblationSelector(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 15 { // 3 sizes x (4 policies + exhaustive)
		t.Fatalf("selector ablation rows = %d", len(r.Rows))
	}
	cyrusRows := 0
	for _, row := range r.Rows {
		if row[1] == "cyrus (full)" {
			cyrusRows++
			if row[3] != "1.00x" {
				t.Errorf("cyrus at %s chunks reads %s of the exhaustive optimum, want 1.00x", row[0], row[3])
			}
		}
	}
	if cyrusRows != 3 {
		t.Fatalf("selector ablation has %d cyrus rows, want 3", cyrusRows)
	}

	r, err = AblationChunking(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("chunking ablation rows = %d", len(r.Rows))
	}

	r, err = AblationRing(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("ring ablation rows = %d", len(r.Rows))
	}

	r, err = AblationMigration(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("migration ablation rows = %d", len(r.Rows))
	}
	if !strings.Contains(r.String(), "lazy") {
		t.Fatal("migration ablation render")
	}

	r, err = AblationMetadata(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("metadata ablation rows = %d", len(r.Rows))
	}
}

func TestAblationConcurrencyShape(t *testing.T) {
	r, err := AblationConcurrency(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The speedup column ("Nx") must grow with contention: optimistic
	// concurrency wins more the more writers contend.
	parse := func(s string) float64 {
		var v float64
		if _, err := fmt.Sscanf(s, "%fx", &v); err != nil {
			t.Fatalf("bad speedup cell %q", s)
		}
		return v
	}
	oneWriter := parse(r.Rows[0][3])
	eightWriters := parse(r.Rows[3][3])
	if eightWriters < 2 {
		t.Fatalf("8-writer speedup = %.1f, want >= 2 (lock protocol must serialize)", eightWriters)
	}
	if eightWriters <= oneWriter {
		t.Fatalf("speedup does not grow with contention: 1w %.1f vs 8w %.1f", oneWriter, eightWriters)
	}
}

func TestDedupSweep(t *testing.T) {
	// Small files keep the sweep quick; the acceptance bars are size-free
	// (ratios of measured CSP bytes).
	res, err := Dedup(DedupConfig{Seed: 7, Files: 10, FileBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 8 || len(res.Report.Rows) != 8 {
		t.Fatalf("points = %d rows = %d, want 8 each", len(res.Points), len(res.Report.Rows))
	}
	for _, p := range res.Points {
		// Two users, so the dedup ratio must track overlap/2 (each shared
		// byte is stored once instead of twice).
		want := p.Overlap / 2
		if diff := p.DedupRatio - want; diff < -0.06 || diff > 0.06 {
			t.Errorf("(%d,%d) overlap %.0f%%: dedup ratio %.3f, want %.3f +- 0.06",
				p.T, p.N, 100*p.Overlap, p.DedupRatio, want)
		}
		if p.Overlap == 0 && p.CASBytes != p.Standalone {
			t.Errorf("(%d,%d) 0%% overlap: CAS %d != no-dedup baseline %d",
				p.T, p.N, p.CASBytes, p.Standalone)
		}
		// The PR acceptance bar: at 90% overlap the two-user footprint
		// stays within 1.15x of a single user's.
		if p.Overlap >= 0.9 && p.VsSingleUser > 1.15 {
			t.Errorf("(%d,%d) 90%% overlap: %.3fx single-user footprint exceeds 1.15x",
				p.T, p.N, p.VsSingleUser)
		}
	}
}

func TestMetaPlaneAcceptance(t *testing.T) {
	// Tiny namespace keeps the test quick; the acceptance bars are
	// round-trip counts and ratios, independent of namespace size.
	res, err := MetaPlane(MetaPlaneConfig{Seed: 7, Scale: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	if res.Files != 200 {
		t.Fatalf("files = %d, want 200", res.Files)
	}
	if res.WarmGetMetaRTs != 0 {
		t.Errorf("warm Get cost %d metadata round trips, want 0", res.WarmGetMetaRTs)
	}
	if res.WarmStatMetaRTs != 0 {
		t.Errorf("warm Stat pass cost %d metadata round trips, want 0", res.WarmStatMetaRTs)
	}
	if res.BatchReduction < 5 {
		t.Errorf("batch reduction %.1fx, want >= 5x vs the per-record baseline", res.BatchReduction)
	}
	if res.PutMetaRTsPerFileSharded >= res.PutMetaRTsPerFileUnsharded {
		t.Errorf("sharded put fan-out %.1f not below unsharded %.1f",
			res.PutMetaRTsPerFileSharded, res.PutMetaRTsPerFileUnsharded)
	}
	if res.ShardRecordsMin <= 0 || res.ShardRecordsMax < res.ShardRecordsMin {
		t.Errorf("shard skew min/max = %d/%d", res.ShardRecordsMin, res.ShardRecordsMax)
	}
}

func TestLoadSchedCrossover(t *testing.T) {
	// The acceptance bars for the load-adaptive redundancy loop, asserted
	// against the same deterministic sweep BENCH_9.json records.
	res, err := LoadSched(LoadSchedConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 15 { // 5 policies x 3 offered loads
		t.Fatalf("%d cells, want 15", len(res.Cells))
	}
	cell := func(policy string, load int) LoadCell {
		for _, c := range res.Cells {
			if c.Policy == policy && c.Load == load {
				return c
			}
		}
		t.Fatalf("no cell %s@%d", policy, load)
		return LoadCell{}
	}
	const lo, hi = 8, 192

	// Past the crossover the fixed-delay baseline storms: most hedges are
	// wasted, and the closed loop beats its p99 by at least 20%.
	sHi, aHi := cell("static", hi), cell("adaptive", hi)
	if sHi.Hedges == 0 || sHi.Losses <= sHi.Wins {
		t.Errorf("static@%d did not storm: %d hedges, %d/%d win/loss", hi, sHi.Hedges, sHi.Wins, sHi.Losses)
	}
	if aHi.P99 > 0.80*sHi.P99 {
		t.Errorf("adaptive p99 %.3fs not >=20%% under static %.3fs at %d gets/s", aHi.P99, sHi.P99, hi)
	}
	// The loop suppresses instead of hedging into the queue, and tracks
	// the unhedged baseline.
	if aHi.Suppressed == 0 {
		t.Errorf("adaptive@%d suppressed no hedges", hi)
	}
	if sHi.Hedges <= aHi.Hedges {
		t.Errorf("adaptive launched %d hedges at %d gets/s, static only %d", aHi.Hedges, hi, sHi.Hedges)
	}
	nHi := cell("nohedge", hi)
	if aHi.P99 > 1.15*nHi.P99 {
		t.Errorf("adaptive p99 %.3fs does not track nohedge %.3fs at %d gets/s", aHi.P99, nHi.P99, hi)
	}

	// Below the crossover hedging is close to free (p50 within 5% of the
	// fixed-delay policy) and rescues the flapping provider's tail.
	sLo, aLo, nLo := cell("static", lo), cell("adaptive", lo), cell("nohedge", lo)
	diff := aLo.P50 - sLo.P50
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.05*sLo.P50 {
		t.Errorf("adaptive p50 %.4fs strays >5%% from static %.4fs at %d gets/s", aLo.P50, sLo.P50, lo)
	}
	if aLo.P99 > 1.05*nLo.P99 {
		t.Errorf("adaptive p99 %.3fs worse than nohedge %.3fs at %d gets/s: hedging rescued nothing", aLo.P99, nLo.P99, lo)
	}

	// Race reads cancel their losers; the waste is metered.
	if w := cell("race", lo).RaceWaste; w == 0 {
		t.Error("race policy reported zero cancelled bytes")
	}
}
