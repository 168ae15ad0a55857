package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/erasure"
)

// Figure12Config parameterizes the coding-overhead measurement.
type Figure12Config struct {
	// ChunkBytes is the chunk size to encode; the paper uses 100 MB.
	ChunkBytes int
	// TValues and NValues define the sweep; zero values take the paper's
	// ranges (t in 2..10 with n = t+1, and n in 3..11 with t = 2).
	TValues []int
	NValues []int
	Seed    int64
}

// Figure12Point is one measured configuration. The MB/s figures are timed
// on the wall clock; the multiply-add counts are the codec's exact work.
type Figure12Point struct {
	T, N       int
	EncodeMBps float64
	DecodeMBps float64

	// EncodeMulAdds and DecodeMulAdds are the GF(256) multiply(-add)s per
	// data byte of one encode and one decode (codecMulAdds).
	EncodeMulAdds float64
	DecodeMulAdds float64
}

// codecMulAdds returns the GF(256) multiply(-add)s per data byte that
// erasure.Coder performs on a size-byte chunk at (t, n): EncodeTo multiplies
// every data byte into each of the n share rows once, and DecodeInto
// multiplies every byte of t share payloads, ceil(size/t) bytes each, into
// each of the t data stripes. Unlike a timing it is the same on every run
// and every host.
func codecMulAdds(size, t, n int) (encode, decode float64) {
	words := (size + t - 1) / t
	return float64(n), float64(t*t*words) / float64(size)
}

// Figure12Result is the coding-overhead sweep.
type Figure12Result struct {
	Points []Figure12Point
	Report Report
}

// Figure12 measures empirical encode/decode throughput of the
// non-systematic Reed-Solomon coder while changing t and n, reproducing
// the two sweeps of the paper's Figure 12: decoding slows with t, encoding
// slows with n.
func Figure12(cfg Figure12Config) (Figure12Result, error) {
	if cfg.ChunkBytes == 0 {
		cfg.ChunkBytes = 100 * MB
	}
	sweepT := cfg.TValues
	sweepN := cfg.NValues
	if sweepT == nil {
		sweepT = []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	if sweepN == nil {
		sweepN = []int{3, 4, 5, 6, 7, 8, 9, 10, 11}
	}
	coder := erasure.NewCoder("figure12")
	data := make([]byte, cfg.ChunkBytes)
	rand.New(rand.NewSource(cfg.Seed)).Read(data)

	// Each point is the best of three runs with a GC between them: the
	// sweep allocates hundreds of MB per configuration and a single-shot
	// measurement is dominated by collector noise.
	measure := func(t, n int) (Figure12Point, error) {
		best := Figure12Point{T: t, N: n}
		best.EncodeMulAdds, best.DecodeMulAdds = codecMulAdds(cfg.ChunkBytes, t, n)
		for rep := 0; rep < 3; rep++ {
			runtime.GC()
			start := time.Now()
			shares, err := coder.Encode(data, t, n)
			if err != nil {
				return Figure12Point{}, err
			}
			encSecs := time.Since(start).Seconds()

			start = time.Now()
			got, err := coder.Decode(shares[:t], n)
			if err != nil {
				return Figure12Point{}, err
			}
			decSecs := time.Since(start).Seconds()
			if len(got) != len(data) {
				return Figure12Point{}, fmt.Errorf("figure12: decode length %d != %d", len(got), len(data))
			}
			mbs := float64(cfg.ChunkBytes) / MB
			if v := mbs / encSecs; v > best.EncodeMBps {
				best.EncodeMBps = v
			}
			if v := mbs / decSecs; v > best.DecodeMBps {
				best.DecodeMBps = v
			}
		}
		return best, nil
	}

	res := Figure12Result{Report: Report{
		ID:      "fig12",
		Title:   fmt.Sprintf("Empirical overhead of %d MB chunk encoding/decoding vs t and n", cfg.ChunkBytes/MB),
		Columns: []string{"sweep", "t", "n", "encode", "decode", "encode GF muladds/B", "decode GF muladds/B"},
		Notes: []string{
			"paper: decode throughput falls with t (min ~100 MB/s at t=10); encode falls with n (min ~100 MB/s at n=11)",
			"experiment configs (t,n) between (2,3) and (3,5) must stay comfortably above the network bottleneck",
		},
	}}
	// Sweep t with n = t+1 (decoding cost dominated by t).
	for _, t := range sweepT {
		p, err := measure(t, t+1)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, p)
		res.Report.Rows = append(res.Report.Rows, []string{"vary-t", fmt.Sprint(p.T), fmt.Sprint(p.N),
			mbps(p.EncodeMBps * MB), mbps(p.DecodeMBps * MB), fmt.Sprintf("%.2f", p.EncodeMulAdds), fmt.Sprintf("%.2f", p.DecodeMulAdds)})
	}
	// Sweep n with t = 2 (encoding cost dominated by n).
	for _, n := range sweepN {
		p, err := measure(2, n)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, p)
		res.Report.Rows = append(res.Report.Rows, []string{"vary-n", fmt.Sprint(p.T), fmt.Sprint(p.N),
			mbps(p.EncodeMBps * MB), mbps(p.DecodeMBps * MB), fmt.Sprintf("%.2f", p.EncodeMulAdds), fmt.Sprintf("%.2f", p.DecodeMulAdds)})
	}
	return res, nil
}
