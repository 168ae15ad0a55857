package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/chunker"
	"repro/internal/erasure"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// FastPathConfig parameterizes the client-compute benchmark (BENCH id "4"):
// codec throughput, Rabin-vs-FastCDC chunking throughput, and an end-to-end
// Put/Get sanity pass on the simulated testbed.
type FastPathConfig struct {
	// ChunkBytes is the payload size per codec measurement. Default 4 MB
	// (the paper's average chunk size).
	ChunkBytes int
	// Scale shrinks the Table-4 dataset for the e2e phase. Default 0.05.
	Scale float64
	Seed  int64
}

func (c *FastPathConfig) defaults() {
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 4 * MB
	}
	if c.Scale == 0 {
		c.Scale = 0.05
	}
}

// FastPathPoint is one (t, n) row of the codec comparison, single-core MB/s.
type FastPathPoint struct {
	T, N           int
	Encode, Decode float64
}

// FastPathResult carries the headline numbers tracked across PRs
// (BENCH_4.json).
type FastPathResult struct {
	Report Report

	Codec       []FastPathPoint
	RabinMBps   float64
	FastCDCMBps float64
	PutSeconds  float64 // e2e cold upload, virtual time
	GetSeconds  float64 // e2e warm gather, virtual time
}

// FastPath measures the client-side compute fast path. Its trajectory
// across commits is tracked by the wall-clock benchmark (bench/,
// erasure.{encode,decode}_mbps), not by an in-tree replica of older code:
//
//   - Codec: encode/decode one chunk at (2,4), (3,6), (4,8) through
//     Coder.EncodeTo/DecodeInto: cached matrices, pooled buffers, decode
//     in place, and whichever gf256 kernel init selected — the AVX2
//     shuffle kernel on amd64 CPUs that have it, the fused word-wide one
//     everywhere else — so absolute MB/s depends on the machine's GOARCH.
//   - Chunking: Rabin vs FastCDC over the same input and size targets.
//   - End to end: Put and Get of the scaled Table-4 dataset on the 4-fast/
//     3-slow simulated testbed, timing in virtual seconds (compute runs at
//     real speed inside the simulation; this phase guards correctness and
//     regression of the wiring, not kernel speed).
//
// Codec and chunking phases are measured in real single-core seconds,
// best-of-3 with a GC between trials.
func FastPath(cfg FastPathConfig) (FastPathResult, error) {
	cfg.defaults()
	res := FastPathResult{}
	rng := rand.New(rand.NewSource(cfg.Seed))
	data := make([]byte, cfg.ChunkBytes)
	rng.Read(data)

	coder := erasure.NewCoder("experiment-key")

	// bestOf returns the highest throughput of three timed runs of fn.
	bestOf := func(nbytes int, fn func() error) (float64, error) {
		best := 0.0
		for trial := 0; trial < 3; trial++ {
			runtime.GC()
			start := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			if s := time.Since(start).Seconds(); s > 0 {
				if m := float64(nbytes) / MB / s; m > best {
					best = m
				}
			}
		}
		return best, nil
	}

	const reps = 8 // amortize timer granularity over several codec calls

	for _, tn := range [][2]int{{2, 4}, {3, 6}, {4, 8}} {
		t, n := tn[0], tn[1]
		pt := FastPathPoint{T: t, N: n}
		var err error

		dst := make([]erasure.Share, 0, n)
		pt.Encode, err = bestOf(reps*len(data), func() error {
			for r := 0; r < reps; r++ {
				var err error
				if dst, err = coder.EncodeTo(dst[:0], data, t, n); err != nil {
					return err
				}
				erasure.ReleaseShares(dst)
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("encode (t=%d,n=%d): %w", t, n, err)
		}

		// Decode inputs: exactly t shares, as the common gather path fetches.
		shares, err := coder.Encode(data, t, n)
		if err != nil {
			return res, err
		}
		in := make([]erasure.Share, t)
		for i := 0; i < t; i++ {
			in[i] = erasure.Share{Index: shares[i].Index, Data: append([]byte(nil), shares[i].Data...)}
		}
		erasure.ReleaseShares(shares)

		out := make([]byte, 0, len(data))
		pt.Decode, err = bestOf(reps*len(data), func() error {
			for r := 0; r < reps; r++ {
				var err error
				if out, err = coder.DecodeInto(out[:0], in, n); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("decode (t=%d,n=%d): %w", t, n, err)
		}
		if !bytes.Equal(out, data) {
			return res, fmt.Errorf("decode mismatch (t=%d,n=%d)", t, n)
		}

		res.Codec = append(res.Codec, pt)
	}

	// Chunking: identical size targets, same input, Rabin vs FastCDC.
	chunkInput := make([]byte, 32*MB)
	rng.Read(chunkInput)
	for _, algo := range []chunker.Algorithm{chunker.Rabin, chunker.FastCDC} {
		cc := chunker.Config{Algorithm: algo, AverageSize: MB, MinSize: MB / 4, MaxSize: 4 * MB}
		ch, err := chunker.New(cc)
		if err != nil {
			return res, err
		}
		var chunks []chunker.Chunk
		mbs, err := bestOf(len(chunkInput), func() error {
			chunks = ch.SplitTo(chunks[:0], chunkInput)
			return nil
		})
		if err != nil {
			return res, err
		}
		if algo == chunker.Rabin {
			res.RabinMBps = mbs
		} else {
			res.FastCDCMBps = mbs
		}
	}

	// End to end: the full client on the simulated testbed, FastCDC
	// chunking, codec pool engaged. Virtual-time Put/Get of the dataset.
	files, err := workload.Generate(workload.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return res, err
	}
	env := newSimEnv(netsim.NodeConfig{}, testbedClouds())
	var runErr error
	env.net.Run(func() {
		cc := testbedChunking(cfg.Scale)
		cc.Algorithm = chunker.FastCDC
		up, err := env.newClient("uploader", 2, 3, cc, nil)
		if err != nil {
			runErr = err
			return
		}
		start := env.net.VirtualNow()
		for _, f := range files {
			if err := up.Put(bg, f.Name, f.Data); err != nil {
				runErr = fmt.Errorf("put %s: %w", f.Name, err)
				return
			}
		}
		res.PutSeconds = env.net.VirtualNow() - start

		dl, err := env.newClient("downloader", 2, 3, cc, nil)
		if err != nil {
			runErr = err
			return
		}
		if err := dl.Recover(bg); err != nil {
			runErr = err
			return
		}
		start = env.net.VirtualNow()
		for _, f := range files {
			got, _, err := dl.Get(bg, f.Name)
			if err != nil {
				runErr = fmt.Errorf("get %s: %w", f.Name, err)
				return
			}
			if !bytes.Equal(got, f.Data) {
				runErr = fmt.Errorf("get %s: content mismatch", f.Name)
				return
			}
		}
		res.GetSeconds = env.net.VirtualNow() - start
	})
	if runErr != nil {
		return res, runErr
	}

	var e2eBytes int64
	for _, f := range files {
		e2eBytes += int64(len(f.Data))
	}
	e2eMB := float64(e2eBytes) / MB

	mbps := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	rows := [][]string{}
	for _, pt := range res.Codec {
		rows = append(rows,
			[]string{fmt.Sprintf("encode (t=%d,n=%d)", pt.T, pt.N), mbps(pt.Encode)},
			[]string{fmt.Sprintf("decode (t=%d,n=%d)", pt.T, pt.N), mbps(pt.Decode)},
		)
	}
	rows = append(rows,
		[]string{"chunking (rabin)", mbps(res.RabinMBps)},
		[]string{"chunking (fastcdc)", mbps(res.FastCDCMBps)},
		[]string{"e2e put (virtual, t=2 n=3)", fmt.Sprintf("%.2f", e2eMB/res.PutSeconds)},
		[]string{"e2e get (virtual, t=2 n=3)", fmt.Sprintf("%.2f", e2eMB/res.GetSeconds)},
	)
	res.Report = Report{
		ID:      "4",
		Title:   "client compute fast path: codec and chunking throughput",
		Columns: []string{"operation", "MB/s"},
		Rows:    rows,
		Notes: []string{
			fmt.Sprintf("codec payload %d MB, single core, best of 3", cfg.ChunkBytes/MB),
			fmt.Sprintf("chunking over 32 MB random input, average/min/max = 1/0.25/4 MB; e2e dataset %.1f MB (scale %.2g, seed %d) on the 4-fast/3-slow testbed", e2eMB, cfg.Scale, cfg.Seed),
		},
	}
	return res, nil
}
