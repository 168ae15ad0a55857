package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestCodecPoolBounds proves the pool is a real semaphore: with width w,
// no more than w jobs ever run concurrently, and every job runs.
func TestCodecPoolBounds(t *testing.T) {
	const width, jobs = 2, 16
	p := newCodecPool(nil)
	p.slots = make(chan struct{}, width)

	var running, peak, done atomic.Int64
	gate := make(chan struct{}) // holds jobs inside the slot to force contention
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.run("encode", 1, func() {
				n := running.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				<-gate
				running.Add(-1)
				done.Add(1)
			})
		}()
	}
	close(gate)
	wg.Wait()
	if done.Load() != jobs {
		t.Fatalf("%d of %d jobs ran", done.Load(), jobs)
	}
	if got := peak.Load(); got > width {
		t.Fatalf("peak concurrency %d exceeds pool width %d", got, width)
	}
}

// TestCodecPoolNilObserver: the pool is one slot per core, and nil-safe on
// metrics (clients without Config.Obs run the same code path).
func TestCodecPoolNilObserver(t *testing.T) {
	p := newCodecPool(nil)
	if got, want := cap(p.slots), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("codec pool width = %d, want GOMAXPROCS %d", got, want)
	}
	ran := false
	p.run("chunk", 123, func() { ran = true })
	if !ran {
		t.Fatal("job did not run")
	}
}

// TestCodecMetrics drives a Put/Get through an observed client and checks
// the cyrus_codec_* counters: chunk-hash bytes equal the file size (every
// chunk is hashed exactly once), encode bytes cover at least the unique
// chunk payload, decode bytes cover it on the way back, and the busy gauge
// returns to zero once the operations complete.
func TestCodecMetrics(t *testing.T) {
	env := newEnv(t, 5)
	o := obs.NewObserver()
	c := env.client("c1", func(cfg *Config) { cfg.Obs = o })

	ctx := context.Background()
	data := randData(11, 64*1024)
	if err := c.Put(ctx, "f.bin", data); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Get(ctx, "f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("roundtrip mismatch")
	}

	s := o.Registry().Snapshot()
	find := func(name string) float64 {
		p, ok := s.Find(name, nil)
		if !ok {
			t.Fatalf("metric %s not found in snapshot", name)
		}
		return p.Value
	}
	if chunkBytes := find(obs.MetricCodecChunkBytes); int(chunkBytes) != len(data) {
		t.Errorf("codec_chunk_bytes_total = %v, want %d (every chunk hashed once)", chunkBytes, len(data))
	}
	if encBytes := find(obs.MetricCodecEncodeBytes); int(encBytes) < len(data) {
		t.Errorf("codec_encode_bytes_total = %v, want >= %d (all unique chunks plus metadata)", encBytes, len(data))
	}
	if decBytes := find(obs.MetricCodecDecodeBytes); int(decBytes) < len(data) {
		t.Errorf("codec_decode_bytes_total = %v, want >= %d (every chunk decoded on Get)", decBytes, len(data))
	}
	if busy := find(obs.MetricCodecBusy); busy != 0 {
		t.Errorf("codec_busy = %v after quiescence, want 0", busy)
	}
}
