package core

import (
	"fmt"
	"testing"

	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/obs"
)

// benchClient builds a client over instant in-memory providers, so the
// benchmarks measure the client pipeline (chunking, hashing, coding,
// metadata) rather than any transport. o may be nil.
func benchClient(b *testing.B, nCSP int, o *obs.Observer) *Client {
	b.Helper()
	var stores []csp.Store
	for i := 0; i < nCSP; i++ {
		s := cloudsim.NewSimStore(cloudsim.NewBackend(fmt.Sprintf("csp%d", i), csp.NameKeyed, 0))
		if err := s.Authenticate(bg, csp.Credentials{Token: "b"}); err != nil {
			b.Fatal(err)
		}
		stores = append(stores, s)
	}
	c, err := New(Config{
		ClientID: "bench", Key: "bench-key", T: 2, N: 3,
		Chunking: chunker.Config{AverageSize: 1 << 20},
		Obs:      o,
	}, stores)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkPut4MB(b *testing.B) {
	c := benchClient(b, 4, nil)
	data := randData(1, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Distinct names so dedup does not short-circuit the pipeline.
		if err := c.Put(bg, fmt.Sprintf("bench-%d", i), data[:len(data)-i%7]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet4MB(b *testing.B) {
	c := benchClient(b, 4, nil)
	data := randData(2, 4<<20)
	if err := c.Put(bg, "bench", data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Get(bg, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmallPutGet is the observer's own cost on the small-op path: a
// 16 KiB Put and a Get of it per iteration (one chunk, so the codec is
// bypassed and per-try bookkeeping dominates), without an observer and with
// one. The allocs/op difference is what observing costs.
func BenchmarkSmallPutGet(b *testing.B) {
	for _, bc := range []struct {
		name string
		obs  func() *obs.Observer
	}{
		{"nil", func() *obs.Observer { return nil }},
		{"observed", obs.NewObserver},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := benchClient(b, 4, bc.obs())
			data := randData(4, 16<<10)
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("small-%d", i)
				if err := c.Put(bg, name, data); err != nil {
					b.Fatal(err)
				}
				if _, _, err := c.Get(bg, name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPutDeduplicated(b *testing.B) {
	// Identical content under fresh names: measures the dedup fast path
	// (chunk + hash + table lookup + metadata only).
	c := benchClient(b, 4, nil)
	data := randData(3, 4<<20)
	if err := c.Put(bg, "seed", data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(bg, fmt.Sprintf("copy-%d", i), data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSync1000Versions(b *testing.B) {
	// Sync cost with a populated cloud: the listing/diff path that runs
	// before every operation.
	c := benchClient(b, 4, nil)
	for i := 0; i < 1000; i++ {
		if err := c.Put(bg, fmt.Sprintf("f-%04d", i), randData(int64(i), 256)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Sync(bg); err != nil {
			b.Fatal(err)
		}
	}
}
