package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/obs"
)

// benchClient builds a client over instant in-memory providers, so the
// benchmarks measure the client pipeline (chunking, hashing, coding,
// metadata) rather than any transport. o may be nil.
func benchClient(b testing.TB, nCSP int, o *obs.Observer) *Client {
	c, _ := benchClientBackends(b, nCSP, o)
	return c
}

// benchClientBackends is benchClient that also returns the providers'
// backends.
func benchClientBackends(b testing.TB, nCSP int, o *obs.Observer) (*Client, []*cloudsim.Backend) {
	b.Helper()
	var stores []csp.Store
	var backends []*cloudsim.Backend
	for i := 0; i < nCSP; i++ {
		be := cloudsim.NewBackend(fmt.Sprintf("csp%d", i), csp.NameKeyed, 0)
		s := cloudsim.NewSimStore(be)
		if err := s.Authenticate(bg, csp.Credentials{Token: "b"}); err != nil {
			b.Fatal(err)
		}
		stores = append(stores, s)
		backends = append(backends, be)
	}
	c, err := New(Config{
		ClientID: "bench", Key: "bench-key", T: 2, N: 3,
		Chunking: chunker.Config{AverageSize: 1 << 20},
		Obs:      o,
	}, stores)
	if err != nil {
		b.Fatal(err)
	}
	return c, backends
}

func BenchmarkPut4MB(b *testing.B) {
	c, backends := benchClientBackends(b, 4, nil)
	data := randData(1, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The op's index in every 4 KiB makes every chunk new content, so
		// dedup finds nothing and each Put scans, hashes, encodes and
		// uploads all of it.
		for off := 0; off < len(data); off += 4 << 10 {
			binary.LittleEndian.PutUint64(data[off:], uint64(i))
		}
		if err := c.Put(bg, fmt.Sprintf("bench-%d", i), data); err != nil {
			b.Fatal(err)
		}
		// No later op reads these shares: dropping them, untimed, keeps the
		// providers' memory flat however many ops run.
		b.StopTimer()
		for _, be := range backends {
			for _, name := range be.ObjectNames(SharePrefix) {
				be.RemoveObject(name)
			}
		}
		b.StartTimer()
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
				smallPutGet(b, c, data, i)
			}
		})
	}
}

// smallPutGet is one op of BenchmarkSmallPutGet: data put under the op's own
// name, then read back.
func smallPutGet(tb testing.TB, c *Client, data []byte, i int) {
	name := fmt.Sprintf("small-%d", i)
	if err := c.Put(bg, name, data); err != nil {
		tb.Fatal(err)
	}
	if _, _, err := c.Get(bg, name); err != nil {
		tb.Fatal(err)
	}
}

// TestSmallPutGetBytesFlat: what BenchmarkSmallPutGet/nil allocates per op
// over 6000 ops stays within 1.1x of what it allocates over 200. Every op
// puts the same 16 KiB under a new name, so its one chunk gains a
// referencing version per op; a chunk lookup that copied that set cost
// O(versions) bytes per op (45 KB/op over 200 ops, 303 KB/op over 6000).
// Measured in bytes, not time. Not parallel: it reads the process's
// allocation counter.
func TestSmallPutGetBytesFlat(t *testing.T) {
	perOp := func(n int) float64 {
		c := benchClient(t, 4, nil)
		data := randData(4, 16<<10)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			smallPutGet(t, c, data, i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	few, many := perOp(200), perOp(6000)
	if many > 1.1*few {
		t.Errorf("a small Put+Get allocated %.0f B/op over 6000 ops, %.0f B/op over 200: the cost grows with the versions referencing its chunk", many, few)
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

// benchStores builds n instant in-memory providers over fresh backends.
func benchStores(b *testing.B, n int) []*cloudsim.Backend {
	b.Helper()
	backends := make([]*cloudsim.Backend, n)
	for i := range backends {
		backends[i] = cloudsim.NewBackend(fmt.Sprintf("csp%d", i), csp.NameKeyed, 0)
	}
	return backends
}

// benchClientOn builds a client named id over stores wrapping backends, so
// several clients (a writer and fresh readers) share one cloud.
func benchClientOn(b *testing.B, id string, backends []*cloudsim.Backend) *Client {
	b.Helper()
	stores := make([]csp.Store, len(backends))
	for i, be := range backends {
		s := cloudsim.NewSimStore(be)
		if err := s.Authenticate(bg, csp.Credentials{Token: "b"}); err != nil {
			b.Fatal(err)
		}
		stores[i] = s
	}
	c, err := New(Config{ClientID: id, Key: "bench-key", T: 2, N: 3}, stores)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkColdSync is the namespace_sync read op in process: a writer puts
// 100 names of 1 KiB and publishes 300 Delete/Restore records on one of
// them, then each iteration builds a fresh client that Syncs all 400 records
// and lists the namespace. allocs/op is the per-record overhead of the
// metadata read path (list, fetch, decode, verify, index).
func BenchmarkColdSync(b *testing.B) {
	backends := benchStores(b, 4)
	w := benchClientOn(b, "writer", backends)
	name := func(i int) string { return fmt.Sprintf("dir-%02d/file-%04d", i%20, i) }
	for i := 0; i < 100; i++ {
		if err := w.Put(bg, name(i), randData(int64(i), 1<<10)); err != nil {
			b.Fatal(err)
		}
	}
	for m := 0; m < 300; m += 2 {
		live, err := w.StatLocal(name(0))
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Delete(bg, name(0)); err != nil {
			b.Fatal(err)
		}
		if err := w.Restore(bg, name(0), live.VersionID); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := benchClientOn(b, fmt.Sprintf("reader-%d", i), backends)
		b.StartTimer()
		if _, err := r.Sync(bg); err != nil {
			b.Fatal(err)
		}
		got, err := r.ListLocal("")
		if err != nil || len(got) != 100 || r.tree.Len() != 400 {
			b.Fatalf("cold sync: %d names, %d records, %v", len(got), r.tree.Len(), err)
		}
	}
}

// BenchmarkSmallOpScaling is a 1 KiB Put and a Get of it per iteration in a
// namespace already holding names files, so the ratio of the two sub-results
// is what a small op pays for the namespace around it. Every file has its own
// content, so no chunk's reference set grows with the run.
func BenchmarkSmallOpScaling(b *testing.B) {
	for _, names := range []int{500, 8000} {
		b.Run(fmt.Sprintf("names=%d", names), func(b *testing.B) {
			c := benchClientOn(b, "bench", benchStores(b, 4))
			data := randData(5, 1<<10)
			unique := func(i int) []byte {
				binary.BigEndian.PutUint64(data, uint64(i))
				return data
			}
			for i := 0; i < names; i++ {
				if err := c.Put(bg, fmt.Sprintf("pre-%05d", i), unique(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("op-%d", i)
				if err := c.Put(bg, name, unique(names+i)); err != nil {
					b.Fatal(err)
				}
				if _, _, err := c.Get(bg, name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
