package erasure

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bufpool"
)

// TestLiveBuffersBalancedOnErrorPaths pins the pool-lifetime contract the
// streaming pipeline depends on: whatever mix of successful encodes,
// decodes (including the verified search, which decodes share subsets),
// and injected failures runs, every pooled buffer taken must be
// returned — the live-buffer counter ends where it started, so the pool
// cannot silently grow under fault injection.
func TestLiveBuffersBalancedOnErrorPaths(t *testing.T) {
	coder := NewCoder("leak-key")
	rng := rand.New(rand.NewSource(7))
	base := bufpool.Live()
	const tt, n = 3, 6

	for round := 0; round < 50; round++ {
		data := make([]byte, 1+rng.Intn(8*1024))
		rng.Read(data)

		shares, err := coder.EncodeTo(nil, data, tt, n)
		if err != nil {
			t.Fatal(err)
		}
		switch round % 4 {
		case 0: // clean release after a successful scatter
			ReleaseShares(shares)
		case 1: // decode from a subset, then release everything
			out, err := coder.Decode(shares[:tt], MaxN)
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("decode: %v", err)
			}
			ReleaseShares(shares)
		case 2: // corrupt one share and run the verified search
			shares[1].Data[0] ^= 0xFF
			out, err := coder.DecodeVerified(shares, MaxN, is(data))
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("verified decode: %v", err)
			}
			ReleaseShares(shares)
		case 3: // simulated upload failure: partial fan-out, early release
			ReleaseShares(shares[:1+rng.Intn(n)])
			ReleaseShares(shares) // second release of a prefix is a no-op
		}

		// Invalid-parameter paths must not take buffers at all.
		if _, err := coder.EncodeTo(nil, data, 0, n); err == nil {
			t.Fatal("EncodeTo(t=0) succeeded")
		}
		if _, err := coder.Decode(shares[:0], MaxN); err == nil {
			t.Fatal("Decode with no shares succeeded")
		}
	}

	if got := bufpool.Live(); got != base {
		t.Fatalf("live pooled buffers = %d, want %d (pool grew under fault injection)", got, base)
	}

	// The raw data-buffer pool balances too.
	for i := 0; i < 10; i++ {
		bp := bufpool.Get(1 + rng.Intn(64*1024))
		if bp == nil || len(*bp) == 0 {
			t.Fatal("bufpool.Get returned an unusable buffer")
		}
		bufpool.Put(bp)
	}
	bufpool.Put(nil) // nil-safe
	if got := bufpool.Live(); got != base {
		t.Fatalf("live pooled buffers after bufpool.Get/Put = %d, want %d", got, base)
	}
}

// TestDataBufZeroAlloc pins the data-buffer pool's steady state: a warm
// Get/Put cycle of a constant size allocates nothing.
func TestDataBufZeroAlloc(t *testing.T) {
	const size = 32 * 1024
	for i := 0; i < 4; i++ { // warm the pool
		bufpool.Put(bufpool.Get(size))
	}
	allocs := testing.AllocsPerRun(100, func() {
		bp := bufpool.Get(size)
		(*bp)[0] = 1
		bufpool.Put(bp)
	})
	if allocs != 0 {
		t.Fatalf("steady-state bufpool.Get/Put allocates %.2f times per call, want 0", allocs)
	}
}
