package bufpool

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// drain empties the pool, so each test starts from no kept buffers.
func drain() {
	mu.Lock()
	defer mu.Unlock()
	for age.oldest != nil {
		drop(age.oldest)
	}
}

// TestClassesCoverRequests pins the class arithmetic: every request maps to
// the smallest class that holds it, at most a quarter larger than asked for,
// and every class size maps back to its own class.
func TestClassesCoverRequests(t *testing.T) {
	check := func(n int) {
		c := classOf(n)
		if c >= numClasses {
			t.Fatalf("classOf(%d) = %d, beyond the %d classes", n, c, numClasses)
		}
		size := classSize(c)
		if size < n || c > 0 && classSize(c-1) >= n {
			t.Fatalf("n = %d: class %d of size %d is not the smallest that holds it", n, c, size)
		}
		if n > 1<<minShift && 4*(size-n) >= n {
			t.Fatalf("n = %d: class size %d wastes a quarter or more", n, size)
		}
	}
	for n := 1; n <= 1<<14; n++ {
		check(n)
	}
	for e := 14; e < maxShift; e++ {
		for _, d := range []int{-1, 0, 1, 1 << (e - 3), 1 << (e - 2), 3 << (e - 2), 1<<e - 1} {
			check(1<<e + d)
		}
	}
	check(1 << maxShift)
	if c := classOf(1<<maxShift + 1); c < numClasses {
		t.Fatalf("a request above the largest class maps to class %d", c)
	}
	for c := 0; c < numClasses; c++ {
		if got := classOf(classSize(c)); got != c {
			t.Fatalf("classOf(classSize(%d) = %d) = %d", c, classSize(c), got)
		}
	}
}

// TestReuseAndPoison: a buffer given back is what the next Get of its class
// (or of a class up to twice smaller) returns, with the poison over its old
// bytes when the switch is on, and a request the pool does not serve is a
// plain allocation it lets go.
func TestReuseAndPoison(t *testing.T) {
	drain()
	PoisonOnRelease.Store(true)
	defer PoisonOnRelease.Store(false)
	base := Live()

	bp := Get(1000)
	copy(*bp, bytes.Repeat([]byte{7}, 1000))
	Put(bp)
	if again := Get(900); again != bp || len(*again) != 900 {
		t.Fatalf("Get(900) after Put of a 1000-byte buffer: reused %v, len %d", again == bp, len(*again))
	} else if !bytes.Equal(*again, bytes.Repeat([]byte{0xDB}, 900)) {
		t.Fatal("a released buffer was not poisoned")
	} else {
		Put(again)
	}
	if smaller := Get(400); smaller == bp {
		t.Fatal("a 400-byte request took a buffer more than twice its size")
	} else {
		Put(smaller)
	}

	big := Get(1<<maxShift + 1)
	Put(big)
	if kept > KeepBytes {
		t.Fatalf("kept %d bytes, cap %d", kept, KeepBytes)
	}
	if Live() != base {
		t.Fatalf("Live = %d, want %d", Live(), base)
	}
	Put(nil) // nil-safe
}

// TestKeepsNewestWithinCap: the pool never holds more than KeepBytes, and
// what it gives up to stay under is the oldest buffer, whatever its class.
func TestKeepsNewestWithinCap(t *testing.T) {
	drain()
	first := Get(1 << 20) // a class no Get below takes
	Put(first)
	var held []*[]byte
	for i := 0; i < KeepBytes/(maxChunk/2); i++ {
		held = append(held, Get(maxChunk/2))
	}
	for _, bp := range held {
		Put(bp)
		if kept > KeepBytes {
			t.Fatalf("kept %d bytes, cap %d", kept, KeepBytes)
		}
	}
	if kept != KeepBytes {
		t.Fatalf("kept %d bytes after filling the pool, want %d", kept, KeepBytes)
	}
	for e := age.newest; e != nil; e = e.link[byAge].older {
		if e.buf == first {
			t.Fatal("the oldest buffer survived the pool going over its cap")
		}
	}
	if bp := Get(maxChunk / 2); bp != held[len(held)-1] {
		t.Fatal("the newest buffer was not the first one handed out again")
	}
}

func TestSteadyStateAllocatesNothing(t *testing.T) {
	drain()
	for _, n := range []int{100, 32 << 10, 3 << 20} {
		Put(Get(n))
		if allocs := testing.AllocsPerRun(100, func() { Put(Get(n)) }); allocs != 0 {
			t.Fatalf("Get/Put of %d bytes allocates %.1f times per cycle, want 0", n, allocs)
		}
	}
}

// TestConcurrentUse: goroutines taking and giving back buffers of mixed
// sizes never see one another's bytes in a buffer they hold, the pool stays
// under its cap, and every buffer comes back.
func TestConcurrentUse(t *testing.T) {
	drain()
	base := Live()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				bp := Get(1 + rng.Intn(1<<(8+rng.Intn(10))))
				mark := byte(seed)
				for j := range *bp {
					(*bp)[j] = mark
				}
				for j, v := range *bp {
					if v != mark {
						t.Errorf("byte %d of a held buffer changed to %d", j, v)
						return
					}
				}
				Put(bp)
			}
		}(int64(g + 1))
	}
	wg.Wait()
	if Live() != base {
		t.Fatalf("Live = %d, want %d", Live(), base)
	}
	if kept > KeepBytes {
		t.Fatalf("kept %d bytes, cap %d", kept, KeepBytes)
	}
}
