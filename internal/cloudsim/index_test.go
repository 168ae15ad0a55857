package cloudsim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestNameIndexAgreesWithScan drives the blocked name index through random
// inserts and removes (enough to split blocks and empty them again) and
// checks every prefix listing against a sorted scan of a plain set.
func TestNameIndexAgreesWithScan(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	var x nameIndex
	set := map[string]bool{}
	name := func() string { return fmt.Sprintf("p%d-%04d", rng.Intn(4), rng.Intn(3000)) }
	check := func(step int) {
		for _, prefix := range []string{"", "p1", "p2-0", "p3-29", "p9", "p0-1234"} {
			var want []string
			for n := range set {
				if strings.HasPrefix(n, prefix) {
					want = append(want, n)
				}
			}
			sort.Strings(want)
			if got := x.under(prefix); !slices.Equal(got, want) {
				t.Fatalf("step %d: under(%q) = %d names, scan has %d", step, prefix, len(got), len(want))
			}
		}
		for _, b := range x.blocks {
			if len(b) == 0 || len(b) > indexBlock {
				t.Fatalf("step %d: block of %d names", step, len(b))
			}
		}
	}
	for step := 0; step < 12000; step++ {
		n := name()
		if step%3 == 2 || (step > 8000 && step%3 != 0) {
			x.remove(n)
			delete(set, n)
		} else if !set[n] {
			x.insert(n)
			set[n] = true
		}
		if step%500 == 0 {
			check(step)
		}
	}
	check(-1)
}
