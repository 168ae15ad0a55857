package cpuid

import (
	"os"
	"strings"
	"testing"
)

// TestMatchesKernelFlags holds the derived bits to the flags line the Linux
// kernel decodes from the same CPUID leaves.
func TestMatchesKernelFlags(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	_, rest, ok := strings.Cut(string(raw), "\nflags")
	if !ok {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	line, _, _ := strings.Cut(rest, "\n")
	flags := make(map[string]bool)
	for _, f := range strings.Fields(line) {
		flags[f] = true
	}
	if want := flags["avx2"]; AVX2 != want {
		t.Errorf("AVX2 = %v, /proc/cpuinfo says %v", AVX2, want)
	}
	if want := flags["sha_ni"] && flags["ssse3"] && flags["sse4_1"]; SHANI != want {
		t.Errorf("SHANI = %v, /proc/cpuinfo says %v", SHANI, want)
	}
	t.Logf("AVX2=%v SHANI=%v", AVX2, SHANI)
}
