package cpuid

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the set of register states the OS saves on a context
// switch. It faults unless CPUID.1:ECX reports OSXSAVE.
func xgetbv0() (eax, edx uint32)

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM registers.
// SHANI reports whether it has the SHA extensions together with the SSSE3 and
// SSE4.1 instructions a SHA-NI kernel shuffles its input with; those work on
// XMM registers, which every amd64 OS saves.
var AVX2, SHANI = detect()

func detect() (avx2, shani bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)

	const (
		ssse3   = 1 << 9
		sse41   = 1 << 19
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2Bit = 1 << 5  // leaf 7 EBX
		shaBit  = 1 << 29 // leaf 7 EBX
	)
	if ecx1&(osxsave|avx) == osxsave|avx && ebx7&avx2Bit != 0 {
		// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
		xcr0, _ := xgetbv0()
		avx2 = xcr0&6 == 6
	}
	shani = ebx7&shaBit != 0 && ecx1&(ssse3|sse41) == ssse3|sse41
	return avx2, shani
}
