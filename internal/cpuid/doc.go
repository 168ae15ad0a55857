// Package cpuid is the one place this module executes CPUID: the assembly
// kernels (internal/gf256, internal/sha1ni) select themselves at init from the
// feature bits it derives. It has content on amd64 only; the kernels import it
// from their _amd64 files.
package cpuid
