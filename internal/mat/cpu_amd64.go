//go:build amd64 && !purego

package mat

// hostCPU is what this host's CPUID and XGETBV report.
var hostCPU = func() cpuFeatures {
	ecx := cpuid1ECX()
	f := cpuFeatures{avx: ecx&(1<<27) != 0 && ecx&(1<<28) != 0, fma: ecx&(1<<12) != 0}
	if f.avx {
		// XGETBV faults without OSXSAVE; every AVX CPU has leaf 7
		f.xcr0 = xcr0()
		ebx := cpuid7EBX()
		f.avx2, f.avx512f = ebx&(1<<5) != 0, ebx&(1<<16) != 0
	}
	return f
}()

// cpuid1ECX returns the CPUID leaf 1 ECX feature bits, cpuid7EBX the
// leaf 7 ones (0 on a CPU without that leaf) and xcr0 the XGETBV state
// mask, valid only with OSXSAVE (cpu_amd64.s).
func cpuid1ECX() uint32
func cpuid7EBX() uint32
func xcr0() uint32
