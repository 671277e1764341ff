package mat

// cpuFeatures are the CPUID and XGETBV bits the kernel gates read:
// hostCPU on amd64 (cpu_amd64.go), the zero value elsewhere and under
// the purego tag, where every gate below picks the portable loops.
type cpuFeatures struct {
	avx     bool   // CPUID.1:ECX bit 28, with OSXSAVE (bit 27) so that XGETBV exists
	fma     bool   // CPUID.1:ECX bit 12: FMA3, VFMADD231PD
	avx2    bool   // CPUID.7.0:EBX bit 5
	avx512f bool   // CPUID.7.0:EBX bit 16
	xcr0    uint32 // XGETBV(0): the register state the OS saves
}

// ymm reports AVX with XMM and YMM state saved (XCR0 bits 1, 2).
func (f cpuFeatures) ymm() bool { return f.avx && f.xcr0&0x6 == 0x6 }

// zmm reports AVX-512F with opmask and ZMM state saved too (XCR0 bits
// 5, 6, 7).
func (f cpuFeatures) zmm() bool { return f.ymm() && f.avx512f && f.xcr0&0xE6 == 0xE6 }

// laneGate picks the GemmLanes twin for a CPU: the assembly kernels
// fuse every product into its sum (VFMADD231PD), so all of them need
// FMA3; AVX-512F with ZMM state runs the ZMM kernels over 16-row wide
// blocks, AVX the YMM kernel over 8-row blocks. Anything else runs
// laneKernGo, whose math.FMA is a software routine where the CPU has no
// FMA3: correct, but several times slower.
func laneGate(f cpuFeatures) (laneKern, string) {
	switch {
	case !f.fma || !f.ymm():
		return laneKern{false, laneWidth}, "go"
	case f.zmm():
		return laneKern{true, 2 * laneWidth}, "avx512"
	}
	return laneKern{true, laneWidth}, "avx"
}

// attendGate picks the attention core's twin for a CPU: the ZMM kernels
// with ZMM state, the YMM kernel with YMM state, else the portable
// loops. None fuses, so none needs FMA3.
func attendGate(f cpuFeatures) attendKern {
	switch {
	case f.zmm():
		return attendZ
	case f.ymm():
		return attendAVX
	}
	return attendGo
}

var (
	// laneHost is the twin GemmLanes runs on this host, laneISA its name.
	laneHost, laneISA = laneGate(hostCPU)
	// attendHost is the twin Attend runs on this host.
	attendHost = attendGate(hostCPU)
	// tailAsm gates the kernels of exp_amd64.s, whose exponent add needs
	// AVX2's 256-bit integer shift and add.
	tailAsm = hostCPU.ymm() && hostCPU.avx2
)
