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

// isa names a twin of the attention core and of the vector math: the
// ZMM kernels, the YMM kernels, or the portable loops. The order is
// width: a twin may run any kernel of a lower one.
type isa uint8

const (
	isaGo isa = iota
	isaAVX
	isaZ
)

// isaNames are the twins' names as tests and logs print them.
var isaNames = [...]string{isaGo: "go", isaAVX: "avx", isaZ: "avx512"}

// attendGate picks the attention core's twin for a CPU: the ZMM kernels
// with ZMM state, the YMM kernel with YMM state, else the portable
// loops. None fuses, so none needs FMA3.
func attendGate(f cpuFeatures) isa {
	switch {
	case f.zmm():
		return isaZ
	case f.ymm():
		return isaAVX
	}
	return isaGo
}

// tailGate picks the vector math's twin for a CPU (exp.go). Both
// assembly twins need AVX2: the YMM exponent add is a 256-bit integer
// shift and add, and the row norm, which the ZMM twin leaves to the YMM
// kernel, broadcasts from a register. The ZMM twin needs ZMM state on
// top. None fuses, so none needs FMA3.
func tailGate(f cpuFeatures) isa {
	switch {
	case !f.ymm() || !f.avx2:
		return isaGo
	case f.zmm():
		return isaZ
	}
	return isaAVX
}

// chooseGate picks ChooseTiles' twin for a CPU: the ZMM kernel with ZMM
// state, else the portable loop. Its sums do not fuse, so it needs no
// FMA3.
func chooseGate(f cpuFeatures) isa {
	if f.zmm() {
		return isaZ
	}
	return isaGo
}

var (
	// laneHost is the twin GemmLanes runs on this host, laneISA its name.
	laneHost, laneISA = laneGate(hostCPU)
	// attendHost is the twin Attend runs on this host.
	attendHost = attendGate(hostCPU)
	// tailHost is the twin the vector math of exp.go runs on this host:
	// softmax (Attend's included), GELU and the row norm.
	tailHost = tailGate(hostCPU)
	// chooseHost is the twin ChooseTiles runs on this host.
	chooseHost = chooseGate(hostCPU)
)
