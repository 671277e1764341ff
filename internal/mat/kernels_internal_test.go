package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// guarded returns an M x N view over a larger matrix whose 16 rows past
// M are filled with a sentinel, and a check that a kernel storing a
// ragged last block wrote none of them.
func guarded(t *testing.T, M, N int) (*Matrix, func(what string)) {
	t.Helper()
	full := New(M+16, N)
	full.Fill(7)
	return full.RowSpan(0, M), func(what string) {
		t.Helper()
		for _, v := range full.Data[M*N:] {
			if v != 7 {
				t.Fatalf("%s: stored past row %d", what, M)
			}
		}
	}
}

// TestGemmLanesAsmMatchesPortable holds every kernel twin of GemmLanes —
// the portable body over 16-lane blocks, the AVX kernel and, where the
// host has AVX-512F, both ZMM kernels (laneKern16Z under blocks of 9-16
// rows, laneKern8Z under narrower ones) — to the portable body over
// 8-lane blocks bit for bit, through the shared loop nest: every
// lane-block edge of both widths, one block split by partition and many,
// ragged column groups, empty and full streams. x is the head of a
// matrix whose further rows hold NaN and Inf, so a kernel that packed or
// stored a row past the last would show it. A twin the host cannot run
// is an explicit SKIP.
func TestGemmLanesAsmMatchesPortable(t *testing.T) {
	t.Logf("GemmLanes runs the %q twin on this host", LaneISA())
	rows := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 16, 17, 24, 31, 32, 33, 40, 64, 65, 130, 250}
	depths := []int{1, 5, 33, 192, 768}
	poison := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	if testing.Short() {
		rows, depths = rows[:len(rows)-1], depths[:len(depths)-1]
	}
	for _, twin := range []struct {
		name string
		kern laneKern
		has  bool
		need string
	}{
		{"go16", laneKern{false, 2 * laneWidth}, true, ""},
		{"avx", laneKern{true, laneWidth}, laneHost.asm, "AVX with FMA3"},
		{"avx512", laneKern{true, 2 * laneWidth}, laneHost.width == 2*laneWidth, "AVX-512F with FMA3"},
	} {
		t.Run(twin.name, func(t *testing.T) {
			if !twin.has {
				t.Skipf("this host (or build) has no %s", twin.need)
			}
			rng := rand.New(rand.NewSource(93))
			for _, K := range depths {
				for _, N := range []int{1, 3, 33, 192} {
					for _, sparsity := range []float64{0, 0.3, 0.7, 1} {
						w := New(K, N)
						w.Randomize(rng, 1)
						for i := range w.Data {
							if rng.Float64() < sparsity {
								w.Data[i] = 0
							}
						}
						lw := LaneWeightsOf(t, w)
						for _, M := range rows {
							full := New(M+2*laneWidth, K)
							full.Randomize(rng, 1)
							for i := range full.Data[M*K:] {
								full.Data[M*K+i] = poison[i%len(poison)]
							}
							x := full.RowSpan(0, M)
							what := fmt.Sprintf("%s %dx%dx%d s%.1f", twin.name, M, K, N, sparsity)
							got, intact := guarded(t, M, N)
							want := New(M, N)
							gemmLanes(got, x, lw, twin.kern)
							gemmLanes(want, x, lw, laneKern{false, laneWidth})
							intact(what)
							if !Equal(got, want, 0) {
								t.Fatalf("%s: differs from the portable 8-lane kernel", what)
							}
						}
					}
				}
			}
		})
	}
}

// TestLaneGate holds the lane gate to its table: every assembly twin
// fuses, so none runs without FMA3, nor without the OS saving its
// registers; AVX-512F with ZMM state runs the ZMM kernels. The host's own
// twin is the gate applied to what its CPUID reports (all zero under
// purego), and the name a scrape reads is that twin.
func TestLaneGate(t *testing.T) {
	t.Logf("CPUID: AVX %v, FMA3 %v, AVX-512F %v, XCR0 %#x; GemmLanes runs the %q twin",
		hostCPU.avx, hostCPU.fma, hostCPU.avx512f, hostCPU.xcr0, LaneISA())
	const ymm, zmm = 0x6, 0xE6 // XCR0: XMM|YMM, and opmask|ZMM_Hi256|Hi16_ZMM on top
	kerns := map[string]laneKern{"go": {false, laneWidth}, "avx": {true, laneWidth}, "avx512": {true, 2 * laneWidth}}
	for _, tc := range []struct {
		what string
		f    cpuFeatures
		want string
	}{
		{"no features (purego, other arches)", cpuFeatures{}, "go"},
		{"AVX without FMA3", cpuFeatures{avx: true, xcr0: ymm}, "go"},
		{"AVX and FMA3", cpuFeatures{avx: true, fma: true, xcr0: ymm}, "avx"},
		{"AVX and FMA3, YMM state not saved", cpuFeatures{avx: true, fma: true, xcr0: 0x2}, "go"},
		{"AVX-512F and FMA3, ZMM state not saved", cpuFeatures{avx: true, fma: true, avx512f: true, xcr0: ymm}, "avx"},
		{"AVX-512F and FMA3 with ZMM state", cpuFeatures{avx: true, fma: true, avx512f: true, avx2: true, xcr0: zmm}, "avx512"},
		{"AVX-512F with ZMM state, FMA3 clear", cpuFeatures{avx: true, avx512f: true, xcr0: zmm}, "go"},
		{"FMA3 without AVX", cpuFeatures{fma: true, avx512f: true, xcr0: zmm}, "go"},
	} {
		kern, name := laneGate(tc.f)
		if name != tc.want || kern != kerns[tc.want] {
			t.Errorf("%s: gate picks %q %+v, want %q %+v", tc.what, name, kern, tc.want, kerns[tc.want])
		}
	}
	if kern, name := laneGate(hostCPU); kern != laneHost || name != LaneISA() {
		t.Fatalf("host runs %+v reported as %q, the gate picks %+v %q", laneHost, LaneISA(), kern, name)
	}
}

// TestFreeListReuse: Get returns what Put stored before minting fresh
// values, and the zero value is usable.
func TestFreeListReuse(t *testing.T) {
	var fl FreeList[[]float64]
	fresh := 0
	mint := func() []float64 { fresh++; return make([]float64, 4) }
	a := fl.Get(mint)
	fl.Put(a)
	b := fl.Get(mint)
	if fresh != 1 {
		t.Fatalf("minted %d values, want 1", fresh)
	}
	if &a[0] != &b[0] {
		t.Fatal("Get did not return the Put value")
	}
	fl.Get(mint)
	if fresh != 2 {
		t.Fatalf("empty list should mint, got %d", fresh)
	}
}

// TestGrow: GrowFloats reuses under capacity, reallocates beyond it.
func TestGrow(t *testing.T) {
	s := make([]float64, 2, 8)
	g := GrowFloats(s, 6)
	if len(g) != 6 || &g[0] != &s[0] {
		t.Fatal("GrowFloats reallocated under capacity")
	}
	g2 := GrowFloats(s, 16)
	if len(g2) != 16 {
		t.Fatalf("GrowFloats len %d", len(g2))
	}
}

// TestAttendGate holds the attention core's gate to its table: ZMM
// state runs the ZMM kernels, YMM state the YMM kernel, FMA3 plays no
// part (no twin fuses), and the host runs the gate applied to its CPUID.
func TestAttendGate(t *testing.T) {
	const ymm, zmm = 0x6, 0xE6
	for _, tc := range []struct {
		what string
		f    cpuFeatures
		want isa
	}{
		{"no features (purego, other arches)", cpuFeatures{}, isaGo},
		{"AVX without FMA3", cpuFeatures{avx: true, xcr0: ymm}, isaAVX},
		{"AVX, YMM state not saved", cpuFeatures{avx: true, fma: true, xcr0: 0x2}, isaGo},
		{"AVX-512F, ZMM state not saved", cpuFeatures{avx: true, avx512f: true, xcr0: ymm}, isaAVX},
		{"AVX-512F with ZMM state, FMA3 clear", cpuFeatures{avx: true, avx512f: true, xcr0: zmm}, isaZ},
		{"AVX-512F without AVX", cpuFeatures{avx512f: true, xcr0: zmm}, isaGo},
	} {
		if got := attendGate(tc.f); got != tc.want {
			t.Errorf("%s: gate picks twin %d, want %d", tc.what, got, tc.want)
		}
	}
	if attendHost != attendGate(hostCPU) {
		t.Fatalf("host runs attention twin %d, the gate picks %d", attendHost, attendGate(hostCPU))
	}
}

// TestChooseGate holds ChooseTiles' gate to its table: the ZMM twin
// needs AVX-512F with ZMM state, FMA3 plays no part, there is no YMM
// twin, and the host runs the gate applied to its CPUID.
func TestChooseGate(t *testing.T) {
	const ymm, zmm = 0x6, 0xE6
	for _, tc := range []struct {
		what string
		f    cpuFeatures
		want isa
	}{
		{"no features (purego, other arches)", cpuFeatures{}, isaGo},
		{"AVX2 and FMA3", cpuFeatures{avx: true, fma: true, avx2: true, xcr0: ymm}, isaGo},
		{"AVX-512F, ZMM state not saved", cpuFeatures{avx: true, avx512f: true, xcr0: ymm}, isaGo},
		{"AVX-512F with ZMM state, FMA3 clear", cpuFeatures{avx: true, avx512f: true, xcr0: zmm}, isaZ},
		{"AVX-512F without AVX", cpuFeatures{avx512f: true, xcr0: zmm}, isaGo},
	} {
		if got := chooseGate(tc.f); got != tc.want {
			t.Errorf("%s: gate picks twin %d, want %d", tc.what, got, tc.want)
		}
	}
	t.Logf("ChooseTiles runs the %q twin", isaNames[chooseHost])
	if chooseHost != chooseGate(hostCPU) {
		t.Fatalf("host runs choose twin %d, the gate picks %d", chooseHost, chooseGate(hostCPU))
	}
}

// TestTailGate holds the vector math's gate to its table: both assembly
// twins need AVX2 with YMM state, the ZMM twin ZMM state on top, FMA3
// plays no part (no twin fuses), and the host runs the gate applied to
// its CPUID.
func TestTailGate(t *testing.T) {
	const ymm, zmm = 0x6, 0xE6
	for _, tc := range []struct {
		what string
		f    cpuFeatures
		want isa
	}{
		{"no features (purego, other arches)", cpuFeatures{}, isaGo},
		{"AVX without AVX2", cpuFeatures{avx: true, fma: true, xcr0: ymm}, isaGo},
		{"AVX2 without FMA3", cpuFeatures{avx: true, avx2: true, xcr0: ymm}, isaAVX},
		{"AVX2, YMM state not saved", cpuFeatures{avx: true, avx2: true, xcr0: 0x2}, isaGo},
		{"AVX-512F and AVX2, ZMM state not saved", cpuFeatures{avx: true, avx2: true, avx512f: true, xcr0: ymm}, isaAVX},
		{"AVX-512F and AVX2 with ZMM state, FMA3 clear", cpuFeatures{avx: true, avx2: true, avx512f: true, xcr0: zmm}, isaZ},
		{"AVX-512F with ZMM state, AVX2 clear", cpuFeatures{avx: true, avx512f: true, xcr0: zmm}, isaGo},
		{"AVX-512F and AVX2 without AVX", cpuFeatures{avx2: true, avx512f: true, xcr0: zmm}, isaGo},
	} {
		if got := tailGate(tc.f); got != tc.want {
			t.Errorf("%s: gate picks the %s twin, want %s", tc.what, isaNames[got], isaNames[tc.want])
		}
	}
	if tailHost != tailGate(hostCPU) {
		t.Fatalf("host runs the %s twin of the vector math, the gate picks %s", isaNames[tailHost], isaNames[tailGate(hostCPU)])
	}
	t.Logf("the vector math runs the %q twin", isaNames[tailHost])
}

// TestPackLanesTwins holds each pack twin — the scalar stores of the
// portable and AVX lane twins (go), the 8x8 register transpose of the
// ZMM twin (avx512) — to the definition: xt[k*lanes+l] = x[min(l,
// last)][k] and a zero row K, at K mod 8 of 0, 1 and 7 and for 1-16
// rows, so 8 and 16 lanes. xt holds NaN before the pack, so every
// element it must write is checked, the zero row and the repeated lanes
// included; x is the head of rows whose successors hold Inf, so a pack
// that read past the last row would show. A twin the host cannot run is
// an explicit SKIP.
func TestPackLanesTwins(t *testing.T) {
	for _, twin := range []struct {
		name string
		z    bool
		has  bool
	}{
		{"go", false, true},
		{"avx512", true, laneHost.zmm()},
	} {
		t.Run(twin.name, func(t *testing.T) {
			if !twin.has {
				t.Skip("this host (or build) has no AVX-512F with FMA3")
			}
			rng := rand.New(rand.NewSource(95))
			for _, K := range []int{1, 7, 8, 9, 15, 16, 17, 192, 193, 768} {
				for rows := 1; rows <= 2*laneWidth; rows++ {
					lanes := laneCount(rows)
					full := New(rows+1, K)
					full.Randomize(rng, 1)
					full.RowSpan(rows, rows+1).Fill(math.Inf(1))
					x := full.Data[:rows*K]
					xt := make([]float64, (K+1)*lanes)
					for i := range xt {
						xt[i] = math.NaN()
					}
					packLanes(xt, x, K, lanes, twin.z)
					for i, got := range xt {
						k, l := i/lanes, i%lanes
						want := 0.0
						if k < K {
							want = x[min(l, rows-1)*K+k]
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("K %d, %d rows: xt[%d][%d] = %v, want %v", K, rows, k, l, got, want)
						}
					}
				}
			}
		})
	}
}

// BenchmarkPackLanes is the lane pack this host runs over one 8- and
// one 16-lane block at the serving depths, in ns per element packed —
// a rough guide (this host is noisy); read it at GOMAXPROCS 1.
func BenchmarkPackLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(96))
	for _, K := range []int{192, 768} {
		for _, lanes := range []int{laneWidth, 2 * laneWidth} {
			x := New(lanes, K)
			x.Randomize(rng, 1)
			xt := make([]float64, (K+1)*lanes)
			b.Run(fmt.Sprintf("K%d/lanes%d", K, lanes), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					packLanes(xt, x.Data, K, lanes, laneHost.zmm())
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*K*lanes), "ns/elem")
			})
		}
	}
}
