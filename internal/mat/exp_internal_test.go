package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// expSpecials are the inputs where Exp leaves its polynomial: NaN (quiet
// and signalling payloads), the infinities, the zeros, both cut-offs one
// ulp either way, the region between math.Exp's own limits and ours, and
// arguments whose result would be subnormal.
var expSpecials = []float64{
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	expMin, math.Nextafter(expMin, 0), math.Nextafter(expMin, -1e9),
	expMax, math.Nextafter(expMax, 0), math.Nextafter(expMax, 1e9),
	-708.3, -708.4, -720, -745, -745.2, -1e300, 709.5, 709.78, 710, 1e300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.5 * math.Ln2, math.Nextafter(0.5*math.Ln2, 1), -0.5 * math.Ln2,
}

// sameBits reports whether two slices hold the same float64 bit
// patterns (NaN payloads and the sign of zero included).
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// expInput draws an input of Exp: mostly where softmax and GELU put
// them, some across the whole finite range of the function, some raw bit
// patterns.
func expInput(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.Float64frombits(rng.Uint64())
	case 1:
		return -760 + 1480*rng.Float64()
	case 2:
		return expSpecials[rng.Intn(len(expSpecials))]
	default:
		return -40 + 50*rng.Float64()
	}
}

// tailTwins runs body once per twin of the vector math (go, avx,
// avx512) as a named subtest; a twin this host (or build) cannot run is
// an explicit SKIP.
func tailTwins(t *testing.T, body func(t *testing.T, kern isa)) {
	for kern, name := range isaNames {
		t.Run(name, func(t *testing.T) {
			if isa(kern) > tailHost {
				t.Skipf("this host (or build) runs the %q twin of the vector math", isaNames[tailHost])
			}
			body(t, isa(kern))
		})
	}
}

// checkTwins runs the three slice kernels over src on the twin kern and
// on the portable loops, into a window of a sentinel-filled buffer at
// the given offset (so the stores are misaligned and overruns show),
// and requires equal bits.
func checkTwins(t testing.TB, kern isa, src []float64, shift float64, offset int) {
	t.Helper()
	n := len(src)
	const guard = 3
	run := func(f func(dst, src []float64, kern isa)) {
		t.Helper()
		want := make([]float64, n)
		f(want, src, isaGo)
		buf := make([]float64, offset+n+guard)
		for i := range buf {
			buf[i] = 7
		}
		got := buf[offset : offset+n]
		f(got, src, kern)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("%d elements at offset %d: element %d of input %x (shift %v) is %x on the %s twin, %x on the portable loop",
				n, offset, i, math.Float64bits(src[i]), shift, math.Float64bits(got[i]), isaNames[kern], math.Float64bits(want[i]))
		}
		for i, v := range buf {
			if (i < offset || i >= offset+n) && v != 7 {
				t.Fatalf("%d elements at offset %d: stored outside the destination at %d", n, offset, i-offset)
			}
		}
		// in place, as softmax runs it
		inPlace := append([]float64(nil), src...)
		f(inPlace, inPlace, kern)
		if i := sameBits(inPlace, want); i >= 0 {
			t.Fatalf("%d elements in place: element %d differs", n, i)
		}
	}
	run(func(dst, src []float64, kern isa) { expSub(dst, src, shift, kern) })
	run(func(dst, src []float64, kern isa) { gelu(dst, src, kern) })
	if n > 0 {
		run(func(dst, src []float64, kern isa) { softmax(dst, src, kern) })
	}
}

// TestExpAsmMatchesPortable pins each twin of exp, GELU and softmax to
// the portable loops bit for bit: every length 1..100 (every remainder
// of the ZMM kernels' 32-element iteration and of the 8-element block),
// misaligned destinations, the special values starting at every lane of
// a 32-element block, and over a million random inputs. (The go twin
// compares the portable loops with themselves.)
func TestExpAsmMatchesPortable(t *testing.T) {
	tailTwins(t, func(t *testing.T, kern isa) {
		rng := rand.New(rand.NewSource(191))
		for n := 1; n <= 100; n++ {
			src := make([]float64, n)
			for i := range src {
				src[i] = expInput(rng)
			}
			checkTwins(t, kern, src, -3+6*rng.Float64(), n%4)
		}
		for lane := 0; lane < 32; lane++ {
			src := make([]float64, lane+len(expSpecials))
			copy(src[lane:], expSpecials)
			checkTwins(t, kern, src, 0, 1)
		}
		// A NaN after the maximum must not displace it. Only a +Inf
		// maximum shows that (Inf - Inf is NaN, Inf - x is not): +Inf at
		// every position of a 77-element row (two 32-element iterations,
		// one 8-element block, a partial one), a NaN 8 and 32 places
		// after it, in the same lane of the same accumulator.
		for i := 0; i < 77; i++ {
			src := make([]float64, 77)
			for j := range src {
				src[j] = -40 + 50*rng.Float64()
			}
			src[i] = math.Inf(1)
			for _, j := range []int{i + 8, i + 32} {
				if j < len(src) {
					src[j] = math.Float64frombits(0x7ff8000000000bad)
				}
			}
			checkTwins(t, kern, src, 0, 0)
		}
		total := 1 << 20
		if testing.Short() {
			total = 1 << 16
		}
		for done := 0; done < total; {
			src := make([]float64, 1+rng.Intn(4096))
			for i := range src {
				src[i] = expInput(rng)
			}
			checkTwins(t, kern, src, 0, rng.Intn(4))
			done += len(src)
		}
	})
}

// FuzzExp is the differential fuzz of the slice kernels against the
// portable scalar definition: arbitrary float64 bit patterns, lengths
// and shifts, tolerance 0, on every twin.
func FuzzExp(f *testing.F) {
	seed := make([]byte, 0, 8*len(expSpecials))
	for _, v := range expSpecials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, 0.0, uint8(0))
	f.Add(seed[:72], 2.5, uint8(3))
	f.Add([]byte{}, 1.0, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, shift float64, offset uint8) {
		src := make([]float64, len(raw)/8)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		tailTwins(t, func(t *testing.T, kern isa) {
			checkTwins(t, kern, src, shift, int(offset%4))
		})
	})
}

// normCase draws one row problem of NormRow.
func normCase(rng *rand.Rand, n int, amp float64) (x, res, gamma, beta []float64) {
	draw := func(amp float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = (rng.Float64()*2 - 1) * amp
		}
		return v
	}
	return draw(amp), draw(amp), draw(2), draw(1)
}

// TestNormRowAsmMatchesPortable pins the AVX row kernel of the residual +
// layer norm to the portable loop bit for bit — out, xhat and the
// returned inverse deviation — with and without a residual, at widths
// the assembly takes (multiples of NormBlock) and widths it leaves to the
// portable loop, and stores nothing past the row.
func TestNormRowAsmMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(192))
	for _, n := range []int{1, 3, 4, 15, 16, 17, 32, 48, 64, 100, 192, 768, 1024} {
		for _, amp := range []float64{1, 1e-3, 1e6} {
			for _, withRes := range []bool{true, false} {
				x, res, gamma, beta := normCase(rng, n, amp)
				if !withRes {
					res = nil
				}
				wantOut, wantHat := make([]float64, n), make([]float64, n)
				wantInv := normRow(wantOut, wantHat, x, res, gamma, beta, 1e-5, isaGo)
				buf := make([]float64, 2*n+2)
				for i := range buf {
					buf[i] = 7
				}
				gotOut, gotHat := buf[:n], buf[n+1:2*n+1]
				gotInv := normRow(gotOut, gotHat, x, res, gamma, beta, 1e-5, tailHost)
				if gotInv != wantInv || sameBits(gotOut, wantOut) >= 0 || sameBits(gotHat, wantHat) >= 0 {
					t.Fatalf("width %d, amplitude %g, residual %v: row norm assembly differs from the portable loop", n, amp, withRes)
				}
				if buf[n] != 7 || buf[2*n+1] != 7 {
					t.Fatalf("width %d: stored past the row", n)
				}
			}
		}
	}
}
