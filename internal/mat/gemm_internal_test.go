package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestGemm8AsmMatchesScalar pins the SIMD int8 path to the scalar
// reference kernel bit for bit: both run exact int32 arithmetic over
// the same quantized values, so any divergence is a packing or kernel
// bug, never rounding. (On platforms without the asm path this
// compares the scalar path with itself, which is fine.)
func TestGemm8AsmMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, sh := range [][3]int{{1, 1, 1}, {7, 5, 3}, {9, 33, 17}, {16, 32, 8}, {33, 17, 9}, {64, 192, 192}} {
		M, K, N := sh[0], sh[1], sh[2]
		x := New(M, K)
		x.Randomize(rng, 1)
		w := New(K, N)
		w.Randomize(rng, 1)
		p := PackPanels8(w)
		got := New(M, N)
		Gemm8(got, x, p)

		kp := (K + 1) / 2
		s := &int8Scratch{q: make([]int16, M*kp*2), scale: make([]float64, M), zp: make([]int32, M)}
		for r := 0; r < M; r++ {
			s.scale[r], s.zp[r] = quantizeRowInt8(x.Data[r*K:(r+1)*K], s.q[r*kp*2:(r+1)*kp*2])
		}
		ref := New(M, N)
		gemm8Rows(ref, s, p, 0, M)
		if !Equal(got, ref, 0) {
			t.Fatalf("%v: int8 asm differs from scalar reference", sh)
		}
	}
}

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

// TestGemmPanelsAsmMatchesPortable pins the float64 and float32
// assembly tiles to the portable register-blocked kernels bit for bit at
// every row-block edge — a last block of 1-7 rows runs the same tile
// with the missing rows clamped, and must store exactly the real ones.
// (Without the asm paths this compares the portable nest with itself.)
func TestGemmPanelsAsmMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, M := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 71} {
		for _, sh := range [][2]int{{1, 4}, {5, 3}, {33, 17}, {192, 20}} {
			K, N := sh[0], sh[1]
			x := New(M, K)
			x.Randomize(rng, 1)
			w := New(K, N)
			w.Randomize(rng, 1)

			p64 := PackPanels[float64](w)
			what := fmt.Sprintf("%dx%dx%d", M, K, N)
			got, intact := guarded(t, M, N)
			want := New(M, N)
			GemmPanels(got, x.Data, p64)
			gemmPanelRows(want, x.Data, p64, 0, M, 0, (N+PanelWidth-1)/PanelWidth, nil)
			intact(what + " f64")
			if !Equal(got, want, 0) {
				t.Fatalf("%s: f64 asm differs from portable kernels", what)
			}

			p32 := PackPanels[float32](w)
			x32 := make([]float32, len(x.Data))
			for i, v := range x.Data {
				x32[i] = float32(v)
			}
			got.Fill(7)
			GemmPanels(got, x32, p32)
			gemmPanelRows(want, x32, p32, 0, M, 0, (N+PanelWidth-1)/PanelWidth, nil)
			intact(what + " f32")
			if !Equal(got, want, 0) {
				t.Fatalf("%s: f32 asm differs from portable kernels", what)
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
		{"avx", laneKern{true, laneWidth}, laneAsm, "AVX"},
		{"avx512", laneKern{true, 2 * laneWidth}, cpuHasAVX512F, "AVX-512F"},
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

// TestLaneGate: the ZMM kernels are only ever chosen on top of the AVX
// gate (under purego both are constant false), and the name a scrape
// reads is the twin GemmLanes runs.
func TestLaneGate(t *testing.T) {
	if cpuHasAVX512F && !laneAsm {
		t.Fatal("cpuHasAVX512F without hasAVX")
	}
	want := map[laneKern]string{{false, laneWidth}: "go", {true, laneWidth}: "avx", {true, 2 * laneWidth}: "avx512"}[laneHost]
	if want == "" || LaneISA() != want {
		t.Fatalf("laneHost %+v reported as %q", laneHost, LaneISA())
	}
}

// TestQuantizeRowInt8 checks the affine quantizer's invariants: exact
// zeros, in-range codes, padding cleared, and round-trip error within
// one scale step.
func TestQuantizeRowInt8(t *testing.T) {
	row := []float64{0, 0.5, -1.25, 3, 0, -2}
	q := make([]int16, 8) // padded to an even k-pair count
	q[6], q[7] = 99, 99
	scale, zp := quantizeRowInt8(row, q)
	if q[6] != 0 || q[7] != 0 {
		t.Fatalf("padding not cleared: %v", q)
	}
	for k, v := range row {
		if q[k] < -128 || q[k] > 127 {
			t.Fatalf("code %d out of int8 range", q[k])
		}
		back := scale * float64(int32(q[k])-zp)
		if diff := back - v; diff > scale || diff < -scale {
			t.Fatalf("round-trip error %g exceeds scale %g at %d", diff, scale, k)
		}
		if v == 0 && back != 0 {
			t.Fatalf("zero did not quantize exactly: %g", back)
		}
	}
	// all-zero row: scale falls back to 1 and codes sit at the zero point
	zrow := []float64{0, 0, 0}
	zq := make([]int16, 4)
	zscale, zzp := quantizeRowInt8(zrow, zq)
	if zscale != 1 {
		t.Fatalf("zero-row scale %g", zscale)
	}
	for k := range zrow {
		if int32(zq[k]) != zzp {
			t.Fatalf("zero-row code %d != zero point %d", zq[k], zzp)
		}
	}
}

// TestFreeListReuse: Get returns what Put stored before minting fresh
// values, and the zero value is usable.
func TestFreeListReuse(t *testing.T) {
	var fl FreeList[[]float32]
	fresh := 0
	mint := func() []float32 { fresh++; return make([]float32, 4) }
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

// TestGrow: reuse under capacity, reallocate beyond it.
func TestGrow(t *testing.T) {
	s := make([]int16, 2, 8)
	g := Grow(s, 6)
	if len(g) != 6 || &g[0] != &s[0] {
		t.Fatal("Grow reallocated under capacity")
	}
	g2 := Grow(s, 16)
	if len(g2) != 16 {
		t.Fatalf("Grow len %d", len(g2))
	}
}

// TestAttendAsmMatchesPortable pins the AVX kernel of the attention core
// to vecMatGo bit for bit, through the shared nest, at every block edge:
// probabilities and context equal, and nothing stored past either.
func TestAttendAsmMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for _, hd := range []int{1, 3, 4, 5, 16, 17, 48, 64} {
		for _, rows := range []int{1, 2, 7, 15, 16, 17, 31, 32, 33, 100, 208} {
			ld := AttendPadded(rows) + 16
			vs := hd + 5
			q, kT, v := New(1, hd), New(hd, ld), New(rows, vs)
			q.Randomize(rng, 1)
			kT.Randomize(rng, 1)
			v.Randomize(rng, 1)
			scale := 1 / math.Sqrt(float64(hd))
			// one guarded matrix per result: row 0 is the result, the
			// rows behind it the sentinel
			gotP, pIntact := guarded(t, 1, rows)
			gotOut, outIntact := guarded(t, 1, hd)
			wantP, wantOut := New(1, rows), New(1, hd)
			attend(gotOut.Data, q.Data, kT.Data, ld, v.Data, vs, rows, scale, gotP.Data, laneAsm)
			attend(wantOut.Data, q.Data, kT.Data, ld, v.Data, vs, rows, scale, wantP.Data, false)
			what := fmt.Sprintf("head dim %d, %d rows", hd, rows)
			pIntact(what + " probabilities")
			outIntact(what + " context")
			if !Equal(gotP, wantP, 0) || !Equal(gotOut, wantOut, 0) {
				t.Fatalf("%s: attention asm differs from portable kernel", what)
			}
		}
	}
}
