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

// TestGemmPanelsAsmMatchesPortable pins the assembly tile to the
// portable register-blocked kernels bit for bit at every row-block edge
// — a last block of 1-7 rows runs the same tile with the missing rows
// clamped, and must store exactly the real ones. (Without the asm path
// this compares the portable nest with itself.)
func TestGemmPanelsAsmMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, M := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 71} {
		for _, sh := range [][2]int{{1, 4}, {5, 3}, {33, 17}, {192, 20}} {
			K, N := sh[0], sh[1]
			x := New(M, K)
			x.Randomize(rng, 1)
			w := New(K, N)
			w.Randomize(rng, 1)

			p := PackPanels(w)
			what := fmt.Sprintf("%dx%dx%d", M, K, N)
			got, intact := guarded(t, M, N)
			want := New(M, N)
			GemmPanels(got, x.Data, p)
			gemmPanelRows(want, x.Data, p, 0, M, 0, (N+PanelWidth-1)/PanelWidth, false)
			intact(what)
			if !Equal(got, want, 0) {
				t.Fatalf("%s: asm differs from portable kernels", what)
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
