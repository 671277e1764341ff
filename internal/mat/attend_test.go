package mat_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rt3/internal/mat"
	"rt3/internal/testutil"
)

// attendCase is one head-row problem in the core's storage: keys
// feature-major at stride ld with total key rows stored (the window is
// the first rows of them), values row-major at stride vs.
type attendCase struct {
	q, kT, v  []float64
	ld, vs    int
	rows      int
	refK      *mat.Matrix // the window's keys and values, rows x hd
	refV      *mat.Matrix
	scale     float64
	out, p    []float64
	wantOut   []float64
	wantProbs []float64
}

// newAttendCase draws a problem with total >= rows stored key rows, ld
// >= total rounded up to a block, and value stride vs >= hd; everything
// outside the window (later rows, lane padding, the value columns past
// hd) is filled with pad.
func newAttendCase(rng *rand.Rand, hd, rows, total, ld, vs int, amp, pad float64) *attendCase {
	c := &attendCase{ld: ld, vs: vs, rows: rows, scale: 1 / math.Sqrt(float64(hd))}
	c.q = make([]float64, hd)
	for i := range c.q {
		c.q[i] = (rng.Float64()*2 - 1) * amp
	}
	k := mat.New(rows, hd)
	k.Randomize(rng, 1)
	v := mat.New(rows, hd)
	v.Randomize(rng, 1)
	c.refK, c.refV = k, v
	c.kT = make([]float64, hd*ld)
	c.v = make([]float64, total*vs)
	for i := range c.kT {
		c.kT[i] = pad
	}
	for i := range c.v {
		c.v[i] = pad
	}
	mat.PackKeys(c.kT, ld, k.Data, hd, rows, hd)
	for j := 0; j < rows; j++ {
		copy(c.v[j*vs:], v.Row(j))
	}
	c.out = make([]float64, hd)
	c.p = make([]float64, rows)
	c.wantOut = make([]float64, hd)
	c.wantProbs = testutil.NaiveAttend(c.wantOut, c.q, c.refK, c.refV, c.scale)
	return c
}

func (c *attendCase) run() {
	mat.Attend(c.out, c.q, c.kT, c.ld, c.v, c.vs, c.rows, c.scale, c.p)
}

func (c *attendCase) check(t *testing.T, what string) {
	t.Helper()
	for i, w := range c.wantProbs {
		if c.p[i] != w {
			t.Fatalf("%s: probability %d = %v, naive reference %v", what, i, c.p[i], w)
		}
	}
	for i, w := range c.wantOut {
		if c.out[i] != w {
			t.Fatalf("%s: context %d = %v, naive reference %v", what, i, c.out[i], w)
		}
	}
}

var (
	attendHeadDims = []int{1, 3, 4, 5, 16, 48, 64}
	attendRows     = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 208}
)

// TestAttendBitIdenticalSweep: the core must equal the naive scalar
// reference bit for bit at every block edge — windows that fill the
// stored keys and windows shorter than them, ld at and beyond the row
// count, value stride at and beyond the head dim. Everything the window
// excludes holds NaN, so a padding lane or a later row leaking into a
// stored result shows.
func TestAttendBitIdenticalSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for _, hd := range attendHeadDims {
		for _, rows := range attendRows {
			for _, extra := range []int{0, 1, 21} { // stored rows past the window
				total := rows + extra
				for _, ldPad := range []int{0, 16, 40} {
					for _, vs := range []int{hd, hd + 3, 4 * hd} {
						ld := mat.AttendPadded(total) + ldPad
						c := newAttendCase(rng, hd, rows, total, ld, vs, 1, math.NaN())
						c.run()
						c.check(t, fmt.Sprintf("hd %d, %d of %d rows, ld %d, vs %d", hd, rows, total, ld, vs))
					}
				}
			}
		}
	}
}

// TestAttendUnderflowedProbabilities pins the zero-probability policy:
// with a score spread wide enough that exp underflows to exactly 0
// inside the window, the core adds the 0*v products MatMul used to skip,
// which leaves every finite sum unchanged.
func TestAttendUnderflowedProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	for _, rows := range []int{5, 16, 33, 100} {
		c := newAttendCase(rng, 48, rows, rows, mat.AttendPadded(rows), 48, 4000, 0)
		c.run()
		zeros := 0
		for _, p := range c.p {
			if p == 0 {
				zeros++
			}
		}
		if zeros == 0 {
			t.Fatalf("%d rows: no probability underflowed; the case does not test the policy", rows)
		}
		c.check(t, fmt.Sprintf("%d rows, %d exact-zero probabilities", rows, zeros))
		skip := mat.New(1, 48) // MatMul's zero skip over the same probabilities
		mat.MatMul(skip, mat.FromSlice(1, rows, c.p), c.refV)
		for i, w := range skip.Data {
			if c.out[i] != w {
				t.Fatalf("%d rows: context %d = %v, with the zero skip %v", rows, i, c.out[i], w)
			}
		}
	}
}

// TestAttendRejects: an empty window and undersized storage are caught
// before the kernel reads anything.
func TestAttendRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	for name, breakIt := range map[string]func(c *attendCase){
		"no key rows":       func(c *attendCase) { c.rows = 0 },
		"keys not padded":   func(c *attendCase) { c.kT = c.kT[:len(c.kT)-1] },
		"values too short":  func(c *attendCase) { c.v = c.v[:len(c.v)-1] },
		"scores too short":  func(c *attendCase) { c.p = c.p[:c.rows-1] },
		"out of wrong size": func(c *attendCase) { c.out = c.out[:len(c.out)-1] },
	} {
		c := newAttendCase(rng, 4, 5, 5, 16, 4, 1, 0)
		breakIt(c)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: accepted", name)
				}
			}()
			c.run()
		}()
	}
}

// TestAttendZeroAllocs: the core owns no scratch.
func TestAttendZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	short := newAttendCase(rng, 48, 7, 7, 16, 192, 1, 0)
	long := newAttendCase(rng, 48, 208, 208, 208, 192, 1, 0)
	if allocs := testing.AllocsPerRun(50, func() { short.run(); long.run() }); allocs != 0 {
		t.Fatalf("%v allocs per Attend pair, want 0", allocs)
	}
}

// TestPackKeysRoundTrip: PackKeys and UnpackKeys are inverses at every
// 4-row block edge, at an offset inside the feature rows, and touch
// nothing outside the block.
func TestPackKeysRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(145))
	for _, rows := range []int{1, 3, 4, 5, 8, 11} {
		for _, n := range []int{1, 5, 8} {
			const j0, ss, ld = 3, 9, 20
			src := mat.New(rows, ss)
			src.Randomize(rng, 1)
			kT := make([]float64, n*ld)
			for i := range kT {
				kT[i] = 7
			}
			mat.PackKeys(kT[j0:], ld, src.Data, ss, rows, n)
			for i, x := range kT {
				c, j := i/ld, i%ld-j0
				want := 7.0
				if j >= 0 && j < rows {
					want = src.At(j, c)
				}
				if x != want {
					t.Fatalf("%d rows x %d: kT[%d][%d] = %v, want %v", rows, n, c, j+j0, x, want)
				}
			}
			back := mat.New(rows, ss)
			back.Fill(7)
			mat.UnpackKeys(back.Data, ss, kT[j0:], ld, rows, n)
			for j := 0; j < rows; j++ {
				for c := 0; c < ss; c++ {
					want := 7.0
					if c < n {
						want = src.At(j, c)
					}
					if back.At(j, c) != want {
						t.Fatalf("%d rows x %d: round trip [%d][%d] = %v, want %v", rows, n, j, c, back.At(j, c), want)
					}
				}
			}
		}
	}
}

// BenchmarkAttendRow is one head-row at the serving head dim over a
// short, a medium and a full-length window, beside the naive scalar
// reference — a rough guide (this host is noisy); the enforced
// comparison is the repository benchmark.
func BenchmarkAttendRow(b *testing.B) {
	rng := rand.New(rand.NewSource(146))
	for _, rows := range []int{16, 64, 208} {
		c := newAttendCase(rng, 48, rows, rows, mat.AttendPadded(rows), 192, 1, 0)
		b.Run(fmt.Sprintf("kernel/%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})
		b.Run(fmt.Sprintf("naive/%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				testutil.NaiveAttend(c.wantOut, c.q, c.refK, c.refV, c.scale)
			}
		})
	}
}
