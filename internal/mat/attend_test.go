package mat_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// pagedAttend is a case's window stored as a KV cache stores it: pages
// of ld rows, each 2*dim*ld floats holding heads heads of the case's
// head dim, keys feature-major then values row-major; the case is the
// last head (a head offset inside the key and the value block). Every
// element outside the window holds pad. The pages are carved from
// arena in order when it is non-nil, else each is its own allocation.
type pagedAttend struct {
	pages      [][]float64
	ko, vo, vs int
}

func (c *attendCase) paged(arena []float64, ld, heads int, pad float64) pagedAttend {
	hd := len(c.q)
	dim, ho := heads*hd, (heads-1)*hd
	pg := pagedAttend{pages: make([][]float64, (c.rows+ld-1)/ld), ko: ho * ld, vo: dim*ld + ho, vs: dim}
	for i := range pg.pages {
		if size := 2 * dim * ld; arena != nil {
			pg.pages[i] = arena[i*size : (i+1)*size : (i+1)*size]
		} else {
			pg.pages[i] = make([]float64, size)
		}
		for j := range pg.pages[i] {
			pg.pages[i][j] = pad
		}
	}
	for j := 0; j < c.rows; j++ {
		page, r := pg.pages[j/ld], j%ld
		for f := 0; f < hd; f++ {
			page[(ho+f)*ld+r] = c.refK.At(j, f)
			page[dim*ld+r*dim+ho+f] = c.refV.At(j, f)
		}
	}
	return pg
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

// TestAttendTwins holds every twin of the core — the portable loops
// (go), the YMM kernel (avx) and the ZMM kernels with the YMM kernel on
// a last partial block (avx512) — to the naive reference bit for bit,
// over the sweep of TestAttendBitIdenticalSweep widened so that every
// ZMM pass width (64, 48, 32, 16) and remainder runs in both products:
// windows of 48 to 192 rows and head dims of 17, 32 and 96. Everything
// the window excludes holds NaN, and the probability and context
// buffers hold a sentinel past their ends, so neither a padding lane
// nor a store past the last column goes unseen. A twin the host cannot
// run is an explicit SKIP.
func TestAttendTwins(t *testing.T) {
	heads := append(slices.Clone(attendHeadDims), 17, 32, 96)
	windows := append(slices.Clone(attendRows), 48, 63, 64, 65, 80, 112, 128, 176, 192)
	const sentinel = 7
	guard := func(n int) []float64 {
		s := make([]float64, n+mat.AttendBlock)
		for i := range s {
			s[i] = sentinel
		}
		return s
	}
	for _, isa := range []string{"go", "avx", "avx512"} {
		t.Run(isa, func(t *testing.T) {
			attend, ok := mat.AttendTwin(isa)
			if !ok {
				t.Skipf("this host (or build) cannot run the %s twin", isa)
			}
			rng := rand.New(rand.NewSource(147))
			for _, hd := range heads {
				for _, rows := range windows {
					for _, extra := range []int{0, 1, 21} {
						total := rows + extra
						for _, ldPad := range []int{0, 16, 40} {
							for _, vs := range []int{hd, hd + 3, 4 * hd} {
								ld := mat.AttendPadded(total) + ldPad
								c := newAttendCase(rng, hd, rows, total, ld, vs, 1, math.NaN())
								what := fmt.Sprintf("%s: hd %d, %d of %d rows, ld %d, vs %d", isa, hd, rows, total, ld, vs)
								out, p := guard(hd), guard(rows)
								attend(out[:hd], c.q, c.kT, c.ld, c.v, c.vs, c.rows, c.scale, p[:rows])
								for _, tail := range [][]float64{out[hd:], p[rows:]} {
									for _, x := range tail {
										if x != sentinel {
											t.Fatalf("%s: stored past the end of a result", what)
										}
									}
								}
								copy(c.out, out)
								copy(c.p, p)
								c.check(t, what)
							}
						}
					}
				}
			}
		})
	}
}

// TestAttendTwinsPaged holds every twin of AttendPaged to the naive
// reference bit for bit. Its value pass carries each context element's
// sum from page to page (the assembly twins inside one page-walking
// call, the portable vecMatGo by starting each page's sums from dst), so
// windows end inside, at and one past a page edge and run over several
// pages, at every page height from one block to four, for the last head
// of a one- and a three-head page (a head offset inside the key and the
// value block), at head dims that run every ZMM pass width, the YMM
// blocks and the portable remainder. Everything outside the window holds
// NaN, and the probability and context buffers hold a sentinel past
// their ends. A twin the host cannot run is an explicit SKIP.
func TestAttendTwinsPaged(t *testing.T) {
	const sentinel = 7
	guard := func(n int) []float64 {
		s := make([]float64, n+mat.AttendBlock)
		for i := range s {
			s[i] = sentinel
		}
		return s
	}
	for _, isa := range []string{"go", "avx", "avx512"} {
		t.Run(isa, func(t *testing.T) {
			attend, ok := mat.AttendPagedTwin(isa)
			if !ok {
				t.Skipf("this host (or build) cannot run the %s twin", isa)
			}
			rng := rand.New(rand.NewSource(148))
			for _, hd := range []int{1, 5, 16, 17, 48, 64, 96} {
				for _, ld := range []int{16, 32, 64} {
					for _, rows := range []int{1, ld - 1, ld, ld + 1, 2*ld + 17, 208} {
						for _, heads := range []int{1, 3} {
							dim, ho := heads*hd, (heads-1)*hd
							c := newAttendCase(rng, hd, rows, rows, mat.AttendPadded(rows), hd, 1, math.NaN())
							pages := make([][]float64, (rows+ld-1)/ld)
							for i := range pages {
								pages[i] = make([]float64, 2*dim*ld)
								for j := range pages[i] {
									pages[i][j] = math.NaN()
								}
							}
							for j := 0; j < rows; j++ {
								pg, r := pages[j/ld], j%ld
								for f := 0; f < hd; f++ {
									pg[(ho+f)*ld+r] = c.refK.At(j, f)
									pg[dim*ld+r*dim+ho+f] = c.refV.At(j, f)
								}
							}
							what := fmt.Sprintf("%s: hd %d, %d rows in %d-row pages, head %d of %d", isa, hd, rows, ld, heads-1, heads)
							out, p := guard(hd), guard(rows)
							attend(out[:hd], c.q, pages, ho*ld, dim*ld+ho, ld, dim, rows, c.scale, p[:rows])
							for _, tail := range [][]float64{out[hd:], p[rows:]} {
								for _, x := range tail {
									if x != sentinel {
										t.Fatalf("%s: stored past the end of a result", what)
									}
								}
							}
							copy(c.out, out)
							copy(c.p, p)
							c.check(t, what)
						}
					}
				}
			}
		})
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

// TestPackKeysRoundTrip: PackKeys places every element where its
// definition says, kT[c*ld+j] == src[j*ss+c], at every 4-row block edge
// and at an offset inside the feature rows, and touches nothing outside
// the block.
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
		}
	}
}

// FuzzAttendPaged holds every twin of AttendPaged to the naive reference
// at tolerance 0 on arbitrary shapes: a window of 1-300 rows in pages of
// 16, 32 or 64 rows, head dims 1-70 as the last of one or three heads
// per page, any finite scale up to 1e3 (underflowed probabilities
// included), and NaN, ±Inf or a large finite value in every element
// outside the window — the spare key lanes the score pass loads
// included. The probability and context buffers hold a sentinel past
// their ends.
func FuzzAttendPaged(f *testing.F) {
	f.Add(uint16(1), uint8(0), uint8(0), 1.0, uint8(0), int64(1))
	f.Add(uint16(129), uint8(1), uint8(47), 0.125, uint8(1), int64(2))
	f.Add(uint16(207), uint8(5), uint8(69), 1e3, uint8(2), int64(3))
	f.Add(uint16(63), uint8(2), uint8(16), -0.5, uint8(3), int64(4))
	const sentinel = 7
	spares := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300}
	type twin struct {
		name   string
		attend func(out, q []float64, pages [][]float64, ko, vo, ld, vs, rows int, scale float64, p []float64)
	}
	var twins []twin
	for _, name := range []string{"go", "avx", "avx512"} {
		if attend, ok := mat.AttendPagedTwin(name); ok {
			twins = append(twins, twin{name, attend})
		}
	}
	f.Fuzz(func(t *testing.T, window uint16, shape, hdIn uint8, scale float64, spare uint8, seed int64) {
		rows, hd := 1+int(window)%300, 1+int(hdIn)%70
		ld, heads := 16<<(shape%3), 1+2*int(shape/3%2)
		rng := rand.New(rand.NewSource(seed))
		c := newAttendCase(rng, hd, rows, rows, mat.AttendPadded(rows), hd, 1, 0)
		if math.Abs(scale) <= 1e3 {
			c.scale = scale
			c.wantProbs = testutil.NaiveAttend(c.wantOut, c.q, c.refK, c.refV, c.scale)
		}
		pg := c.paged(nil, ld, heads, spares[spare%4])
		for _, tw := range twins {
			out, p := make([]float64, hd+mat.AttendBlock), make([]float64, rows+mat.AttendBlock)
			for i := range out {
				out[i] = sentinel
			}
			for i := range p {
				p[i] = sentinel
			}
			tw.attend(out[:hd], c.q, pg.pages, pg.ko, pg.vo, ld, pg.vs, rows, c.scale, p[:rows])
			what := fmt.Sprintf("%s: hd %d, %d rows in %d-row pages, head %d of %d, scale %v",
				tw.name, hd, rows, ld, heads-1, heads, c.scale)
			for _, x := range append(out[hd:], p[rows:]...) {
				if x != sentinel {
					t.Fatalf("%s: stored past the end of a result", what)
				}
			}
			for i, w := range c.wantProbs {
				if math.Float64bits(p[i]) != math.Float64bits(w) {
					t.Fatalf("%s: probability %d = %v, naive reference %v", what, i, p[i], w)
				}
			}
			for i, w := range c.wantOut {
				if math.Float64bits(out[i]) != math.Float64bits(w) {
					t.Fatalf("%s: context %d = %v, naive reference %v", what, i, out[i], w)
				}
			}
		}
	})
}

// BenchmarkAttendRow is one head-row at the serving head dim (48 of a
// 192-wide row) on each twin this host runs, beside the naive scalar
// reference: over a 16- and a 64-row window in one block, and over 80,
// 130 and 208 rows in one block and in pages of 16, 32 and 64 rows, the
// last head of a KV cache's page. Every layout of a window is written
// into the same memory before its timing, so the rows compare layouts,
// not where the allocator put them (which alone moved a row by up to
// 1.4x between runs). Each paged row should sit within a few percent of
// its one block. A rough guide (this host is noisy): run it at
// GOMAXPROCS 1 with -count, so the rows interleave, and read medians;
// the enforced comparison is the repository benchmark.
func BenchmarkAttendRow(b *testing.B) {
	const hd, heads = 48, 4
	rng := rand.New(rand.NewSource(146))
	for _, name := range []string{"go", "avx", "avx512"} {
		block, ok := mat.AttendTwin(name)
		paged, _ := mat.AttendPagedTwin(name)
		if !ok {
			continue
		}
		for _, rows := range []int{16, 64, 80, 130, 208} {
			c := newAttendCase(rng, hd, rows, rows, mat.AttendPadded(rows), hd*heads, 1, 0)
			arena := make([]float64, 2*hd*heads*mat.AttendPadded(rows)+2*hd*heads*64)
			b.Run(fmt.Sprintf("%s/%d/block", name, rows), func(b *testing.B) {
				kT, v := arena[:len(c.kT)], arena[len(c.kT):][:len(c.v)]
				copy(kT, c.kT)
				copy(v, c.v)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					block(c.out, c.q, kT, c.ld, v, c.vs, rows, c.scale, c.p)
				}
			})
			if rows < 80 {
				continue
			}
			for _, ld := range []int{16, 32, 64} {
				b.Run(fmt.Sprintf("%s/%d/page%d", name, rows, ld), func(b *testing.B) {
					pg := c.paged(arena, ld, heads, 0)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						paged(c.out, c.q, pg.pages, pg.ko, pg.vo, ld, pg.vs, rows, c.scale, c.p)
					}
				})
			}
		}
	}
	for _, rows := range []int{16, 64, 208} {
		c := newAttendCase(rng, hd, rows, rows, mat.AttendPadded(rows), hd*heads, 1, 0)
		b.Run(fmt.Sprintf("naive/%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				testutil.NaiveAttend(c.wantOut, c.q, c.refK, c.refV, c.scale)
			}
		})
	}
}
