package kernel_test

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"rt3/internal/kernel"
	"rt3/internal/mat"
	"rt3/internal/pattern"
	"rt3/internal/testutil"
)

// maskedWeights returns w with the pattern set applied (w itself when
// there is no set).
func maskedWeights(w *mat.Matrix, set *pattern.Set) *mat.Matrix {
	if set == nil {
		return w
	}
	mask, _ := set.Apply(w)
	mw := w.Clone()
	mw.Hadamard(mask)
	return mw
}

// maskedDense computes the ground truth a registry kernel must match:
// dense execution over the pattern-masked weights.
func maskedDense(w *mat.Matrix, set *pattern.Set, x *mat.Matrix) *mat.Matrix {
	y := mat.New(x.Rows, w.Cols)
	mat.MatMul(y, x, maskedWeights(w, set))
	return y
}

// TestRegistryFormatsMatchDense is the unified equivalence property: for
// every registered execution format, building a kernel over the same pattern-masked weights and running
// MulInto must equal dense execution element-for-element, including
// non-multiple-of-psize edge shapes.
func TestRegistryFormatsMatchDense(t *testing.T) {
	for _, format := range kernel.Formats() {
		t.Run(format, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				rows, cols, batch := 4+rng.Intn(13), 4+rng.Intn(13), 1+rng.Intn(6)
				w := mat.New(rows, cols)
				w.Randomize(rng, 1)
				set := pattern.RandomSet(4, 0.5, 3, rng)
				k, err := kernel.Build(format, w, kernel.Options{Set: set})
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				in, out := k.Dims()
				if in != rows || out != cols {
					t.Fatalf("Dims = %dx%d, want %dx%d", in, out, rows, cols)
				}
				x := mat.New(batch, rows)
				x.Randomize(rng, 1)
				want := maskedDense(w, set, x)
				dst := mat.New(batch, cols)
				k.MulInto(dst, x)
				if !mat.Equal(dst, want, 1e-9) {
					return false
				}
				// the allocating wrapper must agree with MulInto
				return mat.Equal(kernel.Mul(k, x), dst, 0)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDenseKernelSeesWeightUpdates pins the NewDense contract: the
// kernel aliases the live weight matrix rather than copying it.
func TestDenseKernelSeesWeightUpdates(t *testing.T) {
	w := mat.FromSlice(2, 2, []float64{1, 0, 0, 1})
	k := kernel.NewDense(w)
	x := mat.FromSlice(1, 2, []float64{3, 5})
	y := kernel.Mul(k, x)
	if y.At(0, 0) != 3 || y.At(0, 1) != 5 {
		t.Fatalf("identity product got %v", y.Data)
	}
	w.Set(0, 0, 2)
	k.MulInto(y, x)
	if y.At(0, 0) != 6 {
		t.Fatalf("dense kernel did not see weight update: %v", y.Data)
	}
	if k.NNZ() != 4 || k.IndexWords() != 0 {
		t.Fatalf("dense storage accounting: nnz %d idx %d", k.NNZ(), k.IndexWords())
	}
}

// TestStorageAccountingConsistent checks the registry kernels report the
// storage models their formats document: the pattern kernel counts every
// kept position plus one id per tile and the shared dictionary's
// offsets; the dense layout stores every value and no index.
func TestStorageAccountingConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := mat.New(16, 16)
	w.Randomize(rng, 1)
	set := pattern.RandomSet(4, 0.5, 3, rng)
	mask, choices := set.Apply(w)
	patternIdx := len(choices)
	for _, p := range set.Patterns {
		patternIdx += len(p.Kept())
	}
	want := map[string][2]int{
		"dense": {256, 0}, "pattern": {mask.NNZ(), patternIdx},
	}
	for _, format := range kernel.Formats() {
		k, err := kernel.Build(format, w, kernel.Options{Set: set})
		if err != nil {
			t.Fatal(err)
		}
		if got := [2]int{k.NNZ(), k.IndexWords()}; got != want[format] {
			t.Errorf("%s accounting (nnz, index words) = %v, want %v", format, got, want[format])
		}
	}
}

// TestForkMatchesInline: every format is bit-identical whether its
// MulInto fans out across the mat.Fork helpers or runs inline
// (GOMAXPROCS 1), at decode-step batches (one block, split by column
// partition) and around the 8- and 16-row lane block edges.
func TestForkMatchesInline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := mat.New(192, 192)
	w.Randomize(rng, 1)
	set := pattern.RandomSet(8, 0.5, 3, rng)
	type run struct {
		format  string
		k       kernel.Kernel
		x, want *mat.Matrix
	}
	var runs []run
	testutil.Procs(t, 1)
	for _, format := range kernel.Formats() {
		k, err := kernel.Build(format, w, kernel.Options{Set: set})
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 7, 9, 64, 65, 257, 513} {
			x := mat.New(batch, 192)
			x.Randomize(rng, 1)
			want := mat.New(batch, 192)
			k.MulInto(want, x)
			runs = append(runs, run{format, k, x, want})
		}
	}
	testutil.Procs(t, 4)
	for _, r := range runs {
		got := mat.New(r.x.Rows, 192)
		before := mat.ForkStats().Regions
		r.k.MulInto(got, r.x)
		after := mat.ForkStats().Regions
		if !mat.Equal(got, r.want, 0) {
			t.Fatalf("%s batch %d: forked MulInto differs from inline", r.format, r.x.Rows)
		}
		// dense (mat.MatMul) has no fork body; pattern splits every one of
		// these batches, by column partition up to one lane block and by
		// row block beyond
		if forks := r.format != "dense"; (after > before) != forks {
			t.Errorf("%s batch %d: fanned out = %v", r.format, r.x.Rows, after > before)
		}
	}
}

// TestMulIntoZeroAllocs is the steady-state allocation contract of the
// whole execution API: after warm-up, MulInto allocates nothing — for
// every format, at a decode step's single block (split by column
// partition), at a few lane blocks and at a batch of many (fork bodies and scratch are borrowed from
// free lists, not allocated per region).
func TestMulIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := mat.New(192, 192)
	w.Randomize(rng, 1)
	set := pattern.RandomSet(8, 0.6, 3, rng)
	testutil.Procs(t, 4)
	for _, format := range kernel.Formats() {
		k, err := kernel.Build(format, w, kernel.Options{Set: set})
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{7, 32, 257} {
			x := mat.New(batch, 192)
			x.Randomize(rng, 1)
			dst := mat.New(batch, 192)
			if allocs := testutil.AllocsPerRun(50, func() { k.MulInto(dst, x) }); allocs != 0 {
				t.Errorf("%s batch %d: %v allocs per MulInto, want 0", format, batch, allocs)
			}
		}
	}
}

// TestRegistryErrors covers the failure modes callers hit from flags.
func TestRegistryErrors(t *testing.T) {
	w := mat.New(4, 4)
	if _, err := kernel.Build("nope", w, kernel.Options{}); err == nil {
		t.Fatal("unknown format accepted")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("error does not name the format: %v", err)
	}
	// no set is not an error: it keeps every weight
	if k, err := kernel.Build("pattern", w, kernel.Options{}); err != nil || k.NNZ() != 16 {
		t.Fatalf("pattern without a set: %v", err)
	}
}

// TestRegistryNamesAndCustomFormat checks Names ordering and that a
// custom registry entry participates in Build like the built-ins.
func TestRegistryNamesAndCustomFormat(t *testing.T) {
	r := kernel.NewRegistry()
	r.Register("b", func(w *mat.Matrix, _ kernel.Options) (kernel.Kernel, error) {
		return kernel.NewDense(w), nil
	})
	r.Register("a", func(w *mat.Matrix, _ kernel.Options) (kernel.Kernel, error) {
		return kernel.Build("pattern", w, kernel.Options{})
	})
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
	rng := rand.New(rand.NewSource(19))
	w := mat.New(6, 5)
	w.Randomize(rng, 1)
	x := mat.New(3, 6)
	x.Randomize(rng, 1)
	ka, err := r.Build("a", w, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := r.Build("b", w, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(kernel.Mul(ka, x), kernel.Mul(kb, x), 1e-9) {
		t.Fatal("custom registry formats disagree")
	}
	if got := kernel.Formats(); !slices.Equal(got, []string{"dense", "pattern"}) {
		t.Fatalf("default registry formats = %v, want [dense pattern]", got)
	}
}

// TestPackedBitIdenticalToDense: the pattern format with no set — the
// packed kernel the unpruned linears run — keeps every weight and
// reproduces dense execution bit for bit, as it does under a set, at
// batches around the lane block edges.
func TestPackedBitIdenticalToDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, withSet := range []bool{false, true} {
		w := mat.New(48, 33)
		w.Randomize(rng, 1)
		opts := kernel.Options{}
		if withSet {
			opts.Set = pattern.RandomSet(4, 0.5, 3, rng)
		}
		dense, err := kernel.Build("dense", w, opts)
		if err != nil {
			t.Fatal(err)
		}
		pat, err := kernel.Build("pattern", w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !withSet && pat.NNZ() != 48*33 {
			t.Fatalf("pattern without a set stores %d weights, want all %d", pat.NNZ(), 48*33)
		}
		for _, batch := range []int{1, 7, 8, 9, 16, 17, 64} {
			x := mat.New(batch, 48)
			x.Randomize(rng, 1)
			want := kernel.Mul(dense, x)
			got := kernel.Mul(pat, x)
			if !mat.Equal(got, want, 0) {
				t.Fatalf("set=%v batch=%d: pattern differs from dense", withSet, batch)
			}
		}
	}
}

// TestProductsFuse: both formats fuse each product into its sum. On x =
// (1, 1+2^-27) and w = (-1, 1-2^-27) the fused sum is exactly -2^-54
// where mul-then-add gives 0; every format must return it, by bits, at a
// decode step's 8 rows and a wide block's 16, on the host's lane twin.
func TestProductsFuse(t *testing.T) {
	e := math.Ldexp(1, -27)
	want := math.Float64bits(-math.Ldexp(1, -54))
	w := mat.New(2, mat.LaneGroup) // whole column groups, so the assembly twins run
	for c := 0; c < mat.LaneGroup; c++ {
		w.Set(0, c, -1)
		w.Set(1, c, 1-e)
	}
	for _, format := range kernel.Formats() {
		k, err := kernel.Build(format, w, kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{8, 16} {
			x := mat.New(rows, 2)
			for r := 0; r < rows; r++ {
				x.Set(r, 0, 1)
				x.Set(r, 1, 1+e)
			}
			for i, v := range kernel.Mul(k, x).Data {
				if math.Float64bits(v) != want {
					t.Fatalf("%s, %d rows: element %d is %g, want -2^-54: the product did not fuse", format, rows, i, v)
				}
			}
		}
	}
}

// TestMulIntoShapePanics: every format panics on a mis-shaped product
// instead of computing numbers — including an x whose element count
// coincides with the valid one.
func TestMulIntoShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w := mat.New(4, 6)
	w.Randomize(rng, 1)
	set := pattern.RandomSet(4, 0.5, 2, rng)
	for _, format := range kernel.Formats() {
		k, err := kernel.Build(format, w, kernel.Options{Set: set})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name   string
			dst, x [2]int
		}{
			{"x 2x8 under dst 4x6: 16 elements, like a valid 4x4", [2]int{4, 6}, [2]int{2, 8}},
			{"x with the wrong inner dim", [2]int{2, 6}, [2]int{2, 3}},
			{"dst with the wrong cols", [2]int{2, 5}, [2]int{2, 4}},
			{"dst with the wrong rows", [2]int{3, 6}, [2]int{2, 4}},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s: expected panic", format, tc.name)
					}
				}()
				k.MulInto(mat.New(tc.dst[0], tc.dst[1]), mat.New(tc.x[0], tc.x[1]))
			}()
		}
	}
}

// FuzzKernelBuild drives kernel.Build over every format at degenerate
// shapes — 0/1-row and 0/1-col weights, batches 0-17, edges that are not
// multiples of psize, no set (every weight kept), a random set, an
// all-kept and a keep-nothing set — and compares each kernel against the
// naive product over the masked weights, exactly.
func FuzzKernelBuild(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), int64(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), int64(2))
	f.Add(uint8(0), uint8(5), uint8(3), uint8(6), int64(3))
	f.Add(uint8(7), uint8(0), uint8(17), uint8(3), int64(4))
	f.Add(uint8(24), uint8(13), uint8(8), uint8(9), int64(5))
	f.Add(uint8(9), uint8(24), uint8(9), uint8(2), int64(6))
	f.Fuzz(func(t *testing.T, rows, cols, batch, mask uint8, seed int64) {
		K, N, M := int(rows%25), int(cols%25), int(batch%18)
		rng := rand.New(rand.NewSource(seed))
		w := mat.New(K, N)
		w.Randomize(rng, 1)
		x := mat.New(M, K)
		x.Randomize(rng, 1)
		psize := []int{2, 4, 8}[int(mask/4)%3]
		var set *pattern.Set
		switch mask % 4 {
		case 1:
			set = pattern.RandomSet(psize, 0.5, 3, rng)
		case 2, 3:
			p := pattern.NewPattern(psize)
			for i := range p.Bits {
				p.Bits[i] = mask % 2 // 2 keeps nothing, 3 keeps everything
			}
			set = &pattern.Set{Patterns: []pattern.Pattern{p}}
		}
		want := mat.New(M, N)
		testutil.NaiveMatMul(want, x, maskedWeights(w, set))

		for _, format := range kernel.Formats() {
			k, err := kernel.Build(format, w, kernel.Options{Set: set})
			if err != nil {
				t.Fatalf("%s: %v", format, err)
			}
			got := mat.New(M, N)
			got.Fill(1e9)
			k.MulInto(got, x)
			if !mat.Equal(got, want, 0) {
				t.Fatalf("%s, %dx%d weights, batch %d, mask %d: differs from the naive masked product",
					format, K, N, M, mask)
			}
		}
	})
}
