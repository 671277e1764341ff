package mat_test

import (
	"math"
	"math/rand"
	"testing"

	"rt3/internal/mat"
	"rt3/internal/testutil"
)

// ulps returns |got - want| in units of want's last place.
func ulps(got, want float64) float64 {
	return math.Abs(got-want) / (math.Nextafter(want, math.Inf(1)) - want)
}

// TestExpAccuracy bounds the repository's exp against math.Exp: within 4
// ulp over its whole finite range and over the range softmax and GELU
// feed it (measured worst case 2), and the contract at the edges — +0
// below -708, +Inf above 709, NaN through, exact at ±0.
func TestExpAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(193))
	n := 1 << 21
	if testing.Short() {
		n = 1 << 17
	}
	worst, at := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := -708 + 1417*rng.Float64()
		if i%2 == 0 {
			x = -40 + 50*rng.Float64()
		}
		if u := ulps(mat.Exp(x), math.Exp(x)); u > worst {
			worst, at = u, x
		}
	}
	t.Logf("worst case %.1f ulp from math.Exp, at %v", worst, at)
	if worst > 4 {
		t.Fatalf("Exp(%v) is %.1f ulp from math.Exp, bound 4", at, worst)
	}
	for _, c := range []struct{ x, want float64 }{
		{math.Inf(-1), 0}, {-1e300, 0}, {-745, 0}, {math.Nextafter(-708, -1e9), 0},
		{math.Nextafter(709, 1e9), math.Inf(1)}, {709.5, math.Inf(1)}, {math.Inf(1), math.Inf(1)},
		{0, 1}, {math.Copysign(0, -1), 1}, {5e-324, 1}, {-1e-17, 1},
	} {
		if got := mat.Exp(c.x); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("Exp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	for _, x := range []float64{-708, 709} {
		if u := ulps(mat.Exp(x), math.Exp(x)); u > 4 {
			t.Errorf("Exp(%v) is %.1f ulp from math.Exp", x, u)
		}
	}
	nan := math.Float64frombits(0x7ff8000000000123)
	if got := mat.Exp(nan); math.Float64bits(got) != math.Float64bits(nan) {
		t.Errorf("Exp(NaN) = %x, want the NaN it was given", math.Float64bits(got))
	}
}

// TestExpMatchesNaiveReference: the scalar definition, the slice form
// (the assembly kernel where there is one) and testutil.NaiveExp — which
// restates the polynomial with other means of rounding and scaling — give
// the same bits, so the naive attention reference really is independent
// of the core and still exact.
func TestExpMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(194))
	src := make([]float64, 1<<16)
	for i := range src {
		switch i % 4 {
		case 0:
			src[i] = -760 + 1480*rng.Float64()
		case 1:
			src[i] = math.Float64frombits(rng.Uint64())
		default:
			src[i] = -40 + 50*rng.Float64()
		}
	}
	dst := make([]float64, len(src))
	mat.ExpSub(dst, src, 0)
	for i, x := range src {
		want := math.Float64bits(testutil.NaiveExp(x))
		if got := math.Float64bits(mat.Exp(x)); got != want {
			t.Fatalf("Exp(%v) = %x, naive reference %x", x, got, want)
		}
		// the slice form subtracts its shift first, which quiets a
		// signalling NaN: compare NaNs as NaNs
		if got := math.Float64bits(dst[i]); got != want && !(x != x && dst[i] != dst[i]) {
			t.Fatalf("ExpSub element %d (%v) = %x, naive reference %x", i, x, got, want)
		}
	}
}

// expGolden is 64 (input bits, Exp bits) pairs recorded when the
// definition was fixed: the special values, the reduction's edges, the
// range softmax and GELU use and the whole finite range.
var expGolden = [64][2]uint64{
	{0x7ff8000000000001, 0x7ff8000000000001}, // NaN
	{0x7ff0000000000000, 0x7ff0000000000000}, // +Inf
	{0xfff0000000000000, 0x0000000000000000}, // -Inf
	{0x0000000000000000, 0x3ff0000000000000}, // 0
	{0x8000000000000000, 0x3ff0000000000000}, // -0
	{0xc086200000000000, 0x0017c8ab2288c9ac}, // -708
	{0x4086280000000000, 0x7fdd422d2be5dc9b}, // 709
	{0xc086200000000001, 0x0000000000000000}, // -708.0000000000001
	{0x4086280000000001, 0x7ff0000000000000}, // 709.0000000000001
	{0x3ff0000000000000, 0x4005bf0a8b14576a}, // 1
	{0xbff0000000000000, 0x3fd78b56362cef38}, // -1
	{0x3fe0000000000000, 0x3ffa61298e1e069c}, // 0.5
	{0x3fd62e42fefa39ef, 0x3ff6a09e667f3bcc}, // 0.34657359027997264
	{0xbfd62e42fefa39ef, 0x3fe6a09e667f3bcc}, // -0.34657359027997264
	{0x01a56e1fc2f8f359, 0x3ff0000000000000}, // 1e-300
	{0xbc670ef54646d497, 0x3ff0000000000000}, // -1e-17
	{0x401655d95dd4c76d, 0x4070a1734232af87}, // 5.583837
	{0xc0343876c050bd88, 0x3e1c66c90936daa8}, // -20.220562
	{0x4007ed97b30f8c65, 0x4033e7e39f462060}, // 2.991012
	{0xc00f02e3c536d656, 0x3f9538f42ec89986}, // -3.876411
	{0xc03e4d45a5fc7e6b, 0x3d337a0b4af84dec}, // -30.301844
	{0xc020dc37a3db3bfb, 0x3f2c997a655623de}, // -8.430112
	{0xc03bdafa5093964a, 0x3d6c1cfe30e84c44}, // -27.855382
	{0xc02c2e99a62ed352, 0x3ea97960ba6f2d9e}, // -14.091016
	{0xc020499dcb5781c7, 0x3f330a63f28690bf}, // -8.143782
	{0xc035aaaf251c193b, 0x3dfac032e3262eee}, // -21.666735
	{0xc02330780fdc1616, 0x3f11d981e6e326f1}, // -9.594666
	{0x401548943e100608, 0x4069920774140008}, // 5.320878
	{0xc04076a70d1fa333, 0x3cf692427e701fec}, // -32.926973
	{0x40151ce358298cc1, 0x4068809ab1fd7a07}, // 5.278211
	{0xc018865d7cb2d906, 0x3f61cf12ebb3d689}, // -6.131216
	{0x40206eb0d9513f8e, 0x40ace8c6bc4e9d8e}, // 8.216193
	{0xc03ccd81adea8976, 0x3d55cd5c27d91550}, // -28.80276
	{0xc02430b1dd5d3dc9, 0x3f05a4a6143e0109}, // -10.095107
	{0xc02fa34e9813879c, 0x3e821a13b5cb8a16}, // -15.818959
	{0x401a0f2becedd484, 0x4085188ed2690704}, // 6.514816
	{0xc04122798958d9b6, 0x3cd795c6f08d249e}, // -34.269334
	{0xc04007c50ce4ead1, 0x3d0ad66f461e60fb}, // -32.060701
	{0xbff9740b34e7685a, 0x3fca14af0e817379}, // -1.590831
	{0xc026b73de1e2de87, 0x3ee87d0360d0bf0c}, // -11.357894
	{0x4059c2b020c49ba6, 0x49393fdea55b5572}, // 103.042
	{0xc050da5e353f7cee, 0x39dad0fd70aa6dc3}, // -67.412
	{0x408557c8b4395810, 0x7d83ff676ff45bfa}, // 682.973
	{0x407936ed916872b0, 0x6450585a0e941550}, // 403.433
	{0xc04383126e978d50, 0x3c69ff360e0d1ff8}, // -39.024
	{0xc065788b43958106, 0x307248ffe2a32913}, // -171.767
	{0xc06e6ca3d70a3d71, 0x29fcf1e93f425ff0}, // -243.395
	{0xc08422a7ef9db22d, 0x05d57cc624757c32}, // -644.332
	{0xc04af6e978d4fdf4, 0x3b1256f76ab4e499}, // -53.929
	{0xc07adcfdf3b645a2, 0x192e1d2a817973fb}, // -429.812
	{0xc085afd916872b02, 0x015bccff20584dab}, // -693.981
	{0x4062aee978d4fdf4, 0x4d68d3cba32fe0c4}, // 149.466
	{0xc0836a126e978d50, 0x07ea38e7c711420c}, // -621.259
	{0x404329fbe76c8b44, 0x4363a3772348ad4b}, // 38.328
	{0xc08373f5c28f5c29, 0x07ce7994590e1ad6}, // -622.495
	{0x406f8b95810624dd, 0x56b0edc460b416e7}, // 252.362
	{0xc06783020c49ba5e, 0x2ef8e4d510dbccef}, // -188.094
	{0x40763d16872b020c, 0x60043548229de794}, // 355.818
	{0x405c03e76c8b4396, 0x4a09745a4a8d5818}, // 112.061
	{0x40809d4395810625, 0x6fe03a36f396e120}, // 531.658
	{0xc084e828f5c28f5c, 0x039c04050dee9d4c}, // -669.02
	{0xc06be6147ae147ae, 0x2bd00deaf4de53fa}, // -223.19
	{0x407c9ff7ced91687, 0x693aef84c1162f36}, // 457.998
	{0xc0777ac8b4395810, 0x1e103080a233b3e5}, // -375.674
}

// normGolden is the output of NormRow for normGoldenRow, recorded
// likewise: the returned inverse deviation, then the row.
var normGolden = [1 + mat.NormBlock]uint64{
	0x3ff89ef068593d1f,
	0xbff71f14d2f24d54, 0x3fd073d4f264e396, 0xbfca341634c5f6a0, 0x3ffcc4923d543556,
	0x3ff5f4d3dc94550a, 0xbffa04a472a0bd70, 0x3fe48383c6771a76, 0x3fb545ad98401af2,
	0xbfe0bc0766eca78b, 0x4001080f5e3e2317, 0xbff9115e82013bff, 0xc00270b2dbf99e5a,
	0x3fe3901c13dd677f, 0xbfb743f899135875, 0x4009021f9659146f, 0xbff445430113c902,
}

// normGoldenRow is one NormBlock-wide row problem in exactly
// representable numbers.
func normGoldenRow() (x, res, gamma, beta []float64) {
	const n = mat.NormBlock
	x, res, gamma, beta = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = float64((7*j)%11)/8 - 0.625
		res[j] = float64(j%5)/4 - 0.5
		gamma[j] = 1 + float64(j)/16
		beta[j] = 0.25 - float64(j)/32
	}
	return x, res, gamma, beta
}

// TestVectorMathGolden holds the scalar definition and the slice kernels
// to recorded bits. The same table must pass on the default build (the
// assembly) and under -tags purego (the portable loops), so the twins
// cannot drift apart across build tags, nor together from what was
// recorded.
func TestVectorMathGolden(t *testing.T) {
	src, dst := make([]float64, len(expGolden)), make([]float64, len(expGolden))
	for i, g := range expGolden {
		src[i] = math.Float64frombits(g[0])
		if got := math.Float64bits(mat.Exp(src[i])); got != g[1] {
			t.Errorf("Exp(%v) = %#016x, recorded %#016x", src[i], got, g[1])
		}
	}
	mat.ExpSub(dst, src, 0)
	for i, g := range expGolden {
		if got := math.Float64bits(dst[i]); got != g[1] {
			t.Errorf("ExpSub element %d (%v) = %#016x, recorded %#016x", i, src[i], got, g[1])
		}
	}

	x, res, gamma, beta := normGoldenRow()
	out, xhat := make([]float64, len(x)), make([]float64, len(x))
	got := []float64{mat.NormRow(out, xhat, x, res, gamma, beta, 1e-5)}
	got = append(got, out...)
	for i, v := range got {
		if math.Float64bits(v) != normGolden[i] {
			t.Errorf("NormRow value %d (0 is the inverse deviation) = %#016x, recorded %#016x", i, math.Float64bits(v), normGolden[i])
		}
	}
	want := make([]float64, len(x))
	testutil.NaiveLayerNorm(want, x, res, gamma, beta, 1e-5)
	for i, w := range want {
		if out[i] != w {
			t.Errorf("NormRow element %d = %v, naive reference %v", i, out[i], w)
		}
	}
}

// TestSoftmaxKeepsMaskedEntriesAtZero: an entry of -Inf (a masked score)
// beside finite ones comes out exactly +0 and takes no probability mass;
// rows of every length around the kernel's block sum to 1.
func TestSoftmaxKeepsMaskedEntriesAtZero(t *testing.T) {
	rng := rand.New(rand.NewSource(195))
	for n := 2; n <= 40; n++ {
		row := make([]float64, n)
		for i := range row {
			row[i] = rng.NormFloat64() * 3
		}
		masked := map[int]bool{rng.Intn(n): true, rng.Intn(n): true}
		if len(masked) == n {
			delete(masked, 0)
		}
		for i := range masked {
			row[i] = math.Inf(-1)
		}
		mat.Softmax(row, row)
		var sum float64
		for i, p := range row {
			if masked[i] && math.Float64bits(p) != 0 {
				t.Fatalf("%d entries: masked entry %d has probability %v", n, i, p)
			}
			if !masked[i] && !(p > 0) {
				t.Fatalf("%d entries: entry %d has probability %v", n, i, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("%d entries: probabilities sum to %v", n, sum)
		}
	}
}

// TestNormRowMatchesNaiveReference: the row kernel against the
// independent restatement of its reduction order, bit for bit, at widths
// on and off the NormBlock grid, with and without a residual.
func TestNormRowMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(196))
	for _, n := range []int{1, 5, 16, 24, 64, 192, 200} {
		for _, withRes := range []bool{true, false} {
			draw := func() []float64 {
				v := make([]float64, n)
				for i := range v {
					v[i] = rng.NormFloat64()
				}
				return v
			}
			x, gamma, beta := draw(), draw(), draw()
			var res []float64
			if withRes {
				res = draw()
			}
			out, xhat, want := make([]float64, n), make([]float64, n), make([]float64, n)
			mat.NormRow(out, xhat, x, res, gamma, beta, 1e-5)
			testutil.NaiveLayerNorm(want, x, res, gamma, beta, 1e-5)
			for i, w := range want {
				if out[i] != w {
					t.Fatalf("width %d, residual %v: element %d = %v, naive reference %v", n, withRes, i, out[i], w)
				}
			}
		}
	}
}
