package deploy_test

import (
	"math/rand"
	"testing"

	"rt3/internal/deploy"
	"rt3/internal/kernel"
	"rt3/internal/mat"
	"rt3/internal/pattern"
	"rt3/internal/sparse"
)

// TestBundleToExecutablePipeline walks the full deployment path: pack a
// backbone matrix and two pattern sets into a bundle, reload it, apply a
// loaded set to the loaded weights, pack the result into the pattern
// execution format, and verify the packed kernel agrees with masked
// dense execution — i.e. what a device would run after a level switch.
func TestBundleToExecutablePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := mat.New(12, 12)
	w.Randomize(rng, 1)

	sets := []*pattern.Set{
		pattern.GenerateSet(w, 4, 0.4, 2, rng),
		pattern.GenerateSet(w, 4, 0.75, 2, rng),
	}
	bundle := &deploy.Bundle{
		Weights:    []deploy.WeightMatrix{{Name: "w", Rows: 12, Cols: 12, Data: append([]float64{}, w.Data...)}},
		Sets:       sets,
		LevelNames: []string{"l6", "l3"},
	}
	data, err := bundle.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := deploy.Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	// device-side: reconstruct weights, switch to the energy-saving set
	wm := loaded.Weights[0]
	dw := mat.FromSlice(wm.Rows, wm.Cols, wm.Data)
	set := loaded.Sets[1]
	mask, choices := set.Apply(dw)
	masked := dw.Clone()
	masked.Hadamard(mask)

	bits := make([][]uint8, len(set.Patterns))
	for i, p := range set.Patterns {
		bits[i] = p.Bits
	}
	packed, err := sparse.NewPattern(dw, set.PSize(), bits, choices)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.New(3, 12)
	x.Randomize(rng, 1)
	want := mat.New(3, 12)
	mat.MatMul(want, x, masked)
	if !mat.Equal(kernel.Mul(packed, x), want, 1e-9) {
		t.Fatal("deployed pattern execution differs from masked dense execution")
	}

	// the switched section must be tiny relative to the bundle
	n, err := loaded.SetBytes(1)
	if err != nil {
		t.Fatal(err)
	}
	if n >= len(data)/4 {
		t.Fatalf("pattern-set section %dB not small vs bundle %dB", n, len(data))
	}
}
