package serve_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"rt3/internal/deploy"
	"rt3/internal/pattern"
	"rt3/internal/rtswitch"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// The reference deployment: the 192x768 encoder-decoder LM behind three
// levels of 8x8 pattern sets (4 patterns each) that the end-to-end
// benchmark serves, built from one seed.
var (
	refConfig = transformer.Config{
		Vocab: 512, Dim: 192, Heads: 4, FFHidden: 768,
		EncLayers: 2, DecLayers: 2, SeqLen: 256,
	}
	refLevels   = []string{"l6", "l4", "l3"}
	refSparsity = []float64{0.3, 0.5, 0.7}
)

const (
	refPSize    = 8
	refPatterns = 4
	refSeed     = 20210705

	// refBundleBytes and refBundleSHA256 pin the encoding of the
	// reference bundle: any change to the encoder must keep both.
	refBundleBytes  = 16516728
	refBundleSHA256 = "9866effb3bf6f8e6838cd737766d3148c0022c88f300c1b2bed1b440e4d97684"
)

// referenceBundle deploys the reference model through serve.Deploy and
// returns the deployment's replica and decoded bundle.
func referenceBundle() (serve.Model, *deploy.Bundle) {
	d, err := serve.Deploy(serve.DeploySpec{
		Seed: refSeed, Levels: refLevels, Sparsities: refSparsity, PSize: refPSize, Patterns: refPatterns,
	}, func(rng *rand.Rand) *transformer.LMModel {
		return transformer.NewLMModel(refConfig, rng)
	}, 1, serve.EngineConfig{})
	if err != nil {
		panic(err)
	}
	return d.Replicas[0], d.Bundle
}

// TestReferenceBundleBytes pins the encoder's output byte for byte, and
// holds WriteTo and Decode to it: WriteTo writes the same bytes, and the
// decoded bundle encodes back to them.
func TestReferenceBundleBytes(t *testing.T) {
	_, b := referenceBundle()
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if len(data) != refBundleBytes || hex.EncodeToString(sum[:]) != refBundleSHA256 {
		t.Fatalf("reference bundle is %d bytes, SHA-256 %x; want %d bytes, %s",
			len(data), sum, refBundleBytes, refBundleSHA256)
	}
	var buf bytes.Buffer
	n, err := b.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) || !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("WriteTo wrote %d bytes (reported %d) that differ from Encode's %d", buf.Len(), n, len(data))
	}
	got, err := deploy.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("the decoded reference bundle encodes to different bytes")
	}
}

// TestBundleFromModelSharesWeights: the bundle borrows the model's
// weights instead of copying them, so building it allocates no second
// backbone.
func TestBundleFromModelSharesWeights(t *testing.T) {
	m := transformer.NewLMModel(lmCfg, rand.New(rand.NewSource(7)))
	set := pattern.RandomSet(4, 0.5, 3, rand.New(rand.NewSource(7)))
	b := serve.BundleFromModel(m, []*pattern.Set{set}, []string{"l6"})
	lins := m.PrunableLinears()
	if len(b.Weights) != len(lins) {
		t.Fatalf("bundle holds %d weights, model has %d prunable linears", len(b.Weights), len(lins))
	}
	for j, l := range lins {
		w := b.Weights[j]
		if w.Name != l.W.Name || len(w.Data) != len(l.W.Value.Data) || &w.Data[0] != &l.W.Value.Data[0] {
			t.Fatalf("bundle weight %d (%s) is not linear %s's own storage", j, w.Name, l.W.Name)
		}
	}
}

// TestModelAllocatesNoGradients: drawing the reference model allocates
// its parameters' values and little else (at most 1.05x their bytes),
// and no parameter holds a gradient until a backward pass accumulates
// into it.
func TestModelAllocatesNoGradients(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := transformer.NewLMModel(refConfig, rand.New(rand.NewSource(refSeed)))
	runtime.ReadMemStats(&after)
	values := 0
	for _, p := range m.Params() {
		values += 8 * len(p.Value.Data)
		if p.Grad != nil {
			t.Fatalf("fresh parameter %s holds a gradient", p.Name)
		}
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewLMModel allocated %d bytes for %d bytes of values (%.3fx)", alloc, values, float64(alloc)/float64(values))
	if float64(alloc) > 1.05*float64(values) {
		t.Fatalf("NewLMModel allocated %d bytes, over 1.05x its %d bytes of values", alloc, values)
	}
	_, grad := m.Loss([]int{5, 3, 8}, []int{3, 8, 2})
	m.Backward(grad)
	for _, p := range m.Params() {
		if p.Grad == nil {
			t.Fatalf("parameter %s holds no gradient after a backward pass", p.Name)
		}
	}
}

// BenchmarkSetup times the deploy path of the reference deployment one
// stage at a time: drawing the model, encoding the bundle, decoding it,
// building the engine (the first level's kernels for every prunable
// linear, plus the unpruned ones), and a fresh engine's first switch to
// l3 (that level's build, which SwitchTo runs on first use; the engine's
// own build is outside the timed region). Each stage reports the median
// of its iterations as p50-ms beside the mean ns/op.
func BenchmarkSetup(b *testing.B) {
	model, bundle := referenceBundle()
	data, err := bundle.Encode()
	if err != nil {
		b.Fatal(err)
	}
	decoded, err := deploy.Decode(data)
	if err != nil {
		b.Fatal(err)
	}
	newEngine := func() (*serve.Engine, error) {
		return serve.NewEngineConfigured(decoded, []serve.Model{model}, rtswitch.DefaultSwitchCostModel(), serve.EngineConfig{})
	}
	var fresh *serve.Engine
	stages := []struct {
		name  string
		setup func() error // before the timed region, when not nil
		run   func() error
	}{
		{"model", nil, func() error { transformer.NewLMModel(refConfig, rand.New(rand.NewSource(refSeed))); return nil }},
		{"encode", nil, func() error { _, err := bundle.Encode(); return err }},
		{"decode", nil, func() error { _, err := deploy.Decode(data); return err }},
		{"engine", nil, func() error {
			eng, err := newEngine()
			if err == nil {
				eng.Close()
			}
			return err
		}},
		{"switch", func() (err error) { fresh, err = newEngine(); return err }, func() error {
			defer fresh.Close()
			_, err := fresh.SwitchTo(2)
			return err
		}},
	}
	for _, st := range stages {
		b.Run(st.name, func(b *testing.B) {
			ms := make([]float64, 0, b.N)
			for i := 0; i < b.N; i++ {
				if st.setup != nil {
					if err := st.setup(); err != nil {
						b.Fatal(err)
					}
				}
				t0 := time.Now()
				if err := st.run(); err != nil {
					b.Fatal(err)
				}
				ms = append(ms, float64(time.Since(t0).Microseconds())/1e3)
			}
			slices.Sort(ms)
			b.ReportMetric(ms[len(ms)/2], "p50-ms")
		})
	}
}
