package serve_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rt3/internal/deploy"
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

// BenchmarkSetup times the deploy path of the reference deployment one
// stage at a time: encoding the bundle, decoding it, and building the
// engine (every level's kernels for every prunable linear, plus the
// unpruned ones). Each stage reports the median of its iterations as
// p50-ms beside the mean ns/op.
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
	stages := []struct {
		name string
		run  func() error
	}{
		{"encode", func() error { _, err := bundle.Encode(); return err }},
		{"decode", func() error { _, err := deploy.Decode(data); return err }},
		{"engine", func() error {
			eng, err := serve.NewEngineConfigured(decoded, []serve.Model{model}, rtswitch.DefaultSwitchCostModel(), serve.EngineConfig{})
			if err == nil {
				eng.Close()
			}
			return err
		}},
	}
	for _, st := range stages {
		b.Run(st.name, func(b *testing.B) {
			ms := make([]float64, 0, b.N)
			for i := 0; i < b.N; i++ {
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
