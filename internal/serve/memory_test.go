package serve_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rt3/internal/obs"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// TestEngineSharesOneBackbone: the backbone is in memory once. Every
// replica's prunable weights are the decoded bundle's matrices, no replica
// parameter carries a gradient, the dense references leave the shared
// backbone unwritten, and every replica still serves what the masked
// dense reference generates.
func TestEngineSharesOneBackbone(t *testing.T) {
	const replicas, genLen = 3, 6
	d, err := serve.Deploy(testSpec(5, 4), func(rng *rand.Rand) *transformer.LMModel {
		return transformer.NewLMModel(lmCfg, rng)
	}, replicas, serve.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng := d.Engine
	shared := func(when string) {
		t.Helper()
		for r, m := range d.Replicas {
			for j, l := range m.PrunableLinears() {
				if w := d.Bundle.Weights[j].Data; &l.W.Value.Data[0] != &w[0] {
					t.Fatalf("%s: replica %d linear %s holds its own weights, not the bundle's", when, r, l.W.Name)
				}
			}
		}
	}
	shared("after deploy")
	for r, m := range d.Replicas {
		for _, p := range m.Params() {
			if p.Grad != nil {
				t.Fatalf("replica %d parameter %s carries a gradient", r, p.Name)
			}
		}
	}

	before, err := d.Bundle.Encode()
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{5, 3, 8, 2, 9, 1}
	for lvl := 0; lvl < eng.NumLevels(); lvl++ {
		if _, err := eng.DenseForward(lvl, prompt); err != nil {
			t.Fatal(err)
		}
		ref, err := eng.DenseGenerate(lvl, prompt, nil, genLen, -1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.SwitchTo(lvl); err != nil {
			t.Fatal(err)
		}
		for r := range d.Replicas {
			_, streams := decodeCached(t, eng, r, [][]int{prompt}, genLen)
			if !slices.Equal(streams[0], ref) {
				t.Fatalf("level %d replica %d served %v, dense reference %v", lvl, r, streams[0], ref)
			}
		}
	}
	shared("after the dense references")
	after, err := d.Bundle.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("the dense references wrote into the shared backbone: the bundle encodes to different bytes")
	}
}

// TestReplicaHeapGrowth: at the reference shape, an extra replica costs
// its activation buffers and its unpruned layers, not another backbone
// and a set of gradients (about 36 MB when each replica held both).
func TestReplicaHeapGrowth(t *testing.T) {
	const maxPerReplica = 8 << 20
	live := func(replicas int) float64 {
		d, err := serve.Deploy(serve.DeploySpec{
			Seed: refSeed, Levels: refLevels, Sparsities: refSparsity, PSize: refPSize, Patterns: refPatterns,
		}, func(rng *rand.Rand) *transformer.LMModel {
			return transformer.NewLMModel(refConfig, rng)
		}, replicas, serve.EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(d)
		return float64(ms.HeapAlloc)
	}
	one := live(1)
	four := live(4)
	per := (four - one) / 3
	t.Logf("live heap %.1f MB with 1 replica, %.1f MB with 4: %.2f MB per extra replica", one/1e6, four/1e6, per/1e6)
	if per > maxPerReplica {
		t.Fatalf("each extra replica grows the live heap by %.1f MB, want at most %d MB", per/1e6, maxPerReplica>>20)
	}
}

// TestLevelBuildSeconds: the engine exposes each level's share of its
// build, one series per level, and the shares fit inside the whole.
func TestLevelBuildSeconds(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "")
	reg := obs.NewRegistry()
	eng.RegisterMetrics(reg)
	snap := reg.Snapshot()
	var sum float64
	for lvl := 0; lvl < eng.NumLevels(); lvl++ {
		s, ok := snap[`rt3_level_build_seconds{level="`+eng.LevelName(lvl)+`"}`]
		if !ok || !(s > 0) {
			t.Fatalf("rt3_level_build_seconds for level %s = %v (present %v), want the level's build time", eng.LevelName(lvl), s, ok)
		}
		sum += s
	}
	n := 0
	for k := range snap {
		if strings.HasPrefix(k, "rt3_level_build_seconds{") {
			n++
		}
	}
	if n != eng.NumLevels() {
		t.Fatalf("%d rt3_level_build_seconds series, want one per level (%d)", n, eng.NumLevels())
	}
	if total := snap["rt3_engine_build_seconds"]; sum > total {
		t.Fatalf("level build times sum to %v s, more than the engine build's %v s", sum, total)
	}
}
