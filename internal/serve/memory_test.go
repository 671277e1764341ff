package serve_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rt3/internal/kernel"
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

// TestLevelBuildSeconds: the engine builds a level's kernels the first
// time it serves that level, then keeps them. After construction only the
// first level's series reads a build time; a first switch builds one
// kernel per prunable linear, a repeat switch builds none, and once every
// level has been served every series reads its build.
func TestLevelBuildSeconds(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "")
	reg := obs.NewRegistry()
	eng.RegisterMetrics(reg)
	kernel.RegisterMetrics(reg)
	series := func(lvl int) float64 {
		t.Helper()
		s, ok := reg.Snapshot()[`rt3_level_build_seconds{level="`+eng.LevelName(lvl)+`"}`]
		if !ok {
			t.Fatalf("no rt3_level_build_seconds series for level %s", eng.LevelName(lvl))
		}
		return s
	}
	builds := func() float64 { return reg.Snapshot()["rt3_kernel_builds_total"] }

	snap := reg.Snapshot()
	n := 0
	for k := range snap {
		if strings.HasPrefix(k, "rt3_level_build_seconds{") {
			n++
		}
	}
	if n != eng.NumLevels() {
		t.Fatalf("%d rt3_level_build_seconds series, want one per level (%d)", n, eng.NumLevels())
	}
	if s := series(0); !(s > 0) || s > snap["rt3_engine_build_seconds"] {
		t.Fatalf("level %s built in %v s after construction, want a build time inside the engine build's %v s",
			eng.LevelName(0), s, snap["rt3_engine_build_seconds"])
	}
	for lvl := 1; lvl < eng.NumLevels(); lvl++ {
		if s := series(lvl); s != 0 {
			t.Fatalf("level %s reads %v s after construction, want 0: it is not built until its first switch", eng.LevelName(lvl), s)
		}
	}

	for lvl := 1; lvl < eng.NumLevels(); lvl++ {
		before := builds()
		if _, err := eng.SwitchTo(lvl); err != nil {
			t.Fatal(err)
		}
		if got := builds() - before; got != float64(eng.PrunableLinearCount()) {
			t.Fatalf("first switch to level %s built %v kernels, want %d", eng.LevelName(lvl), got, eng.PrunableLinearCount())
		}
		before = builds()
		for _, to := range []int{0, lvl} {
			if _, err := eng.SwitchTo(to); err != nil {
				t.Fatal(err)
			}
		}
		if got := builds() - before; got != 0 {
			t.Fatalf("repeat switches to built levels built %v kernels, want 0", got)
		}
	}
	for lvl := 0; lvl < eng.NumLevels(); lvl++ {
		if s := series(lvl); !(s > 0) {
			t.Fatalf("level %s reads %v s after every level was served, want its build time", eng.LevelName(lvl), s)
		}
	}
}
