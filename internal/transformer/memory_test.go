package transformer_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rt3/internal/mat"
	"rt3/internal/transformer"
)

// liveHeap returns the live heap after two collections.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// heapGrowthCfg is the serving shape (dim 192, ffn 768) of
// TestActivationHeapFlatInDepth, at a given depth.
func heapGrowthCfg(enc, dec int) transformer.Config {
	return transformer.Config{Vocab: 64, Dim: 192, Heads: 4, FFHidden: 768, EncLayers: enc, DecLayers: dec, SeqLen: 128, Classes: 2}
}

// heapGrowthPrompts are four 128-token prompts: 512 packed rows.
func heapGrowthPrompts() [][]int { return raggedSeqs(64, []int{128, 128, 128, 128}, 43) }

// prefillHeapGrowth is the live heap one serving-mode Prefill of 512
// packed rows adds to a fresh model of the given depth, serving packed
// kernels as a replica does. The states' caches and the kernels' shared
// scratch are sized first by the same pass through a throwaway clone,
// so what is left is the model's own activation buffers.
func prefillHeapGrowth(t *testing.T, enc, dec int) float64 {
	prompts := heapGrowthPrompts()
	m := transformer.NewLMModel(heapGrowthCfg(enc, dec), rand.New(rand.NewSource(44)))
	warm := m.Clone()
	for _, mm := range []*transformer.LMModel{m, warm} {
		installSparseKernels(t, mm, 44)
		mm.SetBufferReuse(true)
	}
	states := newStates(m, len(prompts))
	warm.Prefill(states, prompts)
	before := liveHeap()
	m.Prefill(states, prompts)
	after := liveHeap()
	runtime.KeepAlive(m)
	runtime.KeepAlive(states)
	return after - before
}

// classifierHeapGrowth is prefillHeapGrowth for a serving-mode
// Classifier's ForwardBatch over the same 512 rows.
func classifierHeapGrowth(t *testing.T, layers int) float64 {
	seqs := heapGrowthPrompts()
	c := transformer.NewClassifier(heapGrowthCfg(layers, 0), rand.New(rand.NewSource(45)))
	warm := c.Clone()
	for _, cc := range []*transformer.Classifier{c, warm} {
		installSparseKernels(t, cc, 45)
		cc.SetBufferReuse(true)
	}
	warm.ForwardBatch(seqs)
	before := liveHeap()
	c.ForwardBatch(seqs)
	after := liveHeap()
	runtime.KeepAlive(c)
	return after - before
}

// TestActivationHeapFlatInDepth: with buffer reuse on, a model holds
// one set of activation buffers by role, not one per layer, so the live
// heap a 512-row pass adds does not grow with depth — within 15% from
// one layer per stack to four (an LMModel's Prefill) and from one layer
// to the paper's six (a Classifier's ForwardBatch).
func TestActivationHeapFlatInDepth(t *testing.T) {
	const bound = 1.15
	check := func(what string, shallow, deep float64) {
		t.Helper()
		t.Logf("%s: %.2f MB shallow, %.2f MB deep (%.2fx)", what, shallow/1e6, deep/1e6, deep/shallow)
		if shallow <= 0 || deep > bound*shallow {
			t.Errorf("%s: a 512-row pass grows the live heap by %.2f MB shallow and %.2f MB deep, want at most %.2fx", what, shallow/1e6, deep/1e6, bound)
		}
	}
	check("LMModel Prefill, (1,1) vs (4,4) layers", prefillHeapGrowth(t, 1, 1), prefillHeapGrowth(t, 4, 4))
	check("Classifier ForwardBatch, 1 vs 6 layers", classifierHeapGrowth(t, 1), classifierHeapGrowth(t, 6))
}

// TestServingSlotsMatchFreshBuffers: at depth 3, where several layers
// write every slot role, a model with buffer reuse on computes at
// tolerance 0 what the same model with fresh buffers computes:
// ForwardBatch, the memory EncodeBatch returns, a Prefill (whose top
// decoder layer runs on each prompt's last row only) followed by
// DecodeStep and DecodeChunk, and a Classifier's ForwardBatch. Passes of
// 300, then 5, then 300 packed rows shrink the shared slots and regrow
// them.
func TestServingSlotsMatchFreshBuffers(t *testing.T) {
	cfg := transformer.Config{Vocab: 50, Dim: 64, Heads: 4, FFHidden: 128, EncLayers: 3, DecLayers: 3, SeqLen: 128, Classes: 3}
	fresh := transformer.NewLMModel(cfg, rand.New(rand.NewSource(46)))
	served := fresh.Clone()
	served.SetBufferReuse(true)
	freshCls := transformer.NewClassifier(cfg, rand.New(rand.NewSource(47)))
	servedCls := freshCls.Clone()
	servedCls.SetBufferReuse(true)
	for pass, lens := range [][]int{{100, 80, 70, 50}, {3, 2}, {50, 90, 100, 60}} {
		same := func(what string, got, want []*mat.Matrix) {
			t.Helper()
			for i := range want {
				if !mat.Equal(got[i], want[i], 0) {
					t.Fatalf("pass %d (lengths %v), %s: sequence %d differs with buffer reuse on", pass, lens, what, i)
				}
			}
		}
		seqs := raggedSeqs(cfg.Vocab, lens, int64(48+pass))
		same("ForwardBatch", served.ForwardBatch(seqs), fresh.ForwardBatch(seqs))
		gotMem, _ := served.EncodeBatch(seqs)
		wantMem, _ := fresh.EncodeBatch(seqs)
		same("EncodeBatch", []*mat.Matrix{gotMem}, []*mat.Matrix{wantMem})

		servedStates, freshStates := newStates(served, len(seqs)), newStates(fresh, len(seqs))
		same("Prefill", served.Prefill(servedStates, seqs), fresh.Prefill(freshStates, seqs))
		tokens := make([]int, len(seqs))
		chunks := make([][]int, len(seqs))
		for step := 0; step < 2; step++ {
			for i := range tokens {
				tokens[i] = chunkTokens(i, step+1)[step]
			}
			same(fmt.Sprintf("DecodeStep %d", step), []*mat.Matrix{served.DecodeStep(servedStates, tokens)}, []*mat.Matrix{fresh.DecodeStep(freshStates, tokens)})
		}
		for i := range chunks {
			chunks[i] = chunkTokens(i+pass, 1+i%3)
		}
		same("DecodeChunk", served.DecodeChunk(servedStates, chunks), fresh.DecodeChunk(freshStates, chunks))
		same("Classifier ForwardBatch", servedCls.ForwardBatch(seqs), freshCls.ForwardBatch(seqs))
	}
}
