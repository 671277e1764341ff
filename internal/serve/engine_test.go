package serve_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"rt3/internal/kernel"
	"rt3/internal/mat"
	"rt3/internal/nn"
	"rt3/internal/obs"
	"rt3/internal/pattern"
	"rt3/internal/rtswitch"
	"rt3/internal/serve"
	"rt3/internal/sparse"
	"rt3/internal/testutil"
	"rt3/internal/transformer"
)

// newTestModel builds a fresh replica with the newTestDeployment
// topology; the engine overwrites its weights from the bundle.
func newTestModel() serve.Model {
	return transformer.NewClassifier(transformer.Config{
		Vocab: 24, Dim: 8, Heads: 2, FFHidden: 16, EncLayers: 2, SeqLen: 10, Classes: 3,
	}, rand.New(rand.NewSource(3)))
}

// forward runs one sequence on replica 0 as a batch of one.
func forward(eng *serve.Engine, ids []int) *mat.Matrix {
	return eng.ForwardBatch(0, [][]int{ids})[0]
}

// TestEngineFailedSwitchRestoresKernels exercises the restore path: the
// engine validates a switch before it builds or installs anything, so
// when it refuses one (here an out-of-range level) it must keep serving
// the previously active level with consistent kernels — level
// unchanged, packed output still element-identical to masked dense
// execution.
func TestEngineFailedSwitchRestoresKernels(t *testing.T) {
	eng, _ := newTestDeployment(t, 1)
	if _, err := eng.SwitchTo(1); err != nil {
		t.Fatal(err)
	}
	seqs := randSeqs(3, 10, 24, 41)
	before := make([]*mat.Matrix, len(seqs))
	for i, ids := range seqs {
		before[i] = forward(eng, ids)
	}

	if _, err := eng.SwitchTo(eng.NumLevels()); err == nil {
		t.Fatal("out-of-range switch accepted")
	}
	if got := eng.Level(); got != 1 {
		t.Fatalf("level %d after failed switch, want 1", got)
	}
	for i, ids := range seqs {
		got := forward(eng, ids)
		if !mat.Equal(got, before[i], 0) {
			t.Fatalf("request %d: output changed after failed switch", i)
		}
		ref, err := eng.DenseForward(1, ids)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.Equal(got, ref, 1e-9) {
			t.Fatalf("request %d: packed forward differs from dense after failed switch", i)
		}
	}
	// the engine must still switch cleanly afterwards
	if _, err := eng.SwitchTo(2); err != nil {
		t.Fatal(err)
	}
	if eng.Level() != 2 {
		t.Fatalf("level %d after recovery switch, want 2", eng.Level())
	}
}

// TestEngineFirstSwitchFailures: a level's first switch builds it, and
// a failure on that path leaves the engine serving the level it was on.
// A build that fails keeps nothing, so the next switch to that level
// builds again; a fault injected before a first switch fires after the
// build, so the next switch installs the level without a second build.
func TestEngineFirstSwitchFailures(t *testing.T) {
	errBuild := errors.New("test: no kernel for this set")
	var failSet *pattern.Set
	kernel.Register("test-failing-level", func(w *mat.Matrix, opts kernel.Options) (kernel.Kernel, error) {
		if opts.Set != nil && opts.Set == failSet {
			return nil, errBuild
		}
		return kernel.Build("pattern", w, opts)
	})
	t.Cleanup(func() {
		kernel.Register("test-failing-level", func(w *mat.Matrix, opts kernel.Options) (kernel.Kernel, error) {
			return kernel.Build("pattern", w, opts)
		})
	})
	deployFormat := func(format string) *serve.Deployment {
		d, err := serve.Deploy(testSpec(3, 4), func(rng *rand.Rand) *transformer.Classifier {
			return transformer.NewClassifier(transformer.Config{
				Vocab: 24, Dim: 8, Heads: 2, FFHidden: 16, EncLayers: 2, SeqLen: 10, Classes: 3,
			}, rng)
		}, 1, serve.EngineConfig{Format: format})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	seqs := randSeqs(3, 10, 24, 47)
	servesDense := func(eng *serve.Engine, lvl int) {
		t.Helper()
		if got := eng.Level(); got != lvl {
			t.Fatalf("engine on level %d, want %d", got, lvl)
		}
		for i, ids := range seqs {
			ref, err := eng.DenseForward(lvl, ids)
			if err != nil {
				t.Fatal(err)
			}
			if !mat.Equal(forward(eng, ids), ref, 0) {
				t.Fatalf("level %d request %d: packed output differs from the masked dense reference", lvl, i)
			}
		}
	}
	reg := obs.NewRegistry()
	kernel.RegisterMetrics(reg)
	builds := func() float64 { return reg.Snapshot()["rt3_kernel_builds_total"] }

	d := deployFormat("test-failing-level")
	eng := d.Engine
	failSet = d.Bundle.Sets[2]
	for try := 0; try < 2; try++ {
		if _, err := eng.SwitchTo(2); !errors.Is(err, errBuild) {
			t.Fatalf("switch %d to a level whose build fails returned %v, want the build error", try, err)
		}
		servesDense(eng, 0)
	}
	if _, err := eng.SwitchTo(1); err != nil {
		t.Fatal(err)
	}
	servesDense(eng, 1)

	eng = deployFormat("").Engine
	errFault := errors.New("test: injected switch fault")
	eng.InjectSwitchError(errFault)
	before := builds()
	if _, err := eng.SwitchTo(1); !errors.Is(err, errFault) {
		t.Fatalf("switch with an injected fault returned %v, want the fault", err)
	}
	servesDense(eng, 0)
	if got := builds() - before; got != float64(eng.PrunableLinearCount()) {
		t.Fatalf("the faulted first switch built %v kernels, want %d", got, eng.PrunableLinearCount())
	}
	before = builds()
	if _, err := eng.SwitchTo(1); err != nil {
		t.Fatal(err)
	}
	if got := builds() - before; got != 0 {
		t.Fatalf("the switch after the fault built %v kernels, want 0: the level was already built", got)
	}
	servesDense(eng, 1)
}

// TestEngineRejectsBadBundles: construction validates the bundle and
// resolves every level name against Table I before it builds anything.
func TestEngineRejectsBadBundles(t *testing.T) {
	_, bundle := newTestDeployment(t, 1)
	unknown := *bundle
	unknown.LevelNames = []string{"l6", "l9", "l3"}
	short := *bundle
	short.Sets = bundle.Sets[:2]
	if _, err := serve.NewEngineConfigured(&unknown, []serve.Model{newTestModel()},
		rtswitch.DefaultSwitchCostModel(), serve.EngineConfig{}); err == nil || !strings.Contains(err.Error(), `"l9"`) {
		t.Fatalf("a bundle with level l9 returned %v, want the unknown-level error", err)
	}
	want := short.Validate()
	if want == nil {
		t.Fatal("a bundle with two sets for three levels passes Validate")
	}
	if _, err := serve.NewEngineConfigured(&short, []serve.Model{newTestModel()},
		rtswitch.DefaultSwitchCostModel(), serve.EngineConfig{}); err == nil || err.Error() != want.Error() {
		t.Fatalf("a bundle that fails Validate returned %v, want %v", err, want)
	}
}

// TestEngineInjectSwitchError: an armed fault fails exactly one switch
// that would change the level, and leaves the engine on the level it
// was on. A same-level call and an out-of-range call leave it armed,
// the switch after the faulted one lands at the modeled cost, and a nil
// error disarms.
func TestEngineInjectSwitchError(t *testing.T) {
	eng, bundle := newTestDeployment(t, 1)
	injected := errors.New("test: dma abort")
	eng.InjectSwitchError(injected)
	if cost, err := eng.SwitchTo(0); err != nil || cost != 0 {
		t.Fatalf("same-level call: cost %g err %v, want 0 and no error", cost, err)
	}
	if _, err := eng.SwitchTo(eng.NumLevels()); err == nil || errors.Is(err, injected) {
		t.Fatalf("out-of-range call returned %v, want the range error", err)
	}
	if _, err := eng.SwitchTo(1); !errors.Is(err, injected) {
		t.Fatalf("armed fault not surfaced: %v", err)
	}
	if got := eng.Level(); got != 0 {
		t.Fatalf("faulted switch moved the engine to level %d", got)
	}
	setBytes, err := bundle.SetBytes(1)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := eng.SwitchTo(1)
	if want := rtswitch.DefaultSwitchCostModel().PatternSwitchMS(setBytes); err != nil || cost != want {
		t.Fatalf("switch after the fault: cost %g err %v, want %g: the fault is not one-shot", cost, err, want)
	}
	if got := eng.Level(); got != 1 {
		t.Fatalf("engine on level %d after the switch, want 1", got)
	}
	eng.InjectSwitchError(errors.New("test: stale fault"))
	eng.InjectSwitchError(nil)
	if _, err := eng.SwitchTo(2); err != nil {
		t.Fatalf("disarmed fault still fired: %v", err)
	}
}

// TestServerSwitchFaultRace arms and disarms the switch fault from one
// goroutine while another walks Server.SwitchTo along the level ladder,
// the way the chaos injector meets a level policy on a live node. Every
// switch lands or fails with the injected fault, the engine stays on the
// last level that landed, and the recorder counts exactly the switches
// that landed. Run under -race in CI.
func TestServerSwitchFaultRace(t *testing.T) {
	eng, _ := newTestDeployment(t, 1)
	s := serve.New(eng, serve.Config{})
	s.Start()
	defer s.Stop()
	injected := errors.New("test: injected switch fault")
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				eng.InjectSwitchError(injected)
			} else {
				eng.InjectSwitchError(nil)
			}
			runtime.Gosched()
		}
	}()
	level, landed := 0, 0
	for i := 0; i < 300; i++ {
		target := (level + 1) % eng.NumLevels()
		switch _, err := s.SwitchTo(target); {
		case err == nil:
			level, landed = target, landed+1
		case !errors.Is(err, injected):
			t.Fatalf("switch %d to level %d: %v", i, target, err)
		}
		if got := eng.Level(); got != level {
			t.Fatalf("switch %d: engine on level %d, want %d", i, got, level)
		}
	}
	close(stop)
	<-done
	eng.InjectSwitchError(nil)
	if _, err := s.SwitchTo((level + 1) % eng.NumLevels()); err != nil {
		t.Fatalf("switch after disarming: %v", err)
	}
	if n, _, _ := s.Recorder().Switches(); n != landed+1 {
		t.Fatalf("recorder counts %d switches, %d landed", n, landed+1)
	}
	t.Logf("%d of 300 switches landed under the fault", landed)
}

// TestEngineAlternateFormats deploys the same bundle through the
// non-default registry format: the unified kernel API means any format
// serves an RT3 level with output identical to masked dense execution.
func TestEngineAlternateFormats(t *testing.T) {
	for _, format := range []string{"dense"} {
		format := format
		t.Run(format, func(t *testing.T) {
			eng, bundle := newTestDeployment(t, 1)
			alt, err := serve.NewEngineConfigured(bundle, []serve.Model{newTestModel()},
				rtswitch.DefaultSwitchCostModel(), serve.EngineConfig{Format: format})
			if err != nil {
				t.Fatal(err)
			}
			if alt.Format() != format {
				t.Fatalf("Format() = %q", alt.Format())
			}
			seqs := randSeqs(3, 10, 24, 43)
			for lvl := 0; lvl < alt.NumLevels(); lvl++ {
				if _, err := alt.SwitchTo(lvl); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.SwitchTo(lvl); err != nil {
					t.Fatal(err)
				}
				for _, ids := range seqs {
					got := forward(alt, ids)
					want := forward(eng, ids)
					if !mat.Equal(got, want, 1e-9) {
						t.Fatalf("level %d: %s engine differs from pattern engine", lvl, format)
					}
				}
			}
		})
	}
}

// wideDeployment deploys a classifier wide enough (dim 96, ffn 384) for
// a 256-row batch to fan its FFN products, GELU and attention out
// across the mat.Fork helpers, in the given kernel format on the given
// number of replicas; wideBatch is such a batch.
func wideDeployment(t *testing.T, format string, replicas int) *serve.Engine {
	t.Helper()
	d, err := serve.Deploy(testSpec(5, 8), func(rng *rand.Rand) *transformer.Classifier {
		return transformer.NewClassifier(transformer.Config{
			Vocab: 24, Dim: 96, Heads: 4, FFHidden: 384, EncLayers: 1, SeqLen: 64, Classes: 3,
		}, rng)
	}, replicas, serve.EngineConfig{Format: format})
	if err != nil {
		t.Fatal(err)
	}
	return d.Engine
}

func wideBatch(seed int64) [][]int { return randSeqs(4, 64, 24, seed) }

// TestEngineForkMatchesInline checks intra-pass parallelism end to end:
// at every level, a 256-row fused batch that fans out across the
// mat.Fork helpers is bit-identical to its inline run (GOMAXPROCS 1).
func TestEngineForkMatchesInline(t *testing.T) {
	eng := wideDeployment(t, "", 1)
	defer eng.Close()
	seqs := wideBatch(47)
	for lvl := 0; lvl < eng.NumLevels(); lvl++ {
		if _, err := eng.SwitchTo(lvl); err != nil {
			t.Fatal(err)
		}
		testutil.Procs(t, 1)
		want := eng.ForwardBatch(0, seqs)
		testutil.Procs(t, 4)
		before := mat.ForkStats().Regions
		got := eng.ForwardBatch(0, seqs)
		if after := mat.ForkStats().Regions; after == before {
			t.Fatalf("level %d: a 256-row batch fanned nothing out", lvl)
		}
		for i := range want {
			if !mat.Equal(got[i], want[i], 0) {
				t.Fatalf("level %d sequence %d: forked batch differs from inline", lvl, i)
			}
		}
	}
}

// wrapLog is what every kernel of the "test-logging" format writes on
// each MulInto, unsynchronized — the way the benchmark's timing shim
// appends its spans.
type wrapLog struct {
	calls int
	gids  map[string]bool // calling goroutines, by stack header
}

type loggingKernel struct {
	kernel.Kernel
	log *wrapLog
}

func (k *loggingKernel) MulInto(dst, x *mat.Matrix) {
	k.log.calls++
	var buf [32]byte
	k.log.gids[string(buf[:runtime.Stack(buf[:], false)])] = true // "goroutine N [running]:..."
	k.Kernel.MulInto(dst, x)
}

// TestEngineWrapperFormatSingleCaller is the regression test for the
// wrapper race: fan-out happens beneath Kernel.MulInto, so a registered
// format that wraps another kernel sees exactly one call per product of
// a fused batch, all from the goroutine that called ForwardBatch — even
// when the batch is large enough to use every core. (The row pool this
// replaced split the batch outside the kernel and called the wrapper
// once per worker, concurrently.) Run under -race in CI.
func TestEngineWrapperFormatSingleCaller(t *testing.T) {
	log := &wrapLog{gids: map[string]bool{}}
	kernel.Register("test-logging", func(w *mat.Matrix, opts kernel.Options) (kernel.Kernel, error) {
		k, err := kernel.Build("pattern", w, opts)
		return &loggingKernel{Kernel: k, log: log}, err
	})
	// the registry has no unregister: leave a plain alias behind for the
	// tests that deploy every kernel.Formats() entry
	t.Cleanup(func() {
		kernel.Register("test-logging", func(w *mat.Matrix, opts kernel.Options) (kernel.Kernel, error) {
			return kernel.Build("pattern", w, opts)
		})
	})
	testutil.Procs(t, 4)
	eng := wideDeployment(t, "test-logging", 1)
	defer eng.Close()
	before := mat.ForkStats().Regions
	eng.ForwardBatch(0, wideBatch(53))
	if after := mat.ForkStats().Regions; after == before {
		t.Fatal("a 256-row batch fanned nothing out: the test no longer reaches the executor")
	}
	if products := eng.PrunableLinearCount(); log.calls != products {
		t.Fatalf("wrapper saw %d MulInto calls for %d products", log.calls, products)
	}
	if len(log.gids) != 1 {
		t.Fatalf("wrapper was called from %d goroutines: %v", len(log.gids), log.gids)
	}
}

// TestEngineConcurrentReplicasShareExecutor: two replicas run 256-row
// batches at the same time, which is what the server's worker pool
// does. They share the packed kernels and the one set of mat.Fork
// helpers — whichever replica holds the helpers fans out, the other
// runs inline — and every output equals the inline reference. Run under
// -race in CI.
func TestEngineConcurrentReplicasShareExecutor(t *testing.T) {
	eng := wideDeployment(t, "", 2)
	defer eng.Close()
	seqs := [][][]int{wideBatch(59), wideBatch(61)}
	refs := make([][]*mat.Matrix, 2)
	testutil.Procs(t, 1)
	for r := range refs {
		refs[r] = eng.ForwardBatch(r, seqs[r])
	}
	testutil.Procs(t, 4)
	before := mat.ForkStats()
	const rounds = 20
	errc := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			for i := 0; i < rounds; i++ {
				for s, got := range eng.ForwardBatch(r, seqs[r]) {
					if !mat.Equal(got, refs[r][s], 0) {
						errc <- fmt.Errorf("replica %d round %d sequence %d: output differs from inline", r, i, s)
						return
					}
				}
			}
			errc <- nil
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if after := mat.ForkStats(); after.Regions == before.Regions {
		t.Fatalf("no region fanned out across %d concurrent batches (%d ran inline-busy)", 2*rounds, after.InlineBusy-before.InlineBusy)
	}
}

// TestEngineUnknownFormat: a bad format name must fail deployment with a
// helpful error, not panic at serving time.
func TestEngineUnknownFormat(t *testing.T) {
	_, bundle := newTestDeployment(t, 1)
	_, err := serve.NewEngineConfigured(bundle, []serve.Model{newTestModel()},
		rtswitch.DefaultSwitchCostModel(), serve.EngineConfig{Format: "nope"})
	if err == nil {
		t.Fatal("unknown kernel format accepted")
	}
}

// TestEngineForwardOutputsIndependent pins the boundary-copy contract:
// replicas reuse activation buffers internally, so successive Forward
// results must still be independent matrices the caller can retain.
func TestEngineForwardOutputsIndependent(t *testing.T) {
	eng, _ := newTestDeployment(t, 1)
	seqs := randSeqs(2, 10, 24, 53)
	a := forward(eng, seqs[0])
	aCopy := a.Clone()
	b := forward(eng, seqs[1])
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("successive Forward outputs share storage")
	}
	if !mat.Equal(a, aCopy, 0) {
		t.Fatal("earlier response mutated by a later forward pass")
	}
	ref, err := eng.DenseForward(0, seqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(a, ref, 1e-9) {
		t.Fatal("retained response no longer matches dense execution")
	}
}

// TestEngineUnprunedLinearsKeepPackedKernel: the output projection is
// level-independent, so the engine packs it once for every replica — the
// pattern kernel with every weight kept — and nothing that repoints the
// prunable linears — a switch, a rejected switch, an injected switch
// fault, a dense reference — may drop or replace that kernel. It also
// has to be exact: logits stay bit-identical to the dense product over
// the same weights, and Backward keeps refusing to differentiate through
// a packed layer.
func TestEngineUnprunedLinearsKeepPackedKernel(t *testing.T) {
	eng, lms := newLMDeployment(t, 2, "")
	type held struct {
		lin *nn.Linear
		k   kernel.Kernel
	}
	var projs []held
	for _, lm := range lms {
		k := lm.Proj.Kernel()
		if _, ok := k.(*sparse.Pattern); !ok || k.NNZ() != lm.Proj.In*lm.Proj.Out {
			t.Fatalf("output projection runs %T, want the pattern kernel with every weight kept", k)
		}
		projs = append(projs, held{lm.Proj, k})
	}
	check := func(when string) {
		t.Helper()
		for r, p := range projs {
			if p.lin.Kernel() != p.k {
				t.Fatalf("replica %d lost its output-projection kernel after %s", r, when)
			}
		}
	}

	if _, err := eng.SwitchTo(1); err != nil {
		t.Fatal(err)
	}
	check("a switch")
	if _, err := eng.SwitchTo(eng.NumLevels()); err == nil {
		t.Fatal("out-of-range switch accepted")
	}
	check("a rejected switch")
	eng.InjectSwitchError(fmt.Errorf("injected"))
	if _, err := eng.SwitchTo(2); err == nil {
		t.Fatal("injected switch fault did not surface")
	}
	check("a failed switch")
	prompt := []int{3, 1, 4, 1, 5}
	if _, err := eng.DenseGenerate(eng.Level(), prompt, nil, 4, -1); err != nil {
		t.Fatal(err)
	}
	check("a dense reference")

	// exactness: the same forward with the projection forced dense
	got := forward(eng, prompt)
	lms[0].Proj.SetKernel(nil)
	want := forward(eng, prompt)
	lms[0].Proj.SetKernel(projs[0].k)
	if !mat.Equal(got, want, 0) {
		t.Fatal("packed output projection is not bit-identical to the dense product")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Backward ran through a packed output projection")
		}
	}()
	lms[0].Proj.Backward(mat.New(len(prompt), lms[0].Proj.Out))
}

// countingKernel counts the products run through the kernel it wraps.
type countingKernel struct {
	kernel.Kernel
	calls int
}

func (c *countingKernel) MulInto(dst, x *mat.Matrix) {
	c.calls++
	c.Kernel.MulInto(dst, x)
}

// TestDenseReferencesRunUnprunedLinearsDense: the masked dense references
// are what every served output is checked against, so they must not run
// the kernels under test — neither the level's kernels on the prunable
// linears nor the all-kept kernel on the output projection. A spy on the
// projection sees serving passes and must see none of a reference's; the
// reference then puts the engine's own packed kernel back.
func TestDenseReferencesRunUnprunedLinearsDense(t *testing.T) {
	eng, lms := newLMDeployment(t, 1, "")
	proj := lms[0].Proj
	packed := proj.Kernel()
	prompt := []int{3, 1, 4, 1, 5}

	refs := map[string]func() error{
		"DenseForward": func() error { _, err := eng.DenseForward(1, prompt); return err },
		"DenseGenerate": func() error {
			_, err := eng.DenseGenerate(1, prompt, nil, 4, -1)
			return err
		},
		"DenseGenerate split": func() error {
			_, err := eng.DenseGenerate(1, prompt[:3], prompt[3:], 4, -1)
			return err
		},
	}
	for name, ref := range refs {
		spy := &countingKernel{Kernel: packed}
		proj.SetKernel(spy)
		forward(eng, prompt)
		if spy.calls == 0 {
			t.Fatal("spy on the output projection saw no serving pass")
		}
		served := spy.calls
		if err := ref(); err != nil {
			t.Fatal(err)
		}
		if spy.calls != served {
			t.Errorf("%s ran the output projection through its serving kernel %d times, want dense", name, spy.calls-served)
		}
		if proj.Kernel() != packed {
			t.Errorf("%s left %T on the output projection, want the engine's packed kernel back", name, proj.Kernel())
		}
		proj.SetKernel(packed)
	}
}
