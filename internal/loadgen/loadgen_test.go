package loadgen_test

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"rt3/internal/cluster"
	"rt3/internal/loadgen"
	"rt3/internal/mat"
	"rt3/internal/serve"
)

// call is one request as the target saw it.
type call struct {
	Gen    bool
	Key    uint64
	In     []int
	Budget int
}

// fake is a Submitter with no model behind it: it records what is
// offered and answers at once, or as its hooks say.
type fake struct {
	mu    sync.Mutex
	calls []call

	stall     time.Duration     // held inside every submit call
	submitErr func(n int) error // refusal of the n-th call (0-based), nil admits
	respErr   func(n int) error // error delivered in the n-th call's response
	hold      chan struct{}     // when non-nil, responses wait for its close
	onSubmit  func(n int)       // runs inside the n-th call
}

func (f *fake) admit(c call) (int, error) {
	time.Sleep(f.stall)
	f.mu.Lock()
	n := len(f.calls)
	f.calls = append(f.calls, c)
	f.mu.Unlock()
	if f.onSubmit != nil {
		f.onSubmit(n)
	}
	if f.submitErr != nil {
		return n, f.submitErr(n)
	}
	return n, nil
}

func (f *fake) errOf(n int) error {
	if f.hold != nil {
		<-f.hold
	}
	if f.respErr != nil {
		return f.respErr(n)
	}
	return nil
}

func (f *fake) Submit(key uint64, tokens []int) (<-chan serve.Response, error) {
	n, err := f.admit(call{Key: key, In: tokens})
	if err != nil {
		return nil, err
	}
	ch := make(chan serve.Response, 1)
	go func() { ch <- serve.Response{Err: f.errOf(n), Out: mat.New(1, 2)} }()
	return ch, nil
}

func (f *fake) SubmitGen(key uint64, prompt []int, maxTokens, eos int) (<-chan serve.GenResponse, error) {
	n, err := f.admit(call{Gen: true, Key: key, In: prompt, Budget: maxTokens})
	if err != nil {
		return nil, err
	}
	ch := make(chan serve.GenResponse, 1)
	go func() { ch <- serve.GenResponse{Err: f.errOf(n), Tokens: make([]int, maxTokens)} }()
	return ch, nil
}

// mixed is a spec with both traffic kinds over a short window.
func mixed(rate loadgen.Rate, d time.Duration) loadgen.Spec {
	return loadgen.Spec{
		Duration: d, Rate: rate, Seed: 42,
		ClassifyFraction: 0.4, Pool: loadgen.TokenPool(42, 6, 24),
		Sessions: 8, PromptMin: 2, PromptMax: 6, OutMin: 3, OutMax: 9, Vocab: 24,
	}
}

func flat(rps float64) loadgen.Rate { return loadgen.Ramp(rps, rps, time.Second) }

// TestOfferedSequenceIsAPureFunctionOfSpecAndSeed: the same (spec, seed)
// offers the identical request sequence — kinds, keys, prompts, budgets —
// even when the target stalls the submitting goroutine, because arrivals
// ride the virtual clock, not the wall clock.
func TestOfferedSequenceIsAPureFunctionOfSpecAndSeed(t *testing.T) {
	spec := mixed(loadgen.SquareWave(loadgen.Ramp(300, 900, 60*time.Millisecond), 15*time.Millisecond, 2), 60*time.Millisecond)
	quick, stalled := &fake{}, &fake{stall: 3 * time.Millisecond}
	a, err := loadgen.Run(quick, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadgen.Run(stalled, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Offered == 0 || a.GenOffered == 0 || a.ClsOffered == 0 {
		t.Fatalf("spec offered no mixed traffic: %+v", a)
	}
	if b.Elapsed < 2*spec.Duration {
		t.Fatalf("stalled run took %s; the stall did not outlast the arrival window", b.Elapsed)
	}
	if !reflect.DeepEqual(quick.calls, stalled.calls) {
		t.Fatalf("offered sequences differ: %d vs %d calls", len(quick.calls), len(stalled.calls))
	}
	// nothing sheds, so every offer completes and the digests agree too
	if a.Completed() != a.Offered || b.Completed() != b.Offered || a.ResponseHash != b.ResponseHash {
		t.Fatalf("downstream counts differ:\n%+v\n%+v", a, b)
	}
	for _, c := range quick.calls {
		if c.Gen != (c.Key < 1<<24) {
			t.Fatalf("classification and session keys overlap: %+v", c)
		}
	}
	spec.Seed++
	other := &fake{}
	if _, err := loadgen.Run(other, spec); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(quick.calls, other.calls) {
		t.Fatal("a different seed offered the same sequence")
	}
}

// TestArrivalCounts pins the offered count of each profile shape: it is
// an exact function of the profile (gap = 1s/rate at the virtual time of
// the previous arrival, the last arrival strictly inside the window).
func TestArrivalCounts(t *testing.T) {
	const d = 80 * time.Millisecond
	ms := time.Millisecond
	for _, tc := range []struct {
		name string
		rate loadgen.Rate
		want int
	}{
		{"flat 500/s", flat(500), 39},
		{"ramp 250 to 1000/s", loadgen.Ramp(250, 1000, d), 49},
		// gaps 2ms calm, 1ms pressured, over four 20ms periods
		{"square wave x2", loadgen.SquareWave(flat(500), 20*ms, 2), 59},
		// a factor in (0, 1) is an anti-burst: 4ms gaps in every second
		// half-period
		{"square wave x0.5", loadgen.SquareWave(flat(500), 20*ms, 0.5), 28},
		{"buckets", loadgen.Buckets([]loadgen.Bucket{{20 * ms, 100}, {40 * ms, 1000}, {20 * ms, 250}}, 1), 46},
		// half the window: the same rates over 10 + 20 + 10 ms, run for 40
		{"buckets x0.5", loadgen.Buckets([]loadgen.Bucket{{20 * ms, 100}, {40 * ms, 1000}, {20 * ms, 250}}, 0.5), 23},
	} {
		spec := mixed(tc.rate, d)
		if tc.name == "buckets x0.5" {
			spec.Duration = d / 2
		}
		rep, err := loadgen.Run(&fake{}, spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Offered != tc.want || rep.GenOffered+rep.ClsOffered != rep.Offered {
			t.Errorf("%s: offered %d (gen %d, cls %d), want %d", tc.name, rep.Offered, rep.GenOffered, rep.ClsOffered, tc.want)
		}
	}
}

// TestShedAndFailedClassification: queue-full and no-ready-nodes are
// shed wherever they surface — at submission or in the response — and
// any other response error is a failure; a submission
// refused for any other reason aborts the run once in-flight work has
// drained.
func TestShedAndFailedClassification(t *testing.T) {
	lost := errors.New("lost")
	f := &fake{
		submitErr: func(n int) error {
			return map[int]error{0: serve.ErrQueueFull, 1: cluster.ErrNoReadyNodes}[n]
		},
		respErr: func(n int) error {
			return map[int]error{3: serve.ErrQueueFull, 4: cluster.ErrNoReadyNodes, 5: lost, 6: serve.ErrStopped}[n]
		},
	}
	rep, err := loadgen.Run(f, mixed(flat(1000), 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered != 19 || rep.Shed != 4 || rep.Failed != 2 || rep.Completed() != 13 {
		t.Fatalf("offered %d shed %d failed %d completed %d, want 19 / 4 / 2 / 13", rep.Offered, rep.Shed, rep.Failed, rep.Completed())
	}
	_ = rep.String()

	hold := make(chan struct{})
	f = &fake{hold: hold, submitErr: func(n int) error {
		if n < 4 {
			return nil
		}
		time.AfterFunc(30*time.Millisecond, func() { close(hold) })
		return serve.ErrStopped
	}}
	t0 := time.Now()
	if _, err := loadgen.Run(f, mixed(flat(1000), 20*time.Millisecond)); !errors.Is(err, serve.ErrStopped) {
		t.Fatalf("refused submission: err %v, want ErrStopped", err)
	}
	if len(f.calls) != 5 {
		t.Fatalf("run went on past the refusal: %d calls", len(f.calls))
	}
	if took := time.Since(t0); took < 30*time.Millisecond {
		t.Fatalf("run returned after %s, before the four admitted requests delivered", took)
	}
}

// TestCancelStopsArrivalsAndAwaitsInflight: a closed Cancel ends the
// arrival phase at once, and the report still covers every admitted
// request — including ones that deliver after the cancellation.
func TestCancelStopsArrivalsAndAwaitsInflight(t *testing.T) {
	cancel, hold := make(chan struct{}), make(chan struct{})
	f := &fake{hold: hold, onSubmit: func(n int) {
		if n == 5 {
			close(cancel)
			time.AfterFunc(30*time.Millisecond, func() { close(hold) })
		}
	}}
	spec := mixed(flat(500), 10*time.Second)
	spec.Cancel = cancel
	t0 := time.Now()
	rep, err := loadgen.Run(f, spec)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > 3*time.Second {
		t.Fatalf("canceled run took %s, want well under the 10s window", took)
	}
	if rep.Offered != 6 || rep.Completed() != 6 {
		t.Fatalf("offered %d completed %d, want the 6 admitted before the cancel, all awaited", rep.Offered, rep.Completed())
	}
	if rep.Elapsed < 30*time.Millisecond {
		t.Fatalf("run returned after %s, before the held responses delivered", rep.Elapsed)
	}
}

// TestSpecErrors: a spec the driver cannot run is an error, not an empty
// run, a panic or a spin — in particular a rate whose arrival gap is not
// a positive duration (1e-12 req/s overflows it; the virtual clock would
// never advance).
func TestSpecErrors(t *testing.T) {
	ok := mixed(flat(500), 10*time.Millisecond)
	if _, err := loadgen.Run(&fake{}, ok); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*loadgen.Spec){
		"zero duration":      func(s *loadgen.Spec) { s.Duration = 0 },
		"negative duration":  func(s *loadgen.Spec) { s.Duration = -time.Second },
		"no rate":            func(s *loadgen.Spec) { s.Rate = nil },
		"fraction above one": func(s *loadgen.Spec) { s.ClassifyFraction = 1.5 },
		"fraction NaN":       func(s *loadgen.Spec) { s.ClassifyFraction = math.NaN() },
		"empty pool":         func(s *loadgen.Spec) { s.Pool = nil },
		"no sessions":        func(s *loadgen.Spec) { s.Sessions = 0 },
		"one-token vocab":    func(s *loadgen.Spec) { s.Vocab = 1 },
		"empty prompts":      func(s *loadgen.Spec) { s.PromptMin = 0 },
		"descending prompts": func(s *loadgen.Spec) { s.PromptMax = s.PromptMin - 1 },
		"descending budgets": func(s *loadgen.Spec) { s.OutMax = s.OutMin - 1 },
		"rate zero":          func(s *loadgen.Spec) { s.Rate = flat(0) },
		"rate negative":      func(s *loadgen.Spec) { s.Rate = flat(-5) },
		"rate NaN":           func(s *loadgen.Spec) { s.Rate = flat(math.NaN()) },
		"rate infinite":      func(s *loadgen.Spec) { s.Rate = flat(math.Inf(1)) },
		"rate 1e-12":         func(s *loadgen.Spec) { s.Rate = flat(1e-12) },
		"rate 1e10":          func(s *loadgen.Spec) { s.Rate = flat(1e10) },
		"rate turning bad":   func(s *loadgen.Spec) { s.Rate = loadgen.Ramp(1000, -1000, s.Duration) },
	} {
		spec := ok
		mutate(&spec)
		f := &fake{}
		if rep, err := loadgen.Run(f, spec); err == nil {
			t.Errorf("%s: accepted, offered %d", name, rep.Offered)
		}
		if name != "rate turning bad" && len(f.calls) != 0 {
			t.Errorf("%s: %d requests offered before the refusal", name, len(f.calls))
		}
	}
	// pure classification needs no session shape, pure generation no pool
	cls := loadgen.Spec{Duration: 10 * time.Millisecond, Rate: flat(500), ClassifyFraction: 1, Pool: ok.Pool}
	if rep, err := loadgen.Run(&fake{}, cls); err != nil || rep.ClsOffered != rep.Offered || rep.Offered == 0 {
		t.Fatalf("pure classification: %+v, %v", rep, err)
	}
	gen := ok
	gen.ClassifyFraction, gen.Pool = 0, nil
	if rep, err := loadgen.Run(&fake{}, gen); err != nil || rep.GenOffered != rep.Offered || rep.Offered == 0 {
		t.Fatalf("pure generation: %+v, %v", rep, err)
	}
	// a gap longer than what is left of the window ends the run; it is
	// not an error
	if rep, err := loadgen.Run(&fake{}, mixed(flat(50), 10*time.Millisecond)); err != nil || rep.Offered != 0 {
		t.Fatalf("slow legal rate: %+v, %v", rep, err)
	}
}
