package serve_test

import (
	"errors"
	"testing"
	"time"

	"rt3/internal/loadgen"
	"rt3/internal/serve"
)

// TestSubmitGenResumeEquivalence pins the truncate-replay contract: a
// generation resumed from any committed prefix of an uninterrupted run
// finishes with exactly the uninterrupted run's tokens — the KV cache
// rebuilt by teacher-forced replay is a pure function of the fed
// tokens.
func TestSubmitGenResumeEquivalence(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{Generate: true})
	srv.Start()
	defer srv.Stop()
	prompt := []int{3, 1, 4, 1, 5}
	const budget = 16

	ch, err := srv.SubmitGen(prompt, budget, -1)
	if err != nil {
		t.Fatal(err)
	}
	full := (<-ch).Tokens
	if len(full) != budget {
		t.Fatalf("uninterrupted run produced %d tokens, want %d", len(full), budget)
	}

	for _, k := range []int{1, 2, 7, budget - 1} {
		ch, err := srv.SubmitGenResume(prompt, full[:k], budget, -1)
		if err != nil {
			t.Fatal(err)
		}
		resp := <-ch
		if resp.Err != nil {
			t.Fatalf("resume from %d tokens: %v", k, resp.Err)
		}
		if len(resp.Tokens) != budget {
			t.Fatalf("resume from %d: got %d tokens, want %d", k, len(resp.Tokens), budget)
		}
		for i := range full {
			if resp.Tokens[i] != full[i] {
				t.Fatalf("resume from %d diverged at token %d: %d vs %d", k, i, resp.Tokens[i], full[i])
			}
		}
	}
}

// TestSubmitGenResumeTerminalPrefix checks the short-circuit: a prefix
// that already ends the generation completes immediately.
func TestSubmitGenResumeTerminalPrefix(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{Generate: true})
	srv.Start()
	defer srv.Stop()

	ch, err := srv.SubmitGenResume([]int{1, 2}, []int{9, 8, 7}, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	resp := <-ch
	if resp.Err != nil || len(resp.Tokens) != 3 {
		t.Fatalf("budget-terminal prefix: err %v tokens %v", resp.Err, resp.Tokens)
	}

	ch, err = srv.SubmitGenResume([]int{1, 2}, []int{9, 5}, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	resp = <-ch
	if resp.Err != nil || len(resp.Tokens) != 2 || resp.Tokens[1] != 5 {
		t.Fatalf("eos-terminal prefix: err %v tokens %v", resp.Err, resp.Tokens)
	}
}

// TestKillDeliversPartial crashes a server mid-generation and checks
// the abandoned response carries ErrCrashed plus a committed prefix of
// the uninterrupted reference — the exact payload a cluster router
// resumes elsewhere.
func TestKillDeliversPartial(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{Generate: true, StepFloor: 2 * time.Millisecond})
	srv.Start()
	prompt := []int{2, 7, 1, 8}
	const budget = 64

	ch, err := srv.SubmitGen(prompt, budget, -1)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	srv.Kill()
	resp := <-ch
	if !errors.Is(resp.Err, serve.ErrCrashed) {
		t.Fatalf("killed mid-generation: err %v, want ErrCrashed", resp.Err)
	}
	if len(resp.Tokens) == 0 || len(resp.Tokens) >= budget {
		t.Fatalf("partial has %d tokens, want in (0, %d) for a crash 20ms into 2ms steps", len(resp.Tokens), budget)
	}
	if !srv.Stopped() {
		t.Fatal("killed server does not report Stopped")
	}

	// the committed prefix must be a prefix of the uninterrupted stream:
	// regenerate it on the quiesced engine's cached path
	_, streams := decodeCached(t, eng, 0, [][]int{prompt}, budget)
	for i, tok := range resp.Tokens {
		if tok != streams[0][i] {
			t.Fatalf("committed token %d is %d, reference %d — crash corrupted the stream", i, tok, streams[0][i])
		}
	}

	// a submit after Kill fails fast
	if _, err := srv.SubmitGen(prompt, 4, -1); !errors.Is(err, serve.ErrStopped) {
		t.Fatalf("submit after Kill: %v, want ErrStopped", err)
	}
}

// TestDenseGenerateMatchesPacked checks the generation ground truth: at
// every level, the packed serving path and the masked dense decode
// produce identical token streams.
func TestDenseGenerateMatchesPacked(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{Generate: true})
	srv.Start()
	defer srv.Stop()
	prompt := []int{5, 3, 8, 2, 9, 1}
	const budget = 12

	for lvl := 0; lvl < eng.NumLevels(); lvl++ {
		if _, err := srv.SwitchTo(lvl); err != nil {
			t.Fatal(err)
		}
		ch, err := srv.SubmitGen(prompt, budget, -1)
		if err != nil {
			t.Fatal(err)
		}
		resp := <-ch
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp.Level != lvl {
			t.Fatalf("served at level %d, want %d", resp.Level, lvl)
		}
		ref, err := srv.DenseGenReference(lvl, prompt, budget, -1)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) != len(resp.Tokens) {
			t.Fatalf("level %d: dense ref %d tokens, served %d", lvl, len(ref), len(resp.Tokens))
		}
		for i := range ref {
			if ref[i] != resp.Tokens[i] {
				t.Fatalf("level %d token %d: served %d, dense %d", lvl, i, resp.Tokens[i], ref[i])
			}
		}
	}
}

// TestLoadCancelStopsArrivals checks the load driver's Cancel ends the
// arrival phase early against a real server while still delivering a
// normal report.
func TestLoadCancelStopsArrivals(t *testing.T) {
	eng, _ := newTestDeployment(t, 1)
	srv := serve.New(eng, serve.Config{})
	srv.Start()
	defer srv.Stop()
	cancel := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(cancel)
	}()
	t0 := time.Now()
	rep, err := loadgen.Run(loadgen.Keyless(srv), loadgen.Spec{
		Duration: 10 * time.Second, Rate: loadgen.Ramp(200, 200, time.Second), Cancel: cancel,
		ClassifyFraction: 1, Pool: loadgen.TokenPool(1, 6, lmCfg.Vocab), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > 3*time.Second {
		t.Fatalf("canceled run took %s, want well under the 10s duration", took)
	}
	if rep.Offered == 0 || rep.Completed() != rep.Offered {
		t.Fatalf("canceled run: offered %d completed %d, want > 0 and all awaited", rep.Offered, rep.Completed())
	}
}
