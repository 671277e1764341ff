package serve_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rt3/internal/kernel"
	"rt3/internal/mat"
	"rt3/internal/rtswitch"
	"rt3/internal/serve"
)

// raggedBatches builds request batches with uneven sequence lengths.
func raggedBatches(n, vocab int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, n)
	for i := range out {
		seq := make([]int, 1+rng.Intn(10))
		for j := range seq {
			seq[j] = rng.Intn(vocab)
		}
		out[i] = seq
	}
	return out
}

// TestEngineForwardBatchAllFormats is the registry-wide equivalence
// test: at every level and in every execution format, a fused
// ForwardBatch over a ragged batch must be bit-identical to the
// per-sequence Forward loop, and match masked dense execution.
func TestEngineForwardBatchAllFormats(t *testing.T) {
	for _, format := range kernel.Formats() {
		format := format
		t.Run(format, func(t *testing.T) {
			_, bundle := newTestDeployment(t, 1)
			eng, err := serve.NewEngineConfigured(bundle, []serve.Model{newTestModel()},
				rtswitch.DefaultSwitchCostModel(), serve.EngineConfig{Format: format})
			if err != nil {
				t.Fatal(err)
			}
			seqs := raggedBatches(6, 24, 61)
			for lvl := 0; lvl < eng.NumLevels(); lvl++ {
				if _, err := eng.SwitchTo(lvl); err != nil {
					t.Fatal(err)
				}
				outs := eng.ForwardBatch(0, seqs)
				if len(outs) != len(seqs) {
					t.Fatalf("%d outputs for %d sequences", len(outs), len(seqs))
				}
				for i, ids := range seqs {
					want := eng.Forward(0, ids)
					if !mat.Equal(outs[i], want, 0) {
						t.Fatalf("level %d seq %d (len %d): fused output differs from per-sequence loop",
							lvl, i, len(ids))
					}
					ref, err := eng.DenseForward(lvl, ids)
					if err != nil {
						t.Fatal(err)
					}
					if !mat.Equal(outs[i], ref, 1e-9) {
						t.Fatalf("level %d seq %d: fused output differs from masked dense execution", lvl, i)
					}
				}
			}
		})
	}
}

// TestEngineForwardBatchConcurrentReplicas drives concurrent fused
// batches through separate replicas — the server's worker-pool pattern —
// and checks outputs stay correct. Run under -race in CI.
func TestEngineForwardBatchConcurrentReplicas(t *testing.T) {
	const replicas = 3
	eng, _ := newTestDeployment(t, replicas)
	batches := make([][][]int, replicas)
	refs := make([][]*mat.Matrix, replicas)
	for r := range batches {
		batches[r] = raggedBatches(5, 24, int64(67+r))
		refs[r] = make([]*mat.Matrix, len(batches[r]))
		for i, ids := range batches[r] {
			var err error
			refs[r][i], err = eng.DenseForward(0, ids)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	const rounds = 40
	errc := make(chan error, replicas)
	for r := 0; r < replicas; r++ {
		r := r
		go func() {
			for i := 0; i < rounds; i++ {
				outs := eng.ForwardBatch(r, batches[r])
				for j, out := range outs {
					if !mat.Equal(out, refs[r][j], 1e-9) {
						errc <- fmt.Errorf("replica %d round %d seq %d: output corrupted", r, i, j)
						return
					}
				}
			}
			errc <- nil
		}()
	}
	for r := 0; r < replicas; r++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	batchesN, seqs, rows := eng.BatchStats()
	if batchesN != replicas*rounds {
		t.Fatalf("BatchStats batches %d, want %d", batchesN, replicas*rounds)
	}
	if seqs != int64(replicas*rounds*5) {
		t.Fatalf("BatchStats seqs %d, want %d", seqs, replicas*rounds*5)
	}
	if rows <= seqs {
		t.Fatalf("BatchStats rows %d not above seqs %d", rows, seqs)
	}
}

// TestEngineForwardBatchOutputsIndependent pins the boundary-copy
// contract for fused outputs: each returned matrix survives later
// forward passes on the same replica.
func TestEngineForwardBatchOutputsIndependent(t *testing.T) {
	eng, _ := newTestDeployment(t, 1)
	seqs := raggedBatches(4, 24, 71)
	outs := eng.ForwardBatch(0, seqs)
	copies := make([]*mat.Matrix, len(outs))
	for i, o := range outs {
		copies[i] = o.Clone()
	}
	eng.ForwardBatch(0, raggedBatches(4, 24, 72))
	for i := range outs {
		if !mat.Equal(outs[i], copies[i], 0) {
			t.Fatalf("fused output %d mutated by a later forward pass", i)
		}
	}
}

// TestSubmitRejectsEmptySequence: a zero-length sequence must fail fast
// at admission (the packed batch forward has no representation for it)
// instead of reaching a worker and taking down its whole batch.
func TestSubmitRejectsEmptySequence(t *testing.T) {
	eng, _ := newTestDeployment(t, 1)
	s := serve.New(eng, serve.Config{})
	s.Start()
	defer s.Stop()
	if _, err := s.Submit(nil); err != serve.ErrEmptyRequest {
		t.Fatalf("Submit(nil) err %v, want ErrEmptyRequest", err)
	}
	if _, err := s.Submit([]int{}); err != serve.ErrEmptyRequest {
		t.Fatalf("Submit([]) err %v, want ErrEmptyRequest", err)
	}
	// the server must still serve normal traffic afterwards
	ch, err := s.Submit([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp := <-ch; resp.Err != nil || resp.Out == nil {
		t.Fatalf("healthy request failed after rejected empties: %+v", resp)
	}
}

// TestServerBatchedResponses checks the worker's batched dispatch end to
// end: responses split back per request, queue/exec latency components
// recorded separately, and the batch fill ratio observable.
func TestServerBatchedResponses(t *testing.T) {
	eng, _ := newTestDeployment(t, 1)
	s := serve.New(eng, serve.Config{MaxBatch: 4, MaxDelay: 200 * time.Millisecond})
	s.Start()
	defer s.Stop()

	seqs := raggedBatches(4, 24, 73)
	refs := make([]*mat.Matrix, len(seqs))
	for i, ids := range seqs {
		var err error
		refs[i], err = s.DenseReference(0, ids)
		if err != nil {
			t.Fatal(err)
		}
	}
	var chans []<-chan serve.Response
	for _, ids := range seqs {
		ch, err := s.Submit(ids)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		resp := <-ch
		if resp.BatchSize != 4 {
			t.Fatalf("response %d rode batch of %d, want 4", i, resp.BatchSize)
		}
		if !mat.Equal(resp.Out, refs[i], 1e-9) {
			t.Fatalf("response %d differs from dense execution", i)
		}
		if resp.ExecMS <= 0 {
			t.Fatalf("response %d: ExecMS %g not positive", i, resp.ExecMS)
		}
		if got := resp.QueueMS + resp.ExecMS; got != resp.TotalMS {
			t.Fatalf("response %d: TotalMS %g != QueueMS %g + ExecMS %g", i, resp.TotalMS, resp.QueueMS, resp.ExecMS)
		}
	}
	if got := s.Recorder().FillRatio(); got != 1 {
		t.Fatalf("fill ratio %g after one full batch, want 1", got)
	}
	batches, nseqs, _ := eng.BatchStats()
	if batches != 1 || nseqs != 4 {
		t.Fatalf("BatchStats (%d batches, %d seqs), want (1, 4)", batches, nseqs)
	}
	stats := s.Recorder().Snapshot()
	if len(stats) != 1 {
		t.Fatalf("%d level stats, want 1", len(stats))
	}
	if stats[0].MeanExecMS <= 0 {
		t.Fatal("mean exec time not recorded")
	}
	if diff := stats[0].MeanMS - stats[0].MeanQueueMS - stats[0].MeanExecMS; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean total %g != queue %g + exec %g", stats[0].MeanMS, stats[0].MeanQueueMS, stats[0].MeanExecMS)
	}

	// a lone deadline-flushed request halves the fill ratio (1 of 4 + 4 of 4)
	ch, err := s.Submit(seqs[0])
	if err != nil {
		t.Fatal(err)
	}
	<-ch
	if got := s.Recorder().FillRatio(); got != 5.0/8.0 {
		t.Fatalf("fill ratio %g after 5 requests over 8 capacity, want 0.625", got)
	}
}
