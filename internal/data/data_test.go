package data

import (
	"testing"
	"testing/quick"
)

var testMarkov = MarkovConfig{Vocab: 64, Length: 20000, Branch: 3, ZipfS: 1.2, NoiseProb: 0.08, Seed: 1}

func TestMarkovCorpusLengthAndRange(t *testing.T) {
	cfg := testMarkov
	c := GenerateMarkovCorpus(cfg)
	if len(c.Tokens) != cfg.Length {
		t.Fatalf("length %d != %d", len(c.Tokens), cfg.Length)
	}
	for _, tok := range c.Tokens {
		if tok < 0 || tok >= cfg.Vocab {
			t.Fatalf("token %d out of vocab %d", tok, cfg.Vocab)
		}
	}
}

func TestMarkovCorpusDeterministic(t *testing.T) {
	cfg := testMarkov
	a := GenerateMarkovCorpus(cfg)
	b := GenerateMarkovCorpus(cfg)
	for i := range a.Tokens {
		if a.Tokens[i] != b.Tokens[i] {
			t.Fatal("same seed produced different corpora")
		}
	}
	cfg.Seed = 2
	c := GenerateMarkovCorpus(cfg)
	same := true
	for i := range a.Tokens {
		if a.Tokens[i] != c.Tokens[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestMarkovCorpusIsPredictable(t *testing.T) {
	// With Branch=3 and Zipf weighting, a bigram oracle should beat 40%
	// accuracy — the structure the Transformer is supposed to learn.
	cfg := testMarkov
	c := GenerateMarkovCorpus(cfg)
	counts := make(map[[2]int]int)
	best := make(map[int][2]int) // token -> (best successor, count)
	for i := 0; i+1 < len(c.Tokens); i++ {
		k := [2]int{c.Tokens[i], c.Tokens[i+1]}
		counts[k]++
		if counts[k] > best[c.Tokens[i]][1] {
			best[c.Tokens[i]] = [2]int{c.Tokens[i+1], counts[k]}
		}
	}
	correct := 0
	for i := 0; i+1 < len(c.Tokens); i++ {
		if best[c.Tokens[i]][0] == c.Tokens[i+1] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(c.Tokens)-1)
	if acc < 0.4 {
		t.Fatalf("corpus not predictable enough: oracle acc %.3f", acc)
	}
}

func TestSequencesAlignment(t *testing.T) {
	c := &Corpus{Vocab: 10, Tokens: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}
	seqs := c.Sequences(4)
	if len(seqs) != 2 {
		t.Fatalf("got %d sequences", len(seqs))
	}
	for _, s := range seqs {
		for i := range s.Input {
			if s.Targets[i] != s.Input[i]+1 {
				t.Fatalf("target misaligned: %v -> %v", s.Input, s.Targets)
			}
		}
	}
}

func TestSplitFractions(t *testing.T) {
	seqs := make([]LMExample, 10)
	tr, ev := Split(seqs, 0.8)
	if len(tr) != 8 || len(ev) != 2 {
		t.Fatalf("split %d/%d", len(tr), len(ev))
	}
	// degenerate fractions never produce empty splits
	tr, ev = Split(seqs, 0)
	if len(tr) == 0 || len(ev) == 0 {
		t.Fatalf("degenerate split %d/%d", len(tr), len(ev))
	}
	tr, ev = Split(seqs, 1)
	if len(tr) == 0 || len(ev) == 0 {
		t.Fatalf("degenerate split %d/%d", len(tr), len(ev))
	}
}

func TestAllGLUETasksGenerate(t *testing.T) {
	for _, name := range GLUETaskNames {
		task := GenerateTask(name, 20, 10, 1)
		if len(task.Train) != 20 || len(task.Eval) != 10 {
			t.Fatalf("%s: %d/%d examples", name, len(task.Train), len(task.Eval))
		}
		for _, ex := range append(task.Train, task.Eval...) {
			if len(ex.Tokens) == 0 {
				t.Fatalf("%s: empty tokens", name)
			}
			for _, tok := range ex.Tokens {
				if tok < 0 || tok >= task.Spec.Vocab {
					t.Fatalf("%s: token %d out of vocab", name, tok)
				}
			}
			if task.Spec.Classes > 1 && (ex.Label < 0 || ex.Label >= task.Spec.Classes) {
				t.Fatalf("%s: label %d out of %d classes", name, ex.Label, task.Spec.Classes)
			}
			if task.Spec.Classes == 1 && (ex.Score < 0 || ex.Score > 5) {
				t.Fatalf("%s: score %g out of [0,5]", name, ex.Score)
			}
		}
	}
}

func TestTaskKindsMatchGLUEConventions(t *testing.T) {
	want := map[string]TaskKind{
		"SST-2": KindAccuracy, "QNLI": KindAccuracy, "RTE": KindAccuracy,
		"WNLI": KindAccuracy, "MNLI": KindAccuracy,
		"CoLA": KindMCC, "QQP": KindF1, "MRPC": KindF1, "STS-B": KindSpearman,
	}
	for name, kind := range want {
		if got := taskSpec(name).Kind; got != kind {
			t.Errorf("%s: kind %v want %v", name, got, kind)
		}
	}
}

func TestUnknownTaskPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GenerateTask("nope", 1, 1, 1)
}

func TestCoLARuleHolds(t *testing.T) {
	task := GenerateTask("CoLA", 200, 0, 2)
	v := task.Spec.Vocab
	for _, ex := range task.Train {
		taboo := 0
		for _, tok := range ex.Tokens {
			if tok >= v/2 && tok < 3*v/4 {
				taboo++
			}
		}
		if ex.Label == 1 && taboo > 0 {
			t.Fatal("grammatical example contains a taboo token")
		}
		if ex.Label == 0 && taboo == 0 {
			t.Fatal("ungrammatical example has no taboo token")
		}
	}
}

func TestParaphraseLabelsAreMultisets(t *testing.T) {
	task := GenerateTask("QQP", 100, 0, 3)
	for _, ex := range task.Train {
		if ex.Label != 1 {
			continue
		}
		// positive pairs must be exact multiset matches around the sep
		var a, b []int
		half := 0
		for i, tok := range ex.Tokens {
			if tok == 0 {
				half = i
				break
			}
		}
		a = ex.Tokens[:half]
		b = ex.Tokens[half+1:]
		ca := map[int]int{}
		for _, x := range a {
			ca[x]++
		}
		for _, x := range b {
			ca[x]--
		}
		for _, v := range ca {
			if v != 0 {
				t.Fatal("positive paraphrase is not a permutation")
			}
		}
	}
}

func TestSTSBScoreMatchesOverlap(t *testing.T) {
	task := GenerateTask("STS-B", 100, 0, 4)
	for _, ex := range task.Train {
		if ex.Score < 0 || ex.Score > 5 {
			t.Fatalf("score %g out of range", ex.Score)
		}
	}
}

func TestEntailmentBothClassesPresent(t *testing.T) {
	f := func(seed int64) bool {
		task := GenerateTask("RTE", 60, 0, seed)
		seen := map[int]bool{}
		for _, ex := range task.Train {
			seen[ex.Label] = true
		}
		return seen[0] && seen[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMNLIThreeClasses(t *testing.T) {
	task := GenerateTask("MNLI", 300, 0, 5)
	seen := map[int]bool{}
	for _, ex := range task.Train {
		seen[ex.Label] = true
	}
	for c := 0; c < 3; c++ {
		if !seen[c] {
			t.Fatalf("MNLI class %d never generated", c)
		}
	}
}
