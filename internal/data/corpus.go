// Package data generates the synthetic workloads that stand in for the
// paper's WikiText-2 and GLUE datasets (offline substitution; see
// DESIGN.md). The language-modelling corpus is produced by a sparse
// first-order Markov chain over a Zipfian vocabulary, which gives a
// next-word-prediction task that a small Transformer can genuinely learn
// and whose accuracy degrades smoothly under pruning — the property every
// table in the paper depends on.
package data

import (
	"math"
	"math/rand"
)

// Corpus is a tokenized language-modelling dataset.
type Corpus struct {
	Vocab  int
	Tokens []int
}

// MarkovConfig controls synthetic corpus generation.
type MarkovConfig struct {
	Vocab     int     // vocabulary size
	Length    int     // total tokens to emit
	Branch    int     // successors per state (smaller = more predictable)
	ZipfS     float64 // Zipf exponent for successor popularity
	NoiseProb float64 // probability of an unpredictable uniform token
	Seed      int64
}

// GenerateMarkovCorpus synthesizes a corpus from cfg. Each token has
// Branch fixed successors with Zipf-weighted transition probabilities,
// plus a NoiseProb chance of a uniformly random token.
func GenerateMarkovCorpus(cfg MarkovConfig) *Corpus {
	rng := rand.New(rand.NewSource(cfg.Seed))
	succ := make([][]int, cfg.Vocab)
	for s := range succ {
		succ[s] = make([]int, cfg.Branch)
		for b := range succ[s] {
			succ[s][b] = rng.Intn(cfg.Vocab)
		}
	}
	// Zipf weights over the Branch successors.
	weights := make([]float64, cfg.Branch)
	var total float64
	for b := range weights {
		weights[b] = 1 / math.Pow(float64(b+1), cfg.ZipfS)
		total += weights[b]
	}
	for b := range weights {
		weights[b] /= total
	}

	tokens := make([]int, cfg.Length)
	cur := rng.Intn(cfg.Vocab)
	for i := range tokens {
		tokens[i] = cur
		if rng.Float64() < cfg.NoiseProb {
			cur = rng.Intn(cfg.Vocab)
			continue
		}
		r := rng.Float64()
		acc := 0.0
		next := succ[cur][cfg.Branch-1]
		for b, w := range weights {
			acc += w
			if r < acc {
				next = succ[cur][b]
				break
			}
		}
		cur = next
	}
	return &Corpus{Vocab: cfg.Vocab, Tokens: tokens}
}

// LMExample is one training sequence for next-word prediction:
// Targets[i] is the token following Input[i].
type LMExample struct {
	Input   []int
	Targets []int
}

// Sequences cuts the corpus into non-overlapping LM examples of length
// seqLen. The final partial window is dropped.
func (c *Corpus) Sequences(seqLen int) []LMExample {
	var out []LMExample
	for i := 0; i+seqLen+1 <= len(c.Tokens); i += seqLen {
		out = append(out, LMExample{
			Input:   c.Tokens[i : i+seqLen],
			Targets: c.Tokens[i+1 : i+seqLen+1],
		})
	}
	return out
}

// Split divides examples into train and held-out eval portions; frac is
// the training fraction in (0, 1).
func Split(examples []LMExample, frac float64) (train, eval []LMExample) {
	n := int(float64(len(examples)) * frac)
	if n < 1 {
		n = 1
	}
	if n >= len(examples) {
		n = len(examples) - 1
	}
	return examples[:n], examples[n:]
}
