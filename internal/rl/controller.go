// Package rl implements the RNN-based reinforcement-learning controller
// of RT3 (component ②, "similar to Zoph & Le 2016"): an Elman recurrent
// network unrolled over the decision sequence — for each of the N
// voltage/frequency levels it first picks one pattern set from the
// shrunken search space, then picks K patterns from that set — trained
// with REINFORCE against the reward of Eq. (1), using an exponential
// moving-average baseline.
package rl

import (
	"fmt"
	"math"
	"math/rand"

	"rt3/internal/mat"
)

// Config sizes the controller and its decision sequence.
type Config struct {
	Hidden      int // RNN state width
	NumSets     int // candidate pattern sets (theta * N in the paper)
	NumPatterns int // patterns per candidate set (m in the paper)
	Levels      int // N voltage/frequency levels
	K           int // patterns chosen per level
	LR          float64
	// States, when > 0, adds that many learned context embeddings: the
	// serving-time closed-loop controller starts each one-step episode
	// from the embedding of a quantized telemetry state (see EncodeState)
	// instead of the start token, so the policy can condition its level
	// choice on what the live window looks like. 0 (the search-time
	// default) keeps the unconditioned behaviour.
	States int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Hidden < 1 || c.NumSets < 1 || c.NumPatterns < 1 || c.Levels < 1 {
		return fmt.Errorf("rl: all sizes must be positive: %+v", c)
	}
	if c.K < 1 || c.K > c.NumPatterns {
		return fmt.Errorf("rl: K=%d must be in [1, NumPatterns=%d]", c.K, c.NumPatterns)
	}
	if c.LR <= 0 {
		return fmt.Errorf("rl: LR must be positive, got %g", c.LR)
	}
	if c.States < 0 {
		return fmt.Errorf("rl: States must be non-negative, got %d", c.States)
	}
	return nil
}

// Controller is the Elman-RNN policy network. The input at each step is
// a learned embedding of the previous action (index 0 is the start
// token); two softmax heads decode the hidden state, one for set
// decisions and one for pattern decisions.
type Controller struct {
	Cfg Config

	embed *mat.Matrix // (1 + maxActions) x hidden: action embeddings
	wh    *mat.Matrix // hidden x hidden recurrence
	bh    []float64   // hidden bias
	woSet *mat.Matrix // hidden x numSets head
	woPat *mat.Matrix // hidden x numPatterns head
}

// Episode records one sampled decision trajectory with the caches needed
// for the policy-gradient update.
type Episode struct {
	SetChoices     []int   // one per level
	PatternChoices [][]int // K per level
	LogProb        float64

	steps []stepCache
}

type stepCache struct {
	inputIdx int       // embedding row used as input
	h        []float64 // post-tanh hidden state
	probs    []float64 // softmax over the head used
	action   int       // sampled action
	isSet    bool      // which head
}

// NewController initializes the policy with small random weights.
func NewController(cfg Config, rng *rand.Rand) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	maxAct := cfg.NumSets
	if cfg.NumPatterns > maxAct {
		maxAct = cfg.NumPatterns
	}
	c := &Controller{
		Cfg:   cfg,
		embed: mat.New(1+maxAct+cfg.States, cfg.Hidden),
		wh:    mat.New(cfg.Hidden, cfg.Hidden),
		bh:    make([]float64, cfg.Hidden),
		woSet: mat.New(cfg.Hidden, cfg.NumSets),
		woPat: mat.New(cfg.Hidden, cfg.NumPatterns),
	}
	c.embed.Randomize(rng, 0.2)
	c.wh.Randomize(rng, 0.2)
	c.woSet.Randomize(rng, 0.2)
	c.woPat.Randomize(rng, 0.2)
	return c, nil
}

// Sample draws one trajectory: for each level, a set choice followed by
// K pattern choices.
func (c *Controller) Sample(rng *rand.Rand) *Episode {
	ep := &Episode{}
	h := make([]float64, c.Cfg.Hidden)
	prev := 0 // start token
	for lvl := 0; lvl < c.Cfg.Levels; lvl++ {
		h = c.step(h, prev, true, rng, ep)
		set := ep.steps[len(ep.steps)-1].action
		ep.SetChoices = append(ep.SetChoices, set)
		prev = 1 + set
		var pats []int
		for k := 0; k < c.Cfg.K; k++ {
			h = c.step(h, prev, false, rng, ep)
			p := ep.steps[len(ep.steps)-1].action
			pats = append(pats, p)
			prev = 1 + p
		}
		ep.PatternChoices = append(ep.PatternChoices, pats)
	}
	return ep
}

// stateInput maps a quantized context state to its embedding row; a
// negative state (or an unconfigured controller) falls back to the start
// token, the input of the first step of Sample.
func (c *Controller) stateInput(state int) int {
	if state < 0 || c.Cfg.States == 0 {
		return 0
	}
	if state >= c.Cfg.States {
		panic(fmt.Sprintf("rl: state %d out of range %d", state, c.Cfg.States))
	}
	return c.embed.Rows - c.Cfg.States + state
}

// SampleSetFrom draws a single set-head decision conditioned on a
// quantized context state: the episode's one RNN step starts from the
// state's learned embedding, so Reinforce updates both the head and the
// embedding — the policy learns a per-state level preference. This is
// the closed-loop serving path's sampler.
func (c *Controller) SampleSetFrom(state int, rng *rand.Rand) *Episode {
	ep := &Episode{}
	h := make([]float64, c.Cfg.Hidden)
	c.step(h, c.stateInput(state), true, rng, ep)
	ep.SetChoices = []int{ep.steps[0].action}
	return ep
}

// GreedySetFrom is the argmax counterpart of SampleSetFrom — the
// exploitation arm of the serving-time epsilon-greedy loop.
func (c *Controller) GreedySetFrom(state int) *Episode {
	ep := &Episode{}
	h := make([]float64, c.Cfg.Hidden)
	c.stepArgmax(h, c.stateInput(state), true, ep)
	ep.SetChoices = []int{ep.steps[0].action}
	return ep
}

// step advances the RNN one decision, sampling from the relevant head.
func (c *Controller) step(hPrev []float64, inputIdx int, isSet bool, rng *rand.Rand, ep *Episode) []float64 {
	h, probs := c.forward(hPrev, inputIdx, isSet)
	a := sampleCategorical(probs, rng)
	ep.LogProb += math.Log(math.Max(probs[a], 1e-12))
	ep.steps = append(ep.steps, stepCache{inputIdx: inputIdx, h: h, probs: probs, action: a, isSet: isSet})
	return h
}

func (c *Controller) stepArgmax(hPrev []float64, inputIdx int, isSet bool, ep *Episode) []float64 {
	h, probs := c.forward(hPrev, inputIdx, isSet)
	a := mat.Argmax(probs)
	ep.LogProb += math.Log(math.Max(probs[a], 1e-12))
	ep.steps = append(ep.steps, stepCache{inputIdx: inputIdx, h: h, probs: probs, action: a, isSet: isSet})
	return h
}

// forward computes h_t = tanh(embed[x] + Wh h_{t-1} + b) and the softmax
// of the chosen head.
func (c *Controller) forward(hPrev []float64, inputIdx int, isSet bool) (h, probs []float64) {
	n := c.Cfg.Hidden
	h = make([]float64, n)
	emb := c.embed.Row(inputIdx)
	for i := 0; i < n; i++ {
		s := emb[i] + c.bh[i]
		row := c.wh.Row(i)
		for j, hv := range hPrev {
			s += row[j] * hv
		}
		h[i] = math.Tanh(s)
	}
	head := c.woPat
	if isSet {
		head = c.woSet
	}
	logits := make([]float64, head.Cols)
	for j := 0; j < head.Cols; j++ {
		var s float64
		for i := 0; i < n; i++ {
			s += h[i] * head.At(i, j)
		}
		logits[j] = s
	}
	probs = make([]float64, len(logits))
	mat.Softmax(probs, logits)
	return h, probs
}

func sampleCategorical(probs []float64, rng *rand.Rand) int {
	r := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if r < acc {
			return i
		}
	}
	return len(probs) - 1
}

// Reinforce applies one REINFORCE policy-gradient update for the episode
// with the given advantage (reward minus baseline): parameters move in
// the direction advantage * d(log pi)/d(theta) via backpropagation
// through time.
func (c *Controller) Reinforce(ep *Episode, advantage float64) {
	n := c.Cfg.Hidden
	gEmbed := mat.New(c.embed.Rows, c.embed.Cols)
	gWh := mat.New(n, n)
	gBh := make([]float64, n)
	gWoSet := mat.New(n, c.Cfg.NumSets)
	gWoPat := mat.New(n, c.Cfg.NumPatterns)

	dhNext := make([]float64, n)
	for t := len(ep.steps) - 1; t >= 0; t-- {
		st := ep.steps[t]
		head, gHead := c.woPat, gWoPat
		if st.isSet {
			head, gHead = c.woSet, gWoSet
		}
		// dlogits for REINFORCE loss -A*log pi: softmax - onehot, scaled.
		dlog := make([]float64, len(st.probs))
		for j, p := range st.probs {
			dlog[j] = advantage * p
		}
		dlog[st.action] -= advantage

		dh := make([]float64, n)
		copy(dh, dhNext)
		for i := 0; i < n; i++ {
			for j, dl := range dlog {
				gHead.Set(i, j, gHead.At(i, j)+st.h[i]*dl)
				dh[i] += head.At(i, j) * dl
			}
		}
		// through tanh
		dpre := make([]float64, n)
		for i := 0; i < n; i++ {
			dpre[i] = dh[i] * (1 - st.h[i]*st.h[i])
		}
		// into embedding, bias, and recurrent weights
		var hPrev []float64
		if t > 0 {
			hPrev = ep.steps[t-1].h
		} else {
			hPrev = make([]float64, n)
		}
		gEmbRow := gEmbed.Row(st.inputIdx)
		for i := 0; i < n; i++ {
			gEmbRow[i] += dpre[i]
			gBh[i] += dpre[i]
			row := gWh.Row(i)
			for j := 0; j < n; j++ {
				row[j] += dpre[i] * hPrev[j]
			}
		}
		// gradient into h_{t-1}
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += c.wh.At(i, j) * dpre[i]
			}
			dhNext[j] = s
		}
	}

	lr := c.Cfg.LR
	c.embed.AddScaled(gEmbed, -lr)
	c.wh.AddScaled(gWh, -lr)
	for i := range c.bh {
		c.bh[i] -= lr * gBh[i]
	}
	c.woSet.AddScaled(gWoSet, -lr)
	c.woPat.AddScaled(gWoPat, -lr)
}

// Baseline is the exponential moving-average reward baseline used to
// reduce the variance of REINFORCE.
type Baseline struct {
	Decay float64
	value float64
	init  bool
}

// NewBaseline returns an EMA baseline with the given decay in (0, 1).
func NewBaseline(decay float64) *Baseline {
	return &Baseline{Decay: decay}
}

// Update folds a reward in and returns the advantage (reward - baseline
// before the update).
func (b *Baseline) Update(reward float64) float64 {
	if !b.init {
		b.value = reward
		b.init = true
		return 0
	}
	adv := reward - b.value
	b.value = b.Decay*b.value + (1-b.Decay)*reward
	return adv
}
