package serve

import (
	"fmt"
	"slices"
	"time"

	"rt3/internal/mat"
	"rt3/internal/obs"
	"rt3/internal/transformer"
)

// GenResponse is the answer to one generation request.
type GenResponse struct {
	// Err is non-nil when the request was abandoned: ErrStopped when the
	// server was stopped before ever starting, or ErrCrashed when Kill
	// abandoned it mid-flight — in the latter case Tokens carries the
	// committed partial output (possibly empty), which a router resumes
	// on another node via SubmitGenResume. All other error cases leave
	// the remaining fields zero.
	Err error
	// Tokens holds the generated tokens (the prompt excluded; a resumed
	// request's committed prefix included). When an EOS token was
	// requested and produced it is the final entry.
	Tokens []int
	// Level is the V/F level active when the generation completed. A
	// live switch mid-generation is legal — the sequence keeps its KV
	// cache and continues on the new level's kernels, exactly as queued
	// batch requests span switches today.
	Level int
	// Steps is the number of fused decode steps the sequence rode in
	// after admission: len(Tokens)-1, less a resumed request's prefix.
	// The first token after the prefix comes from the admitting pass.
	Steps int
	// QueueMS is admission-to-prefill-dispatch wait. PrefillMS is the
	// fused prompt pass's execution time (shared by every sequence
	// admitted in it). DecodeMS accumulates the fused decode steps this
	// sequence was active in. TotalMS is admission to completion.
	QueueMS, PrefillMS, DecodeMS, TotalMS float64
	// CachedRows is the number of prefill K/V rows served from the
	// prefix cache instead of being recomputed: the split prefix's length
	// on a hit, 0 otherwise (split requests only).
	CachedRows int
}

// genReq is one queued generation request, admitted as a memory plus a
// tail. The memory is what the frozen encoder memory is built over: the
// prompt, or its split prefix. The tail is teacher-forced through the
// decoder after it: the split suffix, then the tokens a resumed
// generation already committed (e.g. on a node that crashed). A split
// request (split > 0) is eligible for the prefix cache.
type genReq struct {
	memory    []int
	tail      []int
	split     int // length of the split suffix heading tail
	maxTokens int
	eos       int
	enq       time.Time
	resp      chan GenResponse
	tr        *obs.Trace // nil when tracing is disabled
}

// GenOpts are per-request generation options beyond SubmitGen's.
type GenOpts struct {
	// Prefix resumes from already-committed tokens (see SubmitGenResume).
	Prefix []int
	// SplitAt, when > 0, declares prompt[:SplitAt] a shared prefix (e.g.
	// a system prompt): the frozen cross-attention memory is the encoder
	// over the prefix alone and the suffix is teacher-forced through the
	// decoder — the split semantics under which decoder K/V rows are
	// prefix-stable and shareable through the prefix cache. Split
	// and whole-prompt requests condition on different memories, so their
	// references are DenseGenReferenceSplit and DenseGenReference
	// respectively. 0 keeps whole-prompt semantics.
	SplitAt int
	// MaxTokens <= 0 picks Config.MaxGenTokens, and above it fails with
	// ErrBadBudget; EOS < 0 disables EOS.
	MaxTokens, EOS int
}

// genBudget resolves a request's token budget against
// Config.MaxGenTokens: <= 0 picks the cap, above it is ErrBadBudget.
// The cap bounds what admission reserves for a sequence's KV cache.
func (s *Server) genBudget(maxTokens int) (int, error) {
	switch {
	case maxTokens <= 0:
		return s.cfg.MaxGenTokens, nil
	case maxTokens > s.cfg.MaxGenTokens:
		return 0, fmt.Errorf("%w: %d > %d", ErrBadBudget, maxTokens, s.cfg.MaxGenTokens)
	}
	return maxTokens, nil
}

// SubmitGenOpts admits one generation request with per-request options
// — prefix-cache-eligible split prompts, resume — and returns its
// response channel (buffered; exactly one send). See SubmitGen for the
// base semantics and error cases; a SplitAt that does not cut the
// prompt into a non-empty prefix and suffix fails with ErrBadSplit,
// ErrBadToken covers the resume prefix as well as the prompt, and a
// resume prefix longer than the budget fails with ErrBadBudget.
func (s *Server) SubmitGenOpts(prompt []int, o GenOpts) (<-chan GenResponse, error) {
	if !s.cfg.Generate {
		return nil, ErrNotGenerating
	}
	if len(prompt) == 0 {
		return nil, ErrEmptyRequest
	}
	if o.SplitAt < 0 || o.SplitAt >= len(prompt) {
		return nil, ErrBadSplit
	}
	for _, ids := range [][]int{prompt, o.Prefix} {
		if err := s.checkTokens(ids); err != nil {
			return nil, err
		}
	}
	maxTokens, err := s.genBudget(o.MaxTokens)
	if err != nil {
		return nil, err
	}
	if len(o.Prefix) > maxTokens {
		return nil, fmt.Errorf("%w: resuming %d tokens > %d", ErrBadBudget, len(o.Prefix), maxTokens)
	}
	eos := o.EOS
	if eos < 0 {
		eos = -1
	}
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.stopped {
		return nil, ErrStopped
	}
	if n := len(o.Prefix); n > 0 && (n == maxTokens || o.Prefix[n-1] == eos) {
		resp := make(chan GenResponse, 1)
		resp <- GenResponse{
			Tokens: append([]int(nil), o.Prefix...),
			Level:  s.eng.Level(),
		}
		return resp, nil
	}
	r := &genReq{
		memory:    prompt,
		tail:      o.Prefix,
		maxTokens: maxTokens,
		eos:       eos,
		enq:       time.Now(),
		resp:      make(chan GenResponse, 1),
	}
	if o.SplitAt > 0 {
		// Clip makes the append copy: never write into the caller's prompt
		r.memory, r.split = prompt[:o.SplitAt], len(prompt)-o.SplitAt
		r.tail = append(slices.Clip(prompt[o.SplitAt:]), o.Prefix...)
	}
	r.tr = s.tracer.StartAt("generate", r.enq)
	select {
	case s.genIn <- r:
		return r.resp, nil
	default:
		s.tracer.Abort(r.tr)
		s.rec.ObserveDrop()
		return nil, ErrQueueFull
	}
}

// SubmitGen admits one generation request and returns the channel its
// response will arrive on (buffered; exactly one send). maxTokens <= 0
// picks Config.MaxGenTokens; eos < 0 disables EOS detection. It fails
// fast with ErrNotGenerating on a server without Generate mode,
// ErrEmptyRequest for an empty prompt, ErrBadToken for an id outside
// the model's vocabulary, ErrBadBudget for a maxTokens above
// Config.MaxGenTokens, ErrQueueFull at capacity, and ErrStopped after
// Stop.
func (s *Server) SubmitGen(prompt []int, maxTokens, eos int) (<-chan GenResponse, error) {
	return s.SubmitGenOpts(prompt, GenOpts{MaxTokens: maxTokens, EOS: eos})
}

// SubmitGenResume admits a generation that resumes from an already
// committed token prefix — the failover path of a cluster router: when a
// node crashes mid-generation its partial GenResponse carries the tokens
// generated so far, and re-submitting them here on a healthy node
// continues the stream without discarding them. Admission rebuilds the
// frozen encoder memory and teacher-forces the prefix through the
// decoder as one chunk, after any split suffix — the chunk's last row
// yields the next token, and the rebuilt KV cache is bit-identical
// to the crashed node's at the same level (DecodeChunk equals sequential
// decode steps) — then decodes on. The response's Tokens include the
// prefix; maxTokens bounds the total generated tokens, prefix included,
// so a prefix longer than it fails with ErrBadBudget. A prefix that
// already ends the generation (EOS or budget) completes immediately
// without touching a worker. A nil prefix is exactly SubmitGen.
func (s *Server) SubmitGenResume(prompt, prefix []int, maxTokens, eos int) (<-chan GenResponse, error) {
	return s.SubmitGenOpts(prompt, GenOpts{Prefix: prefix, MaxTokens: maxTokens, EOS: eos})
}

// genSlot is one active sequence in a worker's step loop: every fused
// step feeds its last token and appends the argmax.
type genSlot struct {
	req    *genReq
	st     *transformer.DecodeState
	tokens []int
	steps  int
	// cachedRows counts the prefill K/V rows the prefix cache
	// served at admission (reported as GenResponse.CachedRows).
	cachedRows int
	queueMS    float64
	prefillMS  float64
	decodeMS   float64
}

// done reports whether the slot's latest token finished the sequence.
func (sl *genSlot) done() bool {
	last := sl.tokens[len(sl.tokens)-1]
	return last == sl.req.eos || len(sl.tokens) >= sl.req.maxTokens
}

// worker is the continuous-batching step loop owning one engine
// replica: every iteration it admits queued requests into free decode
// slots (prefilling them as one fused packed pass), advances all active
// sequences by one fused decode step, and evicts sequences that hit EOS
// or their token budget — their responses are delivered and their KV
// caches recycled through a free-list, so steady-state decoding
// allocates nothing. Queued classification requests ride the same loop:
// each iteration drains up to MaxBatch of them and executes the batch
// as one fused forward pass between decode steps (mixed traffic, one
// level per iteration). The execMu read lock spans one admission +
// classification batch + step, so a live pattern-set/V/F switch drains
// in-flight work at step granularity.
func (s *Server) worker(replica int) {
	defer s.wg.Done()
	var (
		slots    []*genSlot
		finished []*genSlot
		free     []*transformer.DecodeState
		admit    []*genReq
		states   []*transformer.DecodeState
		tokens   []int
		cls      []*request
		clsIDs   [][]int
	)
	genOpen, clsOpen := true, true
	for genOpen || clsOpen || len(slots) > 0 {
		// a crash abandons in-flight sequences at the step boundary:
		// responses carry ErrCrashed plus the committed token prefix a
		// router resumes elsewhere via SubmitGenResume
		if s.killed() {
			level := s.eng.Level()
			for _, sl := range slots {
				s.tracer.Abort(sl.req.tr)
				sl.req.resp <- GenResponse{
					Err:    ErrCrashed,
					Tokens: append([]int(nil), sl.tokens...),
					Level:  level,
					Steps:  sl.steps,
				}
			}
			for r := range s.genIn {
				s.tracer.Abort(r.tr)
				r.resp <- GenResponse{Err: ErrCrashed}
			}
			for r := range s.in {
				s.tracer.Abort(r.tr)
				r.resp <- Response{Err: ErrCrashed}
			}
			return
		}
		admit = admit[:0]
		cls = cls[:0]
		// block only when fully idle: no active slots and nothing drained
		// yet — the first arrival on either queue wakes the loop
		if len(slots) == 0 {
			switch {
			case genOpen && clsOpen:
				select {
				case r, ok := <-s.genIn:
					if !ok {
						genOpen = false
					} else {
						admit = append(admit, r)
					}
				case r, ok := <-s.in:
					if !ok {
						clsOpen = false
					} else {
						cls = append(cls, r)
					}
				}
			case genOpen:
				r, ok := <-s.genIn
				if !ok {
					genOpen = false
				} else {
					admit = append(admit, r)
				}
			case clsOpen:
				r, ok := <-s.in
				if !ok {
					clsOpen = false
				} else {
					cls = append(cls, r)
				}
			}
		}
		// non-blocking top-ups on both queues
	genTop:
		for genOpen && len(slots)+len(admit) < s.cfg.MaxBatch {
			select {
			case r, ok := <-s.genIn:
				if !ok {
					genOpen = false
				} else {
					admit = append(admit, r)
				}
			default:
				break genTop
			}
		}
	clsTop:
		for clsOpen && len(cls) < s.cfg.MaxBatch {
			select {
			case r, ok := <-s.in:
				if !ok {
					clsOpen = false
				} else {
					cls = append(cls, r)
				}
			default:
				break clsTop
			}
		}

		finished = finished[:0]
		s.execMu.RLock()
		level := s.eng.Level()
		if len(cls) > 0 {
			s.classifyBatch(replica, level, cls, &clsIDs)
		}
		if len(admit) > 0 {
			slots = append(slots, s.admitGen(replica, level, admit, &free, &finished)...)
		}
		if len(slots) > 0 {
			tokens = tokens[:0]
			states = states[:0]
			for _, sl := range slots {
				tokens = append(tokens, sl.tokens[len(sl.tokens)-1])
				states = append(states, sl.st)
			}
			t0 := time.Now()
			logits, err := s.eng.DecodeBatch(replica, states, tokens)
			s.simDVFSDelay(level, t0)
			stepDur := time.Since(t0)
			stepMS := float64(stepDur.Microseconds()) / 1000
			batch := float64(len(slots))
			n := 0
			for i, sl := range slots {
				if s.tracer.SampleStep(sl.steps) {
					sl.req.tr.Add("decode_step", t0, stepDur,
						"step", float64(sl.steps), "batch", batch)
				}
				sl.steps++
				sl.decodeMS += stepMS
				if err != nil {
					free = append(free, sl.st)
					s.tracer.Abort(sl.req.tr)
					sl.req.resp <- GenResponse{Err: err}
					continue
				}
				sl.tokens = append(sl.tokens, logits.ArgmaxRow(i))
				if sl.done() {
					finished = append(finished, sl)
				} else {
					slots[n] = sl
					n++
				}
			}
			slots = slots[:n]
		}
		s.execMu.RUnlock()

		for _, sl := range finished {
			free = append(free, sl.st)
			s.finishGen(sl, level)
		}
	}
}

// admitGen admits a batch of generation requests into fresh decode
// slots at the active level: one fused prefill over the memories the
// prefix cache missed, then one fused chunk teacher-forcing every
// non-empty tail, with prefix-cache lookups before and inserts after.
// Each request's first token is the last row of whichever pass ended it.
// Called with execMu read-held; returns the started slots (ones the
// first token already finishes are delivered by the caller via the
// finished list).
func (s *Server) admitGen(replica, level int, admit []*genReq, free *[]*transformer.DecodeState, finished *[]*genSlot) []*genSlot {
	type adm struct {
		r          *genReq
		st         *transformer.DecodeState
		memory     []int // prefilled; nil when the prefix cache served it
		cachedRows int
		first      int // first token: argmax of the ending pass's last row
	}

	dispatch := time.Now()
	adms := make([]*adm, 0, len(admit))
	for _, r := range admit {
		st, err := s.takeState(replica, free)
		if err != nil {
			s.tracer.Abort(r.tr)
			r.resp <- GenResponse{Err: err}
			continue
		}
		st.Reserve(len(r.memory) + r.split + r.maxTokens)
		a := &adm{r: r, st: st, memory: r.memory}
		if r.split > 0 && s.prefixCache != nil {
			if h := s.prefixCache.Match(level, r.memory, nil); h != nil {
				h.Load(st)
				a.cachedRows = h.Rows()
				a.memory = nil
				h.Release()
			}
		}
		adms = append(adms, a)
	}
	if len(adms) == 0 {
		return nil
	}

	// phase 1: one fused prefill over the memories the cache missed. The
	// logits are views into the replica's activation buffers, valid only
	// until its next forward: take the first tokens the prefill ends now
	var states []*transformer.DecodeState
	var seqs [][]int
	var ended []*adm
	rows := 0
	for _, a := range adms {
		if a.memory != nil {
			states, seqs, ended = append(states, a.st), append(seqs, a.memory), append(ended, a)
			rows += len(a.memory)
		}
	}
	var outs []*mat.Matrix
	var err error
	if len(states) > 0 {
		if outs, err = s.eng.PrefillBatch(replica, states, seqs); err == nil {
			for i, a := range ended {
				if len(a.r.tail) == 0 {
					a.first = outs[i].ArgmaxRow(outs[i].Rows - 1)
				}
			}
		}
	}

	// phase 2: one fused chunk teacher-forcing every non-empty tail — the
	// split suffixes, then the resumed tokens — against its memory
	states, seqs, ended = states[:0], seqs[:0], ended[:0]
	for _, a := range adms {
		if len(a.r.tail) > 0 {
			states, seqs, ended = append(states, a.st), append(seqs, a.r.tail), append(ended, a)
			rows += len(a.r.tail)
		}
	}
	if err == nil && len(states) > 0 {
		if outs, err = s.eng.DecodeChunkBatch(replica, states, seqs); err == nil {
			for i, a := range ended {
				a.first = outs[i].ArgmaxRow(outs[i].Rows - 1)
			}
			if s.prefixCache != nil {
				for _, a := range adms {
					if a.r.split > 0 {
						s.prefixCache.Insert(level, a.r.memory, nil, a.st)
					}
				}
			}
		}
	}

	s.simDVFSDelay(level, dispatch)
	prefillDur := time.Since(dispatch)
	prefillMS := float64(prefillDur.Microseconds()) / 1000
	s.rec.ObserveBatch(len(adms), s.cfg.MaxBatch)

	var started []*genSlot
	for _, a := range adms {
		r := a.r
		if err != nil {
			*free = append(*free, a.st)
			s.tracer.Abort(r.tr)
			r.resp <- GenResponse{Err: err}
			continue
		}
		r.tr.Add("queue", r.enq, dispatch.Sub(r.enq), "batch", float64(len(adms)), "", 0)
		r.tr.Add("prefill", dispatch, prefillDur, "rows", float64(rows), "level", float64(level))
		sl := &genSlot{
			req: r, st: a.st,
			// the resumed tokens, then the first new one
			tokens:     append(slices.Clip(r.tail[r.split:]), a.first),
			cachedRows: a.cachedRows,
			queueMS:    float64(dispatch.Sub(r.enq).Microseconds()) / 1000,
			prefillMS:  prefillMS,
		}
		if sl.done() {
			*finished = append(*finished, sl)
		} else {
			started = append(started, sl)
		}
	}
	return started
}

// takeState pops a recycled DecodeState off the worker's free-list or
// builds a fresh one.
func (s *Server) takeState(replica int, free *[]*transformer.DecodeState) (*transformer.DecodeState, error) {
	if n := len(*free); n > 0 {
		st := (*free)[n-1]
		*free = (*free)[:n-1]
		return st, nil
	}
	return s.eng.NewDecodeState(replica)
}

// finishGen records one completed generation's latency split, charges
// the modeled energy of its generated tokens and then delivers it, so a
// client that holds its response finds it traced and recorded.
func (s *Server) finishGen(sl *genSlot, level int) {
	resp := GenResponse{
		Tokens:     sl.tokens,
		Level:      level,
		Steps:      sl.steps,
		CachedRows: sl.cachedRows,
		QueueMS:    sl.queueMS,
		PrefillMS:  sl.prefillMS,
		DecodeMS:   sl.decodeMS,
		TotalMS:    float64(time.Since(sl.req.enq).Microseconds()) / 1000,
	}
	sl.req.tr.Add("finish", time.Now(), 0,
		"tokens", float64(len(sl.tokens)), "steps", float64(sl.steps))
	s.tracer.Finish(sl.req.tr)
	s.rec.Observe(level, sl.queueMS, sl.prefillMS+sl.decodeMS)
	s.rec.ObserveTokens(len(sl.tokens))
	s.drainEnergy(level, len(sl.tokens))
	sl.req.resp <- resp
}
