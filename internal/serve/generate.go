package serve

import (
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
	// request's replayed prefix included). When an EOS token was
	// requested and produced it is the final entry.
	Tokens []int
	// Level is the V/F level active when the generation completed. A
	// live switch mid-generation is legal — the sequence keeps its KV
	// cache and continues on the new level's kernels, exactly as queued
	// batch requests span switches today.
	Level int
	// Steps is the number of fused decode steps the sequence rode in —
	// len(Tokens)-1 for a fresh generation (the first token comes from
	// the prefill pass); a resumed generation additionally rides one
	// replay step per prefix token fed back through the cache.
	Steps int
	// QueueMS is admission-to-prefill-dispatch wait. PrefillMS is the
	// fused prompt pass's execution time (shared by every sequence
	// admitted in it). DecodeMS accumulates the fused decode steps this
	// sequence was active in. TotalMS is admission to completion.
	QueueMS, PrefillMS, DecodeMS, TotalMS float64
	// CachedRows is the number of prefill K/V rows served from the radix
	// prefix cache instead of being recomputed (split requests only).
	CachedRows int
}

// genReq is one queued generation request. A non-empty prefix marks a
// resumed generation: tokens already committed by a previous attempt
// (e.g. on a node that crashed) that the decode worker replays through
// the KV cache before generating new ones. memLen > 0 marks a split
// request (prompt[:memLen] is the frozen-memory prefix, eligible for
// the radix prefix cache).
type genReq struct {
	prompt    []int
	prefix    []int
	memLen    int
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
	// prefix-stable and shareable through the radix prefix cache. Split
	// and whole-prompt requests condition on different memories, so their
	// references are DenseGenReferenceSplit and DenseGenReference
	// respectively. 0 keeps whole-prompt semantics.
	SplitAt int
	// MaxTokens <= 0 picks Config.MaxGenTokens; EOS < 0 disables EOS.
	MaxTokens, EOS int
}

// SubmitGenOpts admits one generation request with per-request options
// — prefix-cache-eligible split prompts, resume — and returns its
// response channel (buffered; exactly one send). See SubmitGen for the
// base semantics and error cases; a SplitAt that does not cut the
// prompt into a non-empty prefix and suffix fails with ErrBadSplit, and
// ErrBadToken covers the resume prefix as well as the prompt.
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
	maxTokens := o.MaxTokens
	if maxTokens <= 0 {
		maxTokens = s.cfg.MaxGenTokens
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
	if n := len(o.Prefix); n > 0 && (n >= maxTokens || o.Prefix[n-1] == eos) {
		resp := make(chan GenResponse, 1)
		resp <- GenResponse{
			Tokens: append([]int(nil), o.Prefix...),
			Level:  s.eng.Level(),
		}
		return resp, nil
	}
	r := &genReq{
		prompt:    prompt,
		prefix:    o.Prefix,
		memLen:    o.SplitAt,
		maxTokens: maxTokens,
		eos:       eos,
		enq:       time.Now(),
		resp:      make(chan GenResponse, 1),
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
// the model's vocabulary, ErrQueueFull at capacity, and ErrStopped after
// Stop.
func (s *Server) SubmitGen(prompt []int, maxTokens, eos int) (<-chan GenResponse, error) {
	return s.SubmitGenOpts(prompt, GenOpts{MaxTokens: maxTokens, EOS: eos})
}

// SubmitGenResume admits a generation that resumes from an already
// committed token prefix — the failover path of a cluster router: when a
// node crashes mid-generation its partial GenResponse carries the tokens
// generated so far, and re-submitting them here on a healthy node
// continues the stream without discarding them. The worker re-prefills
// the prompt (rebuilding the frozen encoder memory) and replays the
// prefix through fused decode steps — teacher-forcing the recorded
// tokens, so the rebuilt KV cache is bit-identical to the crashed node's
// at the same level (the truncate-replay equivalence DecodeState
// TruncateTo pins) — then decodes on. The response's Tokens include the
// prefix; maxTokens still bounds the total generated tokens, prefix
// included. A prefix that already ends the generation (EOS or budget)
// completes immediately without touching a worker. A nil prefix is
// exactly SubmitGen.
func (s *Server) SubmitGenResume(prompt, prefix []int, maxTokens, eos int) (<-chan GenResponse, error) {
	return s.SubmitGenOpts(prompt, GenOpts{Prefix: prefix, MaxTokens: maxTokens, EOS: eos})
}

// genSlot is one active sequence in a decode worker's step loop. feed
// indexes the token the next fused step feeds: it trails len(tokens)-1
// while a resumed prefix is being replayed through the cache (produced
// logits are discarded — the tokens are already committed) and sticks to
// the last token once caught up, when every step appends its argmax.
type genSlot struct {
	req    *genReq
	st     *transformer.DecodeState
	tokens []int
	feed   int
	steps  int
	// cachedRows counts the prefill K/V rows the radix prefix cache
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

// decodeWorker is the continuous-batching step loop owning one engine
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
// in-flight work at step granularity, exactly as it drains batches in
// classification mode.
func (s *Server) decodeWorker(replica int) {
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
				tokens = append(tokens, sl.tokens[sl.feed])
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
				if sl.feed == len(sl.tokens)-1 {
					sl.tokens = append(sl.tokens, logits.ArgmaxRow(i))
				}
				sl.feed++
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
// slots: one fused prefill over whole prompts (classic requests) and
// uncached prefixes (split requests), one fused chunk teacher-forcing
// every split request's uncovered suffix, and prefix-cache lookups and
// inserts at the active level. Called with execMu read-held; returns
// the started slots (finished ones — resumed prefixes already terminal
// — are delivered by the caller via the finished list).
func (s *Server) admitGen(replica, level int, admit []*genReq, free *[]*transformer.DecodeState, finished *[]*genSlot) []*genSlot {
	type adm struct {
		r          *genReq
		st         *transformer.DecodeState
		tail       []int // uncovered suffix rows to teacher-force (split only)
		cachedRows int
		first      int // first generated token (argmax of the admitting pass)
		needsPre   bool
		preIdx     int // row in the fused prefill batch
		tailIdx    int // row in the fused chunk batch
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
		st.Reserve(len(r.prompt) + r.maxTokens)
		a := &adm{r: r, st: st, needsPre: true, preIdx: -1, tailIdx: -1}
		if r.memLen > 0 {
			prefix := r.prompt[:r.memLen]
			suffix := r.prompt[r.memLen:]
			a.tail = suffix
			if s.prefixCache != nil {
				// cap the match one token short: the last suffix row is
				// always computed live so the chunk yields the first
				// generated token's logits
				if h := s.prefixCache.Match(level, prefix, suffix[:len(suffix)-1]); h != nil {
					h.Load(st)
					a.cachedRows = h.Rows()
					a.tail = suffix[h.Matched():]
					a.needsPre = false
					h.Release()
				}
			}
		}
		adms = append(adms, a)
	}
	if len(adms) == 0 {
		return nil
	}

	// phase 1: one fused prefill over whole prompts and uncached prefixes
	var pstates []*transformer.DecodeState
	var pprompts [][]int
	rows := 0
	for _, a := range adms {
		if !a.needsPre {
			continue
		}
		p := a.r.prompt
		if a.r.memLen > 0 {
			p = p[:a.r.memLen]
		}
		a.preIdx = len(pstates)
		pstates = append(pstates, a.st)
		pprompts = append(pprompts, p)
		rows += len(p)
	}
	var err error
	if len(pstates) > 0 {
		// the logits are a view into the replica's activation buffers,
		// valid only until its next forward — harvest whole-prompt first
		// tokens before phase 2 runs another pass
		var pouts []*mat.Matrix
		if pouts, err = s.eng.PrefillBatch(replica, pstates, pprompts); err == nil {
			for _, a := range adms {
				if a.preIdx >= 0 && a.r.memLen == 0 {
					out := pouts[a.preIdx]
					a.first = out.ArgmaxRow(out.Rows - 1)
				}
			}
		}
	}

	// phase 2: one fused chunk teacher-forcing every split request's
	// uncovered suffix against its frozen prefix memory
	var cstates []*transformer.DecodeState
	var cchunks [][]int
	for _, a := range adms {
		if a.r.memLen == 0 || err != nil {
			continue
		}
		a.tailIdx = len(cstates)
		cstates = append(cstates, a.st)
		cchunks = append(cchunks, a.tail)
		rows += len(a.tail)
	}
	if err == nil && len(cstates) > 0 {
		var couts []*mat.Matrix
		if couts, err = s.eng.DecodeChunkBatch(replica, cstates, cchunks); err == nil {
			for _, a := range adms {
				if a.tailIdx >= 0 {
					out := couts[a.tailIdx]
					a.first = out.ArgmaxRow(out.Rows - 1)
				}
			}
			if s.prefixCache != nil {
				for _, a := range adms {
					if a.r.memLen > 0 {
						s.prefixCache.Insert(level, a.r.prompt[:a.r.memLen], a.r.prompt[a.r.memLen:], a.st)
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
			cachedRows: a.cachedRows,
			queueMS:    float64(dispatch.Sub(r.enq).Microseconds()) / 1000,
			prefillMS:  prefillMS,
		}
		if len(r.prefix) > 0 {
			sl.tokens = append(sl.tokens, r.prefix...)
		} else {
			sl.tokens = append(sl.tokens, a.first)
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

// finishGen delivers one completed generation, records its latency
// split, and charges the modeled energy of its generated tokens.
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
	sl.req.resp <- resp
	sl.req.tr.Add("finish", time.Now(), 0,
		"tokens", float64(len(sl.tokens)), "steps", float64(sl.steps))
	s.tracer.Finish(sl.req.tr)
	s.rec.Observe(level, sl.queueMS, sl.prefillMS+sl.decodeMS)
	s.rec.ObserveTokens(len(sl.tokens))
	s.drainEnergy(level, len(sl.tokens))
}
