package main

import (
	"fmt"
	"time"

	"rt3/internal/cluster"
	"rt3/internal/serve"
	"rt3/internal/spec"
	"rt3/internal/transformer"
)

// smallRows splits kernel calls into the decode regime (a handful of
// rows per call) and the prefill regime (a packed prompt batch).
const smallRows = 16

// layerMetrics fills the traced run's per-layer metrics from the spans
// and counter changes of the timed phase.
func layerMetrics(ms metricSet, d *deployment, tr *tracer, reqs []genRequest, t timings, stalls []span, wall time.Duration, before, after counters, refused int) {
	wallNS := float64(wall.Nanoseconds())
	model := tr.model[before.modelSpans:after.modelSpans]
	kern := tr.kern[before.kernSpans:after.kernSpans]

	// serve: admission, batching, step loop, drain
	ms.setQuantile("serve.ttft_ms_p50", t.ttft, 0.50)
	ms.setQuantile("serve.ttft_ms_p90", t.ttft, 0.90)
	ms.setQuantile("serve.tpot_ms_p50", t.tpot, 0.50)
	ms.setQuantile("serve.tpot_ms_p90", t.tpot, 0.90)
	ms.setQuantile("serve.queue_wait_ms_p50", t.queue, 0.50)
	ms.setQuantile("serve.queue_wait_ms_p90", t.queue, 0.90)
	dec := after.dec
	steps, tokens := dec.Steps-before.dec.Steps, dec.Tokens-before.dec.Tokens
	ms.set("serve.decode_batch_mean", ratio(float64(tokens), float64(steps)), int(steps))
	prefills := dec.Prefills - before.dec.Prefills
	ms.set("serve.prefill_batch_mean", ratio(float64(dec.PrefillSeq-before.dec.PrefillSeq), float64(prefills)), int(prefills))

	var stallMS []float64
	for _, s := range stalls {
		stallMS = append(stallMS, float64(s.dur)/1e6)
	}
	switches := after.switches - before.switches
	installMS := ratio(after.switchInstallMS-before.switchInstallMS, float64(switches))
	ms.set("serve.switch_stall_ms_mean", mean(stallMS), len(stallMS))
	ms.setQuantile("serve.switch_stall_ms_p90", stallMS, 0.90)
	ms.set("serve.switch_install_ms_mean", installMS, switches)
	if len(stallMS) > 0 {
		ms.set("serve.switch_drain_ms_mean", mean(stallMS)-installMS, len(stallMS))
	}
	ms.set("serve.switches", float64(switches), 0)
	ms.set("serve.refused", float64(refused), 0)
	ms.set("serve.mallocs_per_req", ratio(float64(after.mallocs-before.mallocs), float64(len(reqs))), len(reqs))
	ms.set("serve.engine_build_ms", d.setup.engineBuildMS, 0)
	ms.set("serve.first_response_ms", d.setup.firstResponseMS, 0)

	// transformer: the three decode entry points, from the model shim
	type agg struct {
		durMS    []float64
		ns, rows float64
	}
	byKind := map[uint8]*agg{spanPrefill: {}, spanDecodeStep: {}, spanDecodeChunk: {}}
	stepByLevel := make([]agg, len(d.sh.levels))
	prefillByLevel := make([]agg, len(d.sh.levels))
	var busyNS, kernNS float64
	for _, s := range model {
		a := byKind[s.kind]
		a.durMS = append(a.durMS, float64(s.dur)/1e6)
		a.ns += float64(s.dur)
		a.rows += float64(s.rows)
		busyNS += float64(s.dur)
		kernNS += float64(s.inner)
		switch s.kind {
		case spanDecodeStep:
			stepByLevel[s.level].durMS = append(stepByLevel[s.level].durMS, float64(s.dur)/1e6)
		case spanPrefill:
			prefillByLevel[s.level].ns += float64(s.dur)
			prefillByLevel[s.level].rows += float64(s.rows)
		}
	}
	ms.setQuantile("transformer.prefill_ms_p50", byKind[spanPrefill].durMS, 0.50)
	ms.set("transformer.prefill_rows_s", ratio(byKind[spanPrefill].rows, byKind[spanPrefill].ns/1e9), len(byKind[spanPrefill].durMS))
	ms.setQuantile("transformer.decode_step_ms_p50", byKind[spanDecodeStep].durMS, 0.50)
	ms.setQuantile("transformer.decode_step_ms_p90", byKind[spanDecodeStep].durMS, 0.90)
	ms.setQuantile("transformer.decode_chunk_ms_p50", byKind[spanDecodeChunk].durMS, 0.50)
	ms.set("transformer.decode_chunk_rows_s", ratio(byKind[spanDecodeChunk].rows, byKind[spanDecodeChunk].ns/1e9), len(byKind[spanDecodeChunk].durMS))
	ms.set("transformer.busy_share", busyNS/wallNS, len(model))
	ms.set("transformer.self_share", ratio(busyNS-kernNS, busyNS), len(model))
	ms.set("transformer.kv_rows_read_per_tok", ratio(float64(dec.CachedRows-before.dec.CachedRows), float64(tokens)), int(tokens))
	for i, name := range d.sh.levels {
		ms.setQuantile("transformer.decode_step_ms_p50."+name, stepByLevel[i].durMS, 0.50)
		ms.set("transformer.prefill_rows_s."+name, ratio(prefillByLevel[i].rows, prefillByLevel[i].ns/1e9), 0)
	}
	// what is left of the wall once the model calls are taken out: the
	// step loop, admission, reply delivery and any idle wait
	ms.set("serve.loop_overhead_share", 1-busyNS/wallNS, 0)

	// kernel: every MulInto, from the format shim
	var smallNS, smallFlop, largeNS, largeFlop float64
	for _, s := range kern {
		flop := 2 * float64(s.rows) * float64(s.inner)
		if s.rows <= smallRows {
			smallNS, smallFlop = smallNS+float64(s.dur), smallFlop+flop
		} else {
			largeNS, largeFlop = largeNS+float64(s.dur), largeFlop+flop
		}
	}
	ms.set("kernel.mul_share", ratio(kernNS, busyNS), len(kern))
	ms.set("kernel.calls", float64(len(kern)), 0)
	ms.set("kernel.gflop_eq_s_small", ratio(smallFlop, smallNS), 0)
	ms.set("kernel.gflop_eq_s_large", ratio(largeFlop, largeNS), 0)
	// storage is computed from what the kernels report, not measured:
	// 8 bytes per stored float64 value, 4 per index word
	var nnz, dense, bytes float64
	for _, k := range tr.kernels {
		in, out := k.Dims()
		nnz += float64(k.NNZ())
		dense += float64(in) * float64(out)
		bytes += 8*float64(k.NNZ()) + 4*float64(k.IndexWords())
	}
	ms.set("kernel.stored_share", ratio(nnz, dense), len(tr.kernels))
	ms.set("kernel.weight_bytes", bytes, len(tr.kernels))
	ms.set("kernel.build_ms", float64(tr.buildNS)/1e6, len(tr.kernels))

	// spec: the server's radix prefix cache over the timed phase
	if st, ok := d.srv.PrefixCacheStats(); ok {
		lookups := after.lookups - before.lookups
		var needed float64 // prompt rows the timed requests had to have in their KV caches
		for _, r := range reqs {
			needed += float64(len(r.prompt))
		}
		ms.set("spec.radix_hit_share", ratio(float64(after.hits-before.hits), float64(lookups)), int(lookups))
		ms.set("spec.radix_hit_rows_share", ratio(float64(after.hitRows-before.hitRows), needed), int(lookups))
		ms.set("spec.radix_inserted_rows", float64(after.insertedRows-before.insertedRows), 0)
		ms.set("spec.radix_evicted_rows", float64(after.evictedRows-before.evictedRows), 0)
		ms.set("spec.radix_used_rows", float64(st.UsedRows), 0)
	}

	// pattern / deploy / rtswitch: timed directly during set-up
	ms.set("pattern.generate_sets_ms", d.setup.generateSetsMS, 0)
	ms.set("deploy.encode_decode_ms", d.setup.encodeDecodeMS, 0)
	ms.set("deploy.bundle_bytes", float64(d.setup.bundleBytes), 0)
	ms.set("deploy.set_bytes_mean", d.setup.setBytesMean, 0)
	ms.set("rtswitch.modeled_switch_ms_mean", d.setup.modeledSwitchMS, 0)

	// the run's own cost: spans recorded times the calibrated cost of one
	ms.set("bench.trace_overhead_share", float64(len(model)+len(kern))*spanCostNS()/wallNS, len(model)+len(kern))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probes measures the layers no workload reaches through the server's
// request path alone: direct calls into the radix cache at the
// workload's shape, and the cluster router in front of two nodes.
func probes(ms metricSet, d *deployment, w workload, o runOpts) error {
	if w.splitAt > 0 {
		if err := radixProbe(ms, d, w, o.seed); err != nil {
			return fmt.Errorf("radix probe: %w", err)
		}
	}
	if err := clusterProbe(ms, d.sh, o); err != nil {
		return fmt.Errorf("cluster probe: %w", err)
	}
	return nil
}

// radixProbe times Radix.Insert and Match+Load+Release directly, on a
// decode state holding one system prompt plus suffix of the workload's
// lengths. Each insert goes to a fresh cache so it always copies rows.
func radixProbe(ms metricSet, d *deployment, w workload, seed int64) error {
	const rounds = 64
	model := transformer.NewLMModel(d.sh.cfg, newRand(d.sh.seed))
	_, reqs := w.generate(seed, 1, d.sh.cfg.Vocab)
	prefix, suffix := reqs[0].prompt[:w.splitAt], reqs[0].prompt[w.splitAt:]
	st := model.NewDecodeState()
	model.Prefill([]*transformer.DecodeState{st}, [][]int{prefix})
	model.DecodeChunk([]*transformer.DecodeState{st}, [][]int{suffix})

	var insertUS, matchUS []float64
	load := model.NewDecodeState()
	for i := 0; i < rounds; i++ {
		r := spec.NewRadix(0)
		t0 := time.Now()
		r.Insert(0, prefix, suffix, st)
		insertUS = append(insertUS, float64(time.Since(t0).Nanoseconds())/1e3)

		t0 = time.Now()
		h := r.Match(0, prefix, suffix[:len(suffix)-1])
		if h == nil {
			return fmt.Errorf("inserted prefix did not match")
		}
		h.Load(load)
		h.Release()
		matchUS = append(matchUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	ms.setQuantile("spec.radix_insert_us_p50", insertUS, 0.50)
	ms.setQuantile("spec.radix_match_load_us_p50", matchUS, 0.50)
	return nil
}

// clusterProbe sends one-token requests with recurring session keys
// through a Router over two nodes and times Router.SubmitGen itself:
// the routing decision, not the model work behind it — so the nodes
// serve a model just large enough to answer.
func clusterProbe(ms metricSet, sh shape, o runOpts) error {
	const sessions = 16
	n := max(sessions, int(1000*o.seconds/referenceSeconds*o.scale))
	sh.cfg = transformer.Config{
		Vocab: sh.cfg.Vocab, Dim: 16, Heads: 2, FFHidden: 32,
		EncLayers: 1, DecLayers: 1, SeqLen: 16,
	}
	var nodes []*cluster.Node
	for i := 0; i < 2; i++ {
		d, err := buildEngine(sh, nil)
		if err != nil {
			return err
		}
		defer d.eng.Close()
		nodes = append(nodes, cluster.NewNode(i, serve.New(d.eng, serveConfig(0))))
	}
	router := cluster.New(nodes, cluster.Config{Seed: o.seed})
	router.Start()
	defer router.Stop()

	rng := newRand(o.seed)
	var submitUS []float64
	for i := 0; i < n; i++ {
		prompt := []int{rng.Intn(sh.cfg.Vocab), rng.Intn(sh.cfg.Vocab)}
		t0 := time.Now()
		ch, err := router.SubmitGen(uint64(i%sessions), prompt, 1, -1)
		submitUS = append(submitUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
		if resp := <-ch; resp.Err != nil {
			return resp.Err
		}
	}
	ms.setQuantile("cluster.submit_us_p50", submitUS, 0.50)
	ms.set("cluster.affinity_hit_share", router.Stats().AffinityHitRate(), n)
	return nil
}
