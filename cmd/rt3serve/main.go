// Command rt3serve runs the batched, reconfiguration-aware inference
// server on a synthetic deployment: it packs a DistilBERT-style
// classifier plus one pattern set per V/F level into a deploy bundle,
// loads the bundle into internal/serve, and either prints the
// deployment summary with a smoke inference per level (default) or
// replays an open-loop traffic ramp against a simulated draining
// battery (-load), reporting per-level p50/p95/p99 latency, throughput,
// live switch count and total reconfiguration overhead. In
// classification mode every response is verified against masked dense
// execution (-verify, on by default; a generation here may span a live
// level switch, which has no single-level dense reference, so generation
// mode skips it). Every -load mode offers its traffic through the one
// open-loop driver, internal/loadgen.
//
// With -gen the deployment becomes the encoder-decoder LM and the
// server runs KV-cached incremental decoding with continuous batching:
// requests are generation prompts, each admitted sequence prefills once
// and then rides fused one-token decode steps until EOS or its token
// budget, and live level switches drain at step granularity. The smoke
// path samples prompt lengths in [1, -gen-prompt] and budgets in
// [1, -gen-tokens]; the load path samples both uniformly from
// [max/2, max].
//
// With -autotune (requires -load) the level is driven by the closed-loop
// RL/DVFS controller instead of the battery governor: every 10ms
// control tick it converts the live telemetry window into the
// controller's state space, picks a level epsilon-greedily, learns
// online from the observed reward, and prints its decision log after
// the run. Works in both classification and generation mode — in the
// latter, switches land mid-generation at decode-step granularity.
//
// With -cluster N the deployment is replicated onto N simulated
// in-process nodes behind the session-affine cluster router (generation
// mode implied): requests carry session keys, the -router policy places
// unpinned sessions, a mid-run rollout drains each node in turn and
// switches its level with zero failed responses, and every routing
// decision lands in a seeded trace that is replay-verified before exit.
// In cluster mode -trace-out writes that decision trace (JSON,
// replayable via cluster.Replay) instead of the Chrome trace dump, and
// -verify dense-checks every generation.
//
// With -chaos <profile> (cluster mode) the bursty ramp is replaced by a
// seeded chaos scenario: a deterministic fault schedule — crashes,
// battery collapse, failed pattern switches, stragglers, overload
// pulses, rollouts — fires at virtual-time offsets against the
// -chaos-workload trace (builtin diurnal/flashcrowd or a trace JSON)
// while the router absorbs the damage with retries, failover, and
// per-node breakers. Every completed response dense-verifies against
// node 0 (never faulted), the decision trace is replay-checked, and
// -chaos-trace-out records which fault landed when with what outcome.
//
// SIGINT/SIGTERM drain gracefully in every -load mode: arrivals stop,
// in-flight requests finish, reports print, and -trace-out flushes. The
// admin /readyz endpoint flips to 503 the moment the drain begins.
//
// Usage:
//
//	rt3serve
//	rt3serve -load
//	rt3serve -load -autotune
//	rt3serve -gen
//	rt3serve -gen -load -gen-tokens 24 -rps-start 100 -rps-end 400
//	rt3serve -gen -load -autotune -duration 3s
//	rt3serve -cluster 4
//	rt3serve -cluster 4 -router least-loaded -load -duration 3s -step-floor 1ms
//	rt3serve -cluster 3 -chaos crash
//	rt3serve -cluster 3 -chaos all -chaos-workload flashcrowd -chaos-trace-out faults.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rt3/internal/kernel"
	"rt3/internal/loadgen"
	"rt3/internal/obs"
	"rt3/internal/rtswitch"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// evalLevelNames are the paper's evaluation levels, fastest first, with
// the sparsity deployed at each (sparser sets for slower levels keep the
// timing constraint satisfiable, Table III's shape).
var (
	evalLevelNames = []string{"l6", "l4", "l3"}
	evalSparsities = []float64{0.3, 0.5, 0.7}
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rt3serve: ")
	var (
		load     = flag.Bool("load", false, "replay an open-loop traffic ramp and report latency/switching")
		duration = flag.Duration("duration", 2*time.Second, "load-generator duration")
		rpsStart = flag.Float64("rps-start", 200, "arrival rate at the start of the ramp")
		rpsEnd   = flag.Float64("rps-end", 800, "arrival rate at the end of the ramp")
		workers  = flag.Int("workers", 2, "worker pool width (model replicas)")
		format   = flag.String("format", "pattern", "packed execution format from the kernel registry ("+strings.Join(kernel.Formats(), ", ")+")")
		batch    = flag.Int("batch", 8, "max requests per fused step (classification batch, decode slots)")
		autotune = flag.Bool("autotune", false, "closed-loop RL/DVFS controller: drive live level switches from the telemetry window, learning online (requires -load; replaces the battery governor)")
		atLog    = flag.Int("autotune-log", 12, "autotune: decision-log tail length printed after the run")
		simDVFS  = flag.Bool("sim-dvfs", false, "stretch execution to the active level's modeled frequency (f_fastest/f_level), so slower levels show real latency pressure")
		batteryJ = flag.Float64("battery-j", 0.25, "simulated battery capacity in joules (0 disables)")
		targetMS = flag.Float64("target-ms", 50, "latency objective fed to the policy")
		seed     = flag.Int64("seed", 1, "rng seed")
		verify   = flag.Bool("verify", true, "check every response against dense execution (classification mode)")
		gen      = flag.Bool("gen", false, "generation mode: KV-cached incremental decoding with continuous batching on the encoder-decoder LM")
		genTok   = flag.Int("gen-tokens", 16, "generation mode: max tokens per request (load mode samples budgets in [max/2, max])")
		genPrmpt = flag.Int("gen-prompt", 10, "generation mode: max prompt length (load mode samples lengths in [max/2, max])")

		clusterN  = flag.Int("cluster", 0, "run N simulated nodes behind the session-affine cluster router (implies -gen)")
		routerPol = flag.String("router", "hash", "cluster dispatch policy: hash (rendezvous on the session key), least-loaded, or p2c")
		sessions  = flag.Int("sessions", 64, "cluster mode: distinct session keys in the generated load")
		stepFloor = flag.Duration("step-floor", 0, "minimum wall time per fused execution step (models per-node compute capacity; cluster scaling demos rely on it)")

		chaosProf  = flag.String("chaos", "", "cluster mode: fire this seeded fault profile against a trace-driven workload instead of the bursty ramp (none, crash, collapse, switchfail, slowdown, pulse, rollout, all)")
		chaosWork  = flag.String("chaos-workload", "diurnal", "chaos mode: builtin workload trace (diurnal, flashcrowd) or a path to a versioned trace JSON")
		chaosTrace = flag.String("chaos-trace-out", "", "chaos mode: write the injector's fired-fault trace as JSON on exit (flushed on SIGTERM drain too)")

		adminAddr = flag.String("admin-addr", "", "serve /metrics, /trace, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:8080)")
		traceOut  = flag.String("trace-out", "", "write retained request traces as Chrome trace_event JSON to this file on exit")
		quiet     = flag.Bool("quiet", false, "suppress progress logging (warnings and errors only)")
		verbose   = flag.Bool("v", false, "debug logging, including live autotune decision lines")
	)
	flag.Parse()
	// checked before any deployment is built, for every mode that reads them
	if *genPrmpt < 1 {
		log.Fatalf("-gen-prompt %d: a prompt needs at least one token", *genPrmpt)
	}
	if *genTok < 1 {
		log.Fatalf("-gen-tokens %d: a generation needs a budget of at least one token", *genTok)
	}
	logger := obs.NewLogger(os.Stderr, "rt3serve: ", obs.LevelFromFlags(*quiet, *verbose))
	drain := installDrainHandler(logger)

	if *chaosProf != "" && *clusterN == 0 {
		log.Fatal("-chaos needs a fleet to fault: set -cluster N (N >= 2)")
	}
	if *clusterN > 0 {
		if *autotune {
			log.Fatal("-autotune drives a single server's level; cluster mode rolls levels out via drained switches instead")
		}
		// the single-server default battery (sized to force switches in a
		// 2s demo) would knock every node out of rotation mid-load; in
		// cluster mode the battery only drains when asked for explicitly —
		// except under -chaos, where the battery-collapse fault needs one
		clusterBattery := 0.0
		if *chaosProf != "" {
			clusterBattery = 200
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "battery-j" {
				clusterBattery = *batteryJ
			}
		})
		// the chaos workload embeds GLUE classification examples, whose
		// vocabulary (48 tokens) exceeds the demo LM's default 24
		vocab := 24
		if *chaosProf != "" {
			vocab = 48
		}
		runCluster(logger, drain, clusterOpts{
			nodes:     *clusterN,
			policy:    *routerPol,
			load:      *load,
			duration:  *duration,
			rps:       *rpsStart,
			sessions:  *sessions,
			workers:   *workers,
			format:    *format,
			batch:     *batch,
			stepFloor: *stepFloor,
			simDVFS:   *simDVFS,
			batteryJ:  clusterBattery,
			seed:      *seed,
			verify:    *verify,
			genTok:    *genTok,
			genPrmpt:  *genPrmpt,
			adminAddr: *adminAddr,
			traceOut:  *traceOut,

			vocab:         vocab,
			chaos:         *chaosProf,
			chaosWorkload: *chaosWork,
			chaosTraceOut: *chaosTrace,
		})
		return
	}

	d := buildDeployment(*seed, *workers, *gen, 24, serve.EngineConfig{Format: *format})
	eng := d.Engine
	defer eng.Close()
	printDeployment(d)
	mode := "classification"
	if *gen {
		mode = "incremental decoding"
	}
	logger.Infof("execution: %s kernels, %d replica(s), %s mode",
		eng.Format(), eng.Replicas(), mode)

	// smoke mode switches levels manually; only the load demo wants a
	// policy (or the closed-loop controller) fighting for the level
	var pol serve.Policy
	var atCfg *serve.AutotuneConfig
	if *autotune && !*load {
		log.Fatal("-autotune requires -load (the smoke path switches levels manually)")
	}
	if *load {
		if *autotune {
			atCfg = &serve.AutotuneConfig{Seed: *seed}
		} else {
			pol = serve.NewGovernorPolicy(eng.Levels(), 64)
		}
	}
	srv := serve.New(eng, serve.Config{
		MaxBatch:     *batch,
		QueueCap:     4096,
		Policy:       pol,
		Autotune:     atCfg,
		TargetMS:     *targetMS,
		SimDVFS:      *simDVFS,
		BatteryJ:     *batteryJ,
		Generate:     *gen,
		MaxGenTokens: *genTok,
		StepFloor:    *stepFloor,
		OnAutotuneDecision: func(d serve.AutotuneDecision) {
			sw := "-"
			if d.Switched {
				sw = fmt.Sprintf("%.2fms", d.SwitchCostMS)
			}
			logger.Debugf("autotune tick %d: state %d level %d p99 %.2fms reward %.3f explore %v switch %s",
				d.Tick, d.State, d.Level, d.Tel.Window.P99MS, d.Reward, d.Explore, sw)
		},
	})
	srv.Start()
	defer writeTraceFile(logger, srv, *traceOut)
	defer srv.Stop()

	if *adminAddr != "" {
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		mux := obs.NewAdminMux(obs.AdminOptions{
			Registries: []*obs.Registry{srv.Metrics()},
			Tracer:     srv.Tracer(),
			Ready: func() error {
				if draining(drain) {
					return errors.New("draining: shutdown in progress")
				}
				if srv.Stopped() {
					return errors.New("server stopped: admission closed")
				}
				return nil
			},
		})
		go func() { _ = http.Serve(ln, mux) }()
		logger.Infof("admin endpoint on http://%s (/metrics /trace /healthz /readyz /debug/pprof)", ln.Addr())
	}

	if !*load {
		if *gen {
			smokeGen(srv, *seed, *genPrmpt, *genTok)
		} else {
			smoke(srv, *seed)
		}
		return
	}

	controller := "governor"
	if *autotune {
		controller = "closed-loop autotune"
	}
	logger.Infof("replaying %.0f->%.0f req/s over %s (policy %s, battery %.2f J)",
		*rpsStart, *rpsEnd, *duration, controller, *batteryJ)
	spec := loadgen.Spec{
		Duration: *duration,
		Rate:     loadgen.Ramp(*rpsStart, *rpsEnd, *duration),
		Seed:     *seed,
		Cancel:   drain,
	}
	if *gen {
		spec.Sessions = 32
		spec.PromptMin, spec.PromptMax = (*genPrmpt+1)/2, *genPrmpt
		spec.OutMin, spec.OutMax = (*genTok+1)/2, *genTok
		spec.Vocab = 24
	} else {
		spec.ClassifyFraction = 1
		spec.Pool = loadgen.TokenPool(*seed, 10, 24)
		if *verify {
			spec.Verify = srv
		}
	}
	report, err := loadgen.Run(loadgen.Keyless(srv), spec)
	if err != nil {
		log.Fatal(err)
	}
	sum := srv.Summary()
	fmt.Printf("%s%s", report, sum)
	printBatchStats(eng)
	printDecodeStats(eng)
	printAutotune(srv, *atLog)
	if sum.Switches == 0 && !draining(drain) {
		log.Fatal("demo expected at least one live level switch; raise -duration or lower -battery-j")
	}
	if report.Shed > 0 || report.Failed > 0 || report.Mismatches > 0 {
		log.Fatalf("demo failed: %d shed, %d failed, %d incorrect", report.Shed, report.Failed, report.Mismatches)
	}
}

// installDrainHandler arms graceful shutdown: the first SIGINT/SIGTERM
// closes the returned channel, which stops the load driver from
// offering new arrivals while in-flight work runs to completion, so the
// normal exit path still prints reports and flushes -trace-out. The
// admin /readyz probe fails from that moment on. A second signal falls
// back to the runtime default (hard kill).
func installDrainHandler(logger *obs.Logger) <-chan struct{} {
	drain := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logger.Infof("%s received: draining (arrivals stop, in-flight work finishes; repeat to force quit)", s)
		close(drain)
		signal.Stop(sig)
	}()
	return drain
}

// draining reports whether graceful shutdown has begun.
func draining(drain <-chan struct{}) bool {
	select {
	case <-drain:
		return true
	default:
		return false
	}
}

// printBatchStats reports the fused-GEMM accounting of batched
// execution: every prunable projection issues one packed kernel product
// per forward pass, so fusing a dynamic batch of n sequences into one
// packed forward replaces n per-sequence GEMM sweeps with one.
func printBatchStats(eng *serve.Engine) {
	batches, seqs, rows := eng.BatchStats()
	if batches == 0 {
		return
	}
	lin := int64(eng.PrunableLinearCount())
	fused := batches * lin
	perSeq := seqs * lin
	fmt.Printf("batched execution: %d fused forwards, %d sequences, %d packed rows (mean batch %.1f, mean %.1f rows/forward)\n",
		batches, seqs, rows, float64(seqs)/float64(batches), float64(rows)/float64(batches))
	fmt.Printf("  fused GEMMs: %d packed kernel launches vs %d sequential (%d avoided, %.1fx fewer)\n",
		fused, perSeq, perSeq-fused, float64(perSeq)/float64(fused))
}

// buildDeployment deploys the DistilBERT-style classifier, or the
// encoder-decoder LM in generation mode, onto cloned worker replicas
// with the requested kernel format.
func buildDeployment(seed int64, workers int, gen bool, vocab int, cfg serve.EngineConfig) *serve.Deployment {
	spec := serve.DeploySpec{Seed: seed, Levels: evalLevelNames, Sparsities: evalSparsities, PSize: 4, Patterns: 3}
	var d *serve.Deployment
	var err error
	if gen {
		d, err = serve.Deploy(spec, func(rng *rand.Rand) *transformer.LMModel {
			return transformer.NewLMModel(transformer.Config{
				Vocab: vocab, Dim: 16, Heads: 2, FFHidden: 32, EncLayers: 2, DecLayers: 1, SeqLen: 16,
			}, rng)
		}, workers, cfg)
	} else {
		d, err = serve.Deploy(spec, func(rng *rand.Rand) *transformer.Classifier {
			return transformer.NewClassifier(transformer.Config{
				Vocab: vocab, Dim: 16, Heads: 2, FFHidden: 32, EncLayers: 2, SeqLen: 10, Classes: 3,
			}, rng)
		}, workers, cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	return d
}

// printDeployment echoes the paper's deployment story: the switchable
// section is tiny next to the artifact, so a live level switch costs
// milliseconds where a model reload costs seconds.
func printDeployment(d *serve.Deployment) {
	b, bundleBytes := d.Bundle, d.Bytes
	costs := rtswitch.DefaultSwitchCostModel()
	fmt.Printf("bundle: %d weights, %d levels, %d bytes total\n", len(b.Weights), len(b.Sets), bundleBytes)
	for i, name := range b.LevelNames {
		setBytes, err := b.SetBytes(i)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-3s sparsity %.2f  section %4d B  swap %6.3f ms  (reload %7.1f ms)\n",
			name, b.Sets[i].Sparsity, setBytes,
			costs.PatternSwitchMS(setBytes), costs.ModelSwitchMS(bundleBytes))
	}
	fmt.Println()
}

// printDecodeStats reports the KV-cache accounting of incremental
// decoding: every cached prefix row is a row the full-recompute path
// would have re-run through the whole decoder stack for that token.
func printDecodeStats(eng *serve.Engine) {
	st := eng.DecodeStats()
	if st.Steps == 0 {
		return
	}
	fmt.Printf("incremental decoding: %d prefills (%d sequences, %d prompt rows), %d fused steps, %d tokens\n",
		st.Prefills, st.PrefillSeq, st.PrefillRows, st.Steps, st.Tokens)
	fmt.Printf("  cache hits: %d prefix rows served from KV caches (%.1f rows/token not recomputed), %d states for %d sequences (free-list reuse)\n",
		st.CachedRows, float64(st.CachedRows)/float64(st.Tokens), st.States, st.PrefillSeq)
}

// printAutotune renders the closed-loop controller's run summary plus a
// tail of its live decision log (the full trace is replayable offline
// via serve.ReplayTrace — see docs/BENCHMARKS.md).
func printAutotune(srv *serve.Server, tail int) {
	tr, ok := srv.AutotuneTrace()
	if !ok || len(tr.Decisions) == 0 {
		return
	}
	eng := srv.Engine()
	perLevel := make([]int, eng.NumLevels())
	explored, switched, violations := 0, 0, 0
	var rewardSum float64
	for _, d := range tr.Decisions {
		perLevel[d.Level]++
		if d.Explore {
			explored++
		}
		if d.Switched {
			switched++
		}
		if !d.TimingMet {
			violations++
		}
		rewardSum += d.Reward
	}
	n := len(tr.Decisions)
	fmt.Printf("closed-loop autotune: %d control ticks (seed %d), %d explored, %d switches applied, %d window violations, mean reward %.3f\n",
		n, tr.Seed, explored, switched, violations, rewardSum/float64(n))
	fmt.Print("  level decisions:")
	for i, c := range perLevel {
		fmt.Printf("  %s %d", eng.LevelName(i), c)
	}
	fmt.Println()
	if tail > n {
		tail = n
	}
	if tail < 0 {
		tail = 0
	}
	fmt.Printf("  last %d decisions:\n", tail)
	fmt.Printf("  %6s %6s %-4s %8s %8s %9s %8s %5s %7s\n",
		"tick", "state", "lvl", "p99_ms", "battery", "fill", "reward", "expl", "switch")
	for _, d := range tr.Decisions[n-tail:] {
		sw := "-"
		if d.Switched {
			sw = fmt.Sprintf("%.2fms", d.SwitchCostMS)
		}
		fmt.Printf("  %6d %6d %-4s %8.2f %7.0f%% %8.0f%% %8.3f %5v %7s\n",
			d.Tick, d.State, eng.LevelName(d.Level), d.Tel.Window.P99MS,
			d.Tel.BatteryFraction*100, d.Tel.Window.FillRatio*100, d.Reward, d.Explore, sw)
	}
}

// writeTraceFile dumps the tracer's retained request traces as a Chrome
// trace_event file (loadable in chrome://tracing or Perfetto). Runs
// after Stop, so every delivered response's trace is included.
func writeTraceFile(logger *obs.Logger, srv *serve.Server, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		logger.Errorf("trace-out: %v", err)
		return
	}
	defer f.Close()
	if err := srv.Tracer().WriteTraceEvents(f, 0); err != nil {
		logger.Errorf("trace-out: %v", err)
		return
	}
	logger.Infof("wrote %d request traces to %s", srv.Tracer().Len(), path)
}

// smoke sends a few requests through each level and prints the digests.
func smoke(srv *serve.Server, seed int64) {
	rng := rand.New(rand.NewSource(seed + 1))
	eng := srv.Engine()
	for lvl := 0; lvl < eng.NumLevels(); lvl++ {
		if _, err := srv.SwitchTo(lvl); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			seq := make([]int, 10)
			for j := range seq {
				seq[j] = rng.Intn(24)
			}
			ch, err := srv.Submit(seq)
			if err != nil {
				log.Fatal(err)
			}
			<-ch
		}
	}
	fmt.Print(srv.Summary())
	printBatchStats(eng)
}

// smokeGen runs a few generations through each level and prints the
// latency digests plus the decode-cache accounting.
func smokeGen(srv *serve.Server, seed int64, maxPrompt, maxTokens int) {
	rng := rand.New(rand.NewSource(seed + 1))
	eng := srv.Engine()
	for lvl := 0; lvl < eng.NumLevels(); lvl++ {
		if _, err := srv.SwitchTo(lvl); err != nil {
			log.Fatal(err)
		}
		var chans []<-chan serve.GenResponse
		for i := 0; i < 6; i++ {
			prompt := make([]int, 1+rng.Intn(maxPrompt))
			for j := range prompt {
				prompt[j] = rng.Intn(24)
			}
			ch, err := srv.SubmitGen(prompt, 1+rng.Intn(maxTokens), -1)
			if err != nil {
				log.Fatal(err)
			}
			chans = append(chans, ch)
		}
		for _, ch := range chans {
			resp := <-ch
			if resp.Err != nil {
				log.Fatal(resp.Err)
			}
		}
	}
	fmt.Print(srv.Summary())
	printDecodeStats(eng)
}
