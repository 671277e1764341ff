package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"rt3/internal/chaos"
	"rt3/internal/cluster"
	"rt3/internal/loadgen"
	"rt3/internal/obs"
	"rt3/internal/serve"
)

// clusterOpts carries the flag surface into cluster mode.
type clusterOpts struct {
	nodes     int
	policy    string
	load      bool
	duration  time.Duration
	rps       float64
	sessions  int
	workers   int
	batch     int
	stepFloor time.Duration
	simDVFS   bool
	batteryJ  float64
	seed      int64
	verify    bool
	genTok    int
	genPrmpt  int
	adminAddr string
	traceOut  string

	// vocab sizes the LM's token space (48 under -chaos, whose workload
	// embeds GLUE examples; 24 otherwise).
	vocab int
	// chaos, when non-empty, fires that fault profile against the
	// -chaos-workload trace instead of running the bursty ramp.
	chaos         string
	chaosWorkload string
	chaosTraceOut string
}

// runCluster stands up N simulated nodes — each a full generation server
// with its own queue, replicas, battery, and V/F level — behind the
// session-affine router, then either smokes a few sessions through it
// (default) or replays the bursty session-tagged load with a mid-run
// zero-downtime rollout (-load). Every routing decision is replay-
// verified before exit; -verify dense-checks every generation.
func runCluster(logger *obs.Logger, drain <-chan struct{}, o clusterOpts) {
	pol, err := cluster.NewPolicy(o.policy)
	if err != nil {
		log.Fatal(err)
	}

	nodes := make([]*cluster.Node, o.nodes)
	var first *serve.Deployment
	for i := range nodes {
		// same seed on every node: identical weights and pattern sets,
		// which is what makes cross-node failover replay and shared dense
		// references meaningful
		d := buildDeployment(o.seed, o.workers, true, o.vocab)
		defer d.Engine.Close()
		if i == 0 {
			first = d
		}
		srv := serve.New(d.Engine, serve.Config{
			MaxBatch:     o.batch,
			QueueCap:     8192,
			SimDVFS:      o.simDVFS,
			BatteryJ:     o.batteryJ,
			Generate:     true,
			MaxGenTokens: o.genTok,
			StepFloor:    o.stepFloor,
		})
		nodes[i] = cluster.NewNode(i, srv)
	}
	printDeployment(first)

	// the chaos contract assumes a resilient router: bounded seeded-jitter
	// retries absorb fault transients, breakers stop hammering a
	// struggling node
	r := cluster.New(nodes, cluster.Config{Policy: pol, Seed: o.seed, Resilient: o.chaos != ""})
	r.Start()
	defer writeRouterTrace(logger, r, o.traceOut)
	defer r.Stop()
	logger.Infof("cluster: %d node(s) behind %s router, %d sessions, step floor %s",
		o.nodes, r.Policy().Name(), o.sessions, o.stepFloor)

	if o.adminAddr != "" {
		ln, err := net.Listen("tcp", o.adminAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		mux := obs.NewAdminMux(obs.AdminOptions{
			Registries: []*obs.Registry{r.Metrics()},
			Tracer:     nodes[0].Server().Tracer(),
			Ready: func() error {
				if draining(drain) {
					return fmt.Errorf("draining: shutdown in progress")
				}
				if r.ReadyNodes() == 0 {
					return cluster.ErrNoReadyNodes
				}
				return nil
			},
		})
		go func() { _ = http.Serve(ln, mux) }()
		logger.Infof("admin endpoint on http://%s (/metrics /healthz /readyz /debug/pprof)", ln.Addr())
	}

	if o.chaos != "" {
		runClusterChaos(logger, drain, r, o)
		return
	}

	if !o.load {
		clusterSmoke(r, o)
		return
	}

	// mid-run zero-downtime rollout: node by node, drain -> switch ->
	// restore, while the load keeps flowing through the rest of the fleet
	rolloutDone := make(chan error, 1)
	if o.nodes > 1 {
		level := nodes[0].Server().Engine().NumLevels() - 1
		go func() {
			select {
			case <-time.After(o.duration / 3):
			case <-drain:
				rolloutDone <- nil
				return
			}
			logger.Infof("rolling the fleet to level %s (drain -> switch -> restore per node)",
				nodes[0].Server().Engine().LevelName(level))
			rolloutDone <- r.RolloutSwitch(level)
		}()
	} else {
		rolloutDone <- nil
	}

	logger.Infof("replaying %.0f req/s (3x bursts) over %s across %d sessions", o.rps, o.duration, o.sessions)
	spec := loadgen.Spec{
		Duration:  o.duration,
		Rate:      loadgen.SquareWave(loadgen.Ramp(o.rps, o.rps, o.duration), 400*time.Millisecond, 3),
		Seed:      o.seed,
		Cancel:    drain,
		Sessions:  o.sessions,
		PromptMin: (o.genPrmpt + 1) / 2,
		PromptMax: o.genPrmpt,
		OutMin:    (o.genTok + 1) / 2,
		OutMax:    o.genTok,
		Vocab:     24,
	}
	if o.verify {
		spec.Verify = nodes[0].Server()
	}
	rep, err := loadgen.Run(r, spec)
	if err != nil {
		log.Fatal(err)
	}
	if err := <-rolloutDone; err != nil {
		log.Fatal(err)
	}
	st := r.Stats()
	fmt.Print(rep)
	fmt.Printf("affinity: %.1f%% hit rate (%d hits, %d re-pins, %d pins)  failovers %d  rollouts %d\n",
		st.AffinityHitRate()*100, st.AffinityHits, st.AffinityMisses, st.SessionPins, st.Failovers, st.Rollouts)
	printClusterNodes(r)
	verifyRouterTrace(r)
	if rep.Failed > 0 || rep.Mismatches > 0 {
		log.Fatalf("cluster demo failed: %d failed responses, %d dense mismatches", rep.Failed, rep.Mismatches)
	}
}

// runClusterChaos fires the -chaos fault profile against the trace-
// driven workload: the injector's schedule and the workload's arrival
// sequence both derive from -seed, so the same invocation replays the
// same faults against the same requests. Every completed response is
// dense-verified (with -verify) on node 0, which the schedule never
// faults, and the router's decision trace is replay-checked before
// exit. A SIGTERM drain stops arrivals, cancels unfired faults, and
// still flushes -chaos-trace-out and -trace-out.
func runClusterChaos(logger *obs.Logger, drain <-chan struct{}, r *cluster.Router, o clusterOpts) {
	spec, err := loadChaosTrace(o.chaosWorkload)
	if err != nil {
		log.Fatal(err)
	}
	sched, err := chaos.NewSchedule(o.chaos, o.nodes, spec.Duration(), o.seed)
	if err != nil {
		log.Fatal(err)
	}
	logger.Infof("chaos: profile %s over trace %s — %d fault(s) scheduled across %s, seed %d",
		sched.Profile, spec.Name, len(sched.Events), spec.Duration(), o.seed)
	rep, err := chaos.Scenario{
		Router:   r,
		Schedule: sched,
		Spec:     spec,
		Seed:     o.seed,
		Verify:   o.verify,
		Cancel:   drain,
		Metrics:  r.Metrics(),
	}.Run()
	if err != nil {
		log.Fatal(err)
	}
	// the injector's fired-fault record — which fault landed when,
	// against whom, with what outcome — beside the -trace-out decisions
	if o.chaosTraceOut != "" && writeJSON(logger, "chaos-trace-out", o.chaosTraceOut, rep.Injector) {
		logger.Infof("wrote %d fired fault(s) to %s", len(rep.Injector.Fired), o.chaosTraceOut)
	}
	fmt.Print(rep)
	for _, f := range rep.Injector.Fired {
		target := fmt.Sprintf("node %d", f.Event.Node)
		if f.Event.Node < 0 {
			target = "fleet"
		}
		fmt.Printf("  fault %d %-10s %-7s at %6.0fms: %s\n",
			f.Seq, f.Event.Kind, target, f.FiredAt.Seconds()*1000, f.Outcome)
	}
	printClusterNodes(r)
	if rep.ReplayErr != "" {
		log.Fatalf("chaos demo failed: decision replay: %s", rep.ReplayErr)
	}
	if rep.Workload.Failed > 0 || rep.Workload.Mismatches > 0 || rep.Injector.ChaffFailed > 0 {
		log.Fatalf("chaos demo failed: %d failed responses, %d dense mismatches, %d chaff failures",
			rep.Workload.Failed, rep.Workload.Mismatches, rep.Injector.ChaffFailed)
	}
}

// loadChaosTrace resolves -chaos-workload: a builtin trace name first,
// else a path to a versioned trace JSON.
func loadChaosTrace(name string) (*chaos.TraceSpec, error) {
	if spec, err := chaos.LoadBuiltinTrace(name); err == nil {
		return spec, nil
	}
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("chaos workload %q is neither a builtin trace %v nor a readable file: %v",
			name, chaos.BuiltinTraces(), err)
	}
	return chaos.ParseTrace(b)
}

// writeJSON writes v to path as indented JSON and reports whether it
// did; a failure is logged under flag, the option that named the path.
func writeJSON(logger *obs.Logger, flag, path string, v any) bool {
	f, err := os.Create(path)
	if err != nil {
		logger.Errorf("%s: %v", flag, err)
		return false
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		logger.Errorf("%s: %v", flag, err)
		return false
	}
	return true
}

// clusterSmoke pushes a few generations per session through the router
// and prints where they landed — the affinity pins are visible as each
// session's repeat dispatches on one node.
func clusterSmoke(r *cluster.Router, o clusterOpts) {
	rng := rand.New(rand.NewSource(o.seed + 1))
	sessions := o.sessions
	if sessions > 12 {
		sessions = 12
	}
	var chans []<-chan serve.GenResponse
	for s := 0; s < sessions; s++ {
		prompt := make([]int, 1+rng.Intn(o.genPrmpt))
		for j := range prompt {
			prompt[j] = rng.Intn(24)
		}
		for i := 0; i < 3; i++ {
			ch, err := r.SubmitGen(uint64(s), prompt, 1+rng.Intn(o.genTok), -1)
			if err != nil {
				log.Fatal(err)
			}
			chans = append(chans, ch)
		}
	}
	for _, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			log.Fatal(resp.Err)
		}
	}
	st := r.Stats()
	fmt.Printf("router: %d dispatches, %d session pins, %d affinity hits, %d re-pins (%.1f%% hit rate)\n",
		st.Dispatches, st.SessionPins, st.AffinityHits, st.AffinityMisses, st.AffinityHitRate()*100)
	printClusterNodes(r)
	verifyRouterTrace(r)
}

// printClusterNodes renders the per-node placement table.
func printClusterNodes(r *cluster.Router) {
	fmt.Printf("%-5s %-9s %-5s %11s %8s %9s\n", "node", "state", "level", "dispatches", "queue", "battery%")
	for _, nd := range r.Nodes() {
		st := nd.Server().Status()
		fmt.Printf("%-5d %-9s %-5s %11d %8d %8.0f%%\n",
			nd.ID, nd.State(), nd.Server().Engine().LevelName(st.Level),
			nd.Dispatches(), st.QueueDepth, nd.Server().BatteryFraction()*100)
	}
}

// verifyRouterTrace replays the decision log through a fresh policy and
// rng from the recorded seed and requires every pick to reproduce.
func verifyRouterTrace(r *cluster.Router) {
	tr := r.Trace()
	n, err := cluster.Replay(tr)
	if err != nil {
		log.Fatalf("router trace replay: %v", err)
	}
	fmt.Printf("router trace: %d decisions (policy %s, seed %d), replay reproduced every pick\n",
		n, tr.Policy, tr.Seed)
}

// writeRouterTrace dumps the router's decision trace as JSON — the
// cluster counterpart of the single-server Chrome trace dump, replayable
// offline via cluster.Replay. Runs after Stop, so every dispatch is in.
func writeRouterTrace(logger *obs.Logger, r *cluster.Router, path string) {
	if path == "" {
		return
	}
	if tr := r.Trace(); writeJSON(logger, "trace-out", path, tr) {
		logger.Infof("wrote %d router decisions to %s", len(tr.Decisions), path)
	}
}
