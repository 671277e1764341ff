package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"rt3/internal/chaos"
	"rt3/internal/cluster"
	"rt3/internal/loadgen"
	"rt3/internal/obs"
	"rt3/internal/serve"
)

// runCluster stands up N simulated nodes — each a full generation server
// with its own queue, replicas, battery, and V/F level — behind the
// session-affine router, then either smokes a few sessions through it
// (default) or plays the fleet's load (-load or -chaos, runClusterLoad).
// Every routing decision is replay-verified before exit.
func runCluster(logger *obs.Logger, drain <-chan struct{}, o options) {
	pol, err := cluster.NewPolicy(o.router)
	if err != nil {
		log.Fatalf("-router: %v", err)
	}
	// the chaos workload embeds GLUE classification examples, whose
	// vocabulary (48 tokens) exceeds the demo LM's default 24
	battery, vocab := 0.0, 24
	if o.chaos != "" {
		battery, vocab = chaosBatteryJ, 48
	}

	nodes := make([]*cluster.Node, o.cluster)
	var first *serve.Deployment
	for i := range nodes {
		// same seed on every node: identical weights and pattern sets,
		// which is what makes cross-node failover replay and shared dense
		// references meaningful
		d := buildDeployment(o.seed, o.workers, true, vocab)
		defer d.Engine.Close()
		if i == 0 {
			first = d
		}
		srv := serve.New(d.Engine, serve.Config{
			QueueCap:     8192,
			BatteryJ:     battery,
			Generate:     true,
			MaxGenTokens: o.genTokens,
			StepFloor:    o.stepFloor,
		})
		nodes[i] = cluster.NewNode(i, srv)
	}
	printDeployment(first)

	r := cluster.New(nodes, cluster.Config{Policy: pol, Seed: o.seed})
	r.Start()
	defer writeRouterTrace(logger, r, o.traceOut)
	defer r.Stop()
	logger.Infof("cluster: %d node(s) behind %s router, %d sessions, step floor %s",
		o.cluster, r.Policy().Name(), clusterSessions, o.stepFloor)
	closeAdmin := serveAdmin(logger, o.adminAddr, drain, r.Metrics(), nodes[0].Server().Tracer(), func() error {
		if r.ReadyNodes() == 0 {
			return cluster.ErrNoReadyNodes
		}
		return nil
	})
	defer closeAdmin()

	if !o.load && o.chaos == "" {
		clusterSmoke(r, o)
		return
	}
	runClusterLoad(logger, drain, r, o)
}

// runClusterLoad plays the fleet's load as one chaos scenario. Under
// -chaos the -chaos-workload trace replays while the profile's seeded
// schedule fires: the schedule and the arrival sequence both derive from
// -seed, so the same invocation replays the same faults against the same
// requests. Under -load the bursty ramp replays while the fleet rolls out
// the slowest level at a third of the run (drain -> switch -> restore per
// node; a one-node fleet has nothing to roll around). With -verify every
// completed response is dense-checked on node 0, which no schedule
// faults, and the router's decision trace is replay-checked before exit.
// A SIGTERM drain stops arrivals, cancels unfired faults, and still
// flushes -chaos-trace-out and -trace-out. The run fails on a failed
// response, a dense mismatch, a lost chaff response, a failed replay, an
// UNEXPECTED fault outcome, or a rollout that did not complete outside a
// drain.
func runClusterLoad(logger *obs.Logger, drain <-chan struct{}, r *cluster.Router, o options) {
	var sched *chaos.Schedule
	var load loadgen.Spec
	if o.chaos != "" {
		ts, err := loadChaosTrace(o.chaosWorkload)
		if err != nil {
			log.Fatal(err)
		}
		if sched, err = chaos.NewSchedule(o.chaos, o.cluster, ts.Duration(), o.seed); err != nil {
			log.Fatal(err)
		}
		load = ts.Spec(o.seed, 1)
		logger.Infof("chaos: profile %s over trace %s — %d fault(s) scheduled across %s, seed %d",
			sched.Profile, ts.Name, len(sched.Events), ts.Duration(), o.seed)
	} else {
		load = loadgen.Spec{
			Duration:  o.duration,
			Rate:      loadgen.SquareWave(loadgen.Ramp(o.rpsStart, o.rpsStart, o.duration), 400*time.Millisecond, 3),
			Seed:      o.seed,
			Sessions:  clusterSessions,
			PromptMin: (o.genPrompt + 1) / 2,
			PromptMax: o.genPrompt,
			OutMin:    (o.genTokens + 1) / 2,
			OutMax:    o.genTokens,
			Vocab:     24,
		}
		if o.cluster > 1 {
			level := r.Nodes()[0].Server().Engine().NumLevels() - 1
			sched = &chaos.Schedule{Profile: "rollout", Seed: o.seed,
				Events: []chaos.Event{{At: o.duration / 3, Kind: chaos.FaultRollout, Node: -1, Param: float64(level)}}}
		}
		logger.Infof("replaying %.0f req/s (3x bursts) over %s across %d sessions", o.rpsStart, o.duration, clusterSessions)
	}
	load.Cancel = drain
	if o.verify {
		load.Verify = r.Nodes()[0].Server()
	}
	rep, err := chaos.Scenario{Router: r, Schedule: sched, Load: load, Metrics: r.Metrics()}.Run()
	if err != nil {
		log.Fatal(err)
	}
	// the injector's fired-fault record — which fault landed when,
	// against whom, with what outcome — beside the -trace-out decisions
	if o.chaosTraceOut != "" && writeJSON(logger, "chaos-trace-out", o.chaosTraceOut, rep.Injector) {
		logger.Infof("wrote %d fired fault(s) to %s", len(rep.Injector.Fired), o.chaosTraceOut)
	}
	fmt.Print(rep)
	printClusterNodes(r)
	if rep.ReplayErr != "" {
		log.Fatalf("cluster run failed: decision replay: %s", rep.ReplayErr)
	}
	if wl := rep.Workload; wl.Failed > 0 || wl.Mismatches > 0 || rep.Injector.ChaffFailed > 0 {
		log.Fatalf("cluster run failed: %d failed responses, %d dense mismatches, %d chaff failures",
			wl.Failed, wl.Mismatches, rep.Injector.ChaffFailed)
	}
	for _, f := range rep.Injector.Fired {
		unexpected := strings.HasPrefix(f.Outcome, "UNEXPECTED")
		unrolled := f.Event.Kind == chaos.FaultRollout && !strings.HasPrefix(f.Outcome, "rolled out") && !draining(drain)
		if unexpected || unrolled {
			log.Fatalf("cluster run failed: fault %d (%s): %s", f.Seq, f.Event.Kind, f.Outcome)
		}
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

// clusterSmoke pushes a few generations for each of a dozen sessions
// through the router and prints where they landed — the affinity pins
// are visible as each session's repeat dispatches on one node.
func clusterSmoke(r *cluster.Router, o options) {
	rng := rand.New(rand.NewSource(o.seed + 1))
	var chans []<-chan serve.GenResponse
	for s := 0; s < 12; s++ {
		prompt := make([]int, 1+rng.Intn(o.genPrompt))
		for j := range prompt {
			prompt[j] = rng.Intn(24)
		}
		for i := 0; i < 3; i++ {
			ch, err := r.SubmitGen(uint64(s), prompt, 1+rng.Intn(o.genTokens), -1)
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
// requires every pick to reproduce.
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
