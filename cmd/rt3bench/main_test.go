package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"rt3/internal/cluster"
	"rt3/internal/serve"
)

// floorCase is one table row of a floor test: a mutation of a section
// that holds every floor, and the error it must produce ("" = pass).
type floorCase[S any] struct {
	name    string
	mutate  func(*S)
	wantErr string
}

// checkFloors runs every case against a fresh passing section: a passing
// case must return wantPass PASS lines and no error, a failing one an
// error containing wantErr.
func checkFloors[S any](t *testing.T, fresh func() *S, floors func(*S) ([]string, error), wantPass int, cases []floorCase[S]) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := fresh()
			c.mutate(s)
			pass, err := floors(s)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("floors failed: %v", err)
				}
				if len(pass) != wantPass {
					t.Fatalf("got %d PASS lines, want %d: %q", len(pass), wantPass, pass)
				}
				for _, l := range pass {
					if !strings.Contains(l, "floor PASS") {
						t.Fatalf("PASS line %q lacks \"floor PASS\"", l)
					}
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want one containing %q", err, c.wantErr)
			}
		})
	}
}

func passingKernels() *kernelsSection {
	return &kernelsSection{
		Ladder: []ladderRow{
			{Sparsity: 0.3, PatternGFLOPEqS: 20, DenseGFLOPEqS: 1},
			{Sparsity: 0.5, PatternGFLOPEqS: 30, DenseGFLOPEqS: 1},
			{Sparsity: 0.7, PatternGFLOPEqS: 40, DenseGFLOPEqS: 1},
		},
		SparserIsFasterX: 2,
	}
}

func TestKernelsFloors(t *testing.T) {
	checkFloors(t, passingKernels, (*kernelsSection).floors, 2, []floorCase[kernelsSection]{
		{"holds", func(*kernelsSection) {}, ""},
		{"pattern may trail dense on the densest rung", func(s *kernelsSection) { s.Ladder[0].DenseGFLOPEqS = 50 }, ""},
		{"pattern equal to dense", func(s *kernelsSection) { s.Ladder[1].DenseGFLOPEqS = 30 }, ""},
		{"pattern below dense at 0.5", func(s *kernelsSection) { s.Ladder[1].DenseGFLOPEqS = 31 }, "pattern floor FAIL: at sparsity 0.50"},
		{"pattern below dense at 0.7", func(s *kernelsSection) { s.Ladder[2].DenseGFLOPEqS = 41 }, "pattern floor FAIL: at sparsity 0.70"},
		{"sparser-is-faster at the floor", func(s *kernelsSection) { s.SparserIsFasterX = sparserIsFasterFloor }, ""},
		{"sparser-is-faster below the floor", func(s *kernelsSection) { s.SparserIsFasterX = 1.49 }, "sparser-is-faster floor FAIL"},
	})
}

func passingAutotune() *autotuneSection {
	return &autotuneSection{Arms: []autotuneRow{
		{Arm: "static-l6", Reward: 1},
		{Arm: "static-l3", Reward: 1.26},
		{Arm: "static-l1", Reward: 0.5},
		{Arm: "governor", Reward: -0.8},
		{Arm: closedLoopArm, Reward: 1.1},
	}}
}

func TestAutotuneFloors(t *testing.T) {
	closed := func(r float64) func(*autotuneSection) {
		return func(s *autotuneSection) { s.Arms[4].Reward = r }
	}
	checkFloors(t, passingAutotune, (*autotuneSection).floors, 1, []floorCase[autotuneSection]{
		{"holds", func(*autotuneSection) {}, ""},
		{"within the tolerance below the worst static level", closed(0.41), ""},
		{"below the worst static level", closed(0.39), "closed-loop reward 0.390 fell below the worst static level static-l1"},
		{"the governor is not a static level", closed(-0.5), "fell below the worst static level static-l1"},
		{"no closed-loop arm", func(s *autotuneSection) { s.Arms = s.Arms[:4] }, "need a rl-closed-loop arm"},
	})
}

func passingCluster() *clusterSection {
	return &clusterSection{
		Scaling: []clusterArmRow{
			{Nodes: 1, TokensPerSec: 4500, AffinityRate: 1},
			{Nodes: 2, TokensPerSec: 8200, AffinityRate: 1},
			{Nodes: 4, TokensPerSec: 10900, AffinityRate: 0.97},
		},
		SpeedupX: 10900.0 / 4500,
		Phases: []clusterPhaseRow{
			{Phase: "rollout", Nodes: 4, Completed: 836, Rollouts: 1, Verified: 836},
			{Phase: "failover", Nodes: 2, Completed: 416, Failovers: 3, Verified: 416},
		},
	}
}

func TestClusterFloors(t *testing.T) {
	checkFloors(t, passingCluster, (*clusterSection).floors, 3, []floorCase[clusterSection]{
		{"holds", func(*clusterSection) {}, ""},
		{"scaling at the floor", func(s *clusterSection) { s.SpeedupX = clusterScaleFloor }, ""},
		{"scaling below 1.8x", func(s *clusterSection) { s.SpeedupX = 1.79 }, "scaled 1.79x from 1 to 4 nodes"},
		{"affinity at the floor", func(s *clusterSection) { s.Scaling[1].AffinityRate = clusterAffinityFloor }, ""},
		{"affinity below 95%", func(s *clusterSection) { s.Scaling[1].AffinityRate = 0.94 }, "2-node arm affinity hit rate 94.0%"},
		{"failed responses on a scaling arm", func(s *clusterSection) { s.Scaling[2].Failed = 1 }, "4-node arm delivered 1 failed responses"},
		{"failed responses in the rollout", func(s *clusterSection) { s.Phases[0].Failed = 2 }, "rollout phase delivered 2 failed responses"},
		{"failed responses in the failover", func(s *clusterSection) { s.Phases[1].Failed = 1 }, "failover phase delivered 1 failed responses"},
		{"dense mismatches", func(s *clusterSection) { s.Phases[1].Mismatches = 1 }, "failover phase had 1 dense mismatches"},
		{"nothing verified", func(s *clusterSection) { s.Phases[0].Verified = 0 }, "rollout phase verified nothing"},
		{"no rollout", func(s *clusterSection) { s.Phases[0].Rollouts = 0 }, "recorded 0 rollouts"},
		{"no failover", func(s *clusterSection) { s.Phases[1].Failovers = 0 }, "recorded no failovers"},
	})
}

func passingChaos() *chaosSection {
	s := &chaosSection{Seed: 1}
	for _, trace := range []string{"diurnal", "flashcrowd"} {
		for _, profile := range chaosProfiles {
			a := chaosArmRow{Profile: profile, Trace: trace, Offered: 200, Completed: 200, Verified: 200, P99MS: 20}
			switch profile {
			case "crash":
				a.Failovers = 2
			case "rollout":
				a.Rollouts = 2
			}
			s.Arms = append(s.Arms, a)
		}
	}
	det := chaosArmRow{Profile: "crash", Trace: "diurnal", Offered: 201, Completed: 201, Verified: 201,
		ResponseHash: "4a3a105de2bdb27f", Fired: []string{"0:crash:node1:0:ok"}}
	s.Determinism = []chaosArmRow{det, det}
	return s
}

func TestChaosFloors(t *testing.T) {
	arm := func(f func(*chaosArmRow)) func(*chaosSection) {
		return func(s *chaosSection) { f(&s.Arms[7]) } // rollout x flashcrowd
	}
	checkFloors(t, passingChaos, (*chaosSection).floors, 4, []floorCase[chaosSection]{
		{"holds", func(*chaosSection) {}, ""},
		{"failed responses", arm(func(a *chaosArmRow) { a.Failed = 1 }), "rollout x flashcrowd delivered 1 failed responses"},
		{"unverified responses", arm(func(a *chaosArmRow) { a.Verified = 199 }), "dense-verified 199 of 200"},
		{"dense mismatches", arm(func(a *chaosArmRow) { a.Mismatches = 1 }), "had 1 dense mismatches"},
		{"nothing completed", arm(func(a *chaosArmRow) { a.Completed, a.Verified = 0, 0 }), "completed nothing"},
		{"decision replay failed", arm(func(a *chaosArmRow) { a.ReplayErr = "pick 3 diverged" }), "decision replay failed: pick 3 diverged"},
		{"chaff lost", arm(func(a *chaosArmRow) { a.ChaffFailed = 1 }), "lost 1 chaff responses"},
		{"unexpected fault outcome", arm(func(a *chaosArmRow) { a.Unexpected = 1 }), "UNEXPECTED outcome"},
		{"no failovers on the crash arms", func(s *chaosSection) { s.Arms[1].Failovers, s.Arms[6].Failovers = 0, 0 }, "recorded no failovers"},
		{"no rollouts on the rollout arms", func(s *chaosSection) { s.Arms[2].Rollouts, s.Arms[7].Rollouts = 0, 0 }, "recorded no rollouts"},
		{"p99 inflation at the bound", arm(func(a *chaosArmRow) { a.P99MS = 20 * chaosP99InflationFloor }), ""},
		{"p99 inflation above the bound", arm(func(a *chaosArmRow) { a.P99MS = 20*chaosP99InflationFloor + 1 }), "trace flashcrowd: rollout p99 501.00ms is 25.1x"},
		{"no fault-free baseline", func(s *chaosSection) { s.Arms[5].P99MS = 0 }, "trace flashcrowd has no fault-free p99 baseline"},
		{"determinism run failed its arm checks", func(s *chaosSection) { s.Determinism[1].Failed = 1 }, "determinism: crash x diurnal delivered 1 failed"},
		{"determinism run shed", func(s *chaosSection) { s.Determinism[0].Shed = 1 }, "needs zero shed"},
		{"fault schedules diverged", func(s *chaosSection) { s.Determinism[1].Fired = nil }, "fault schedules diverged"},
		{"offered counts diverged", func(s *chaosSection) { s.Determinism[1].Offered = 202 }, "offered 201 vs 202"},
		{"response hashes diverged", func(s *chaosSection) { s.Determinism[1].ResponseHash = "0" }, "response hashes differ"},
		{"seed-1 hash moved", func(s *chaosSection) { s.Determinism[0].ResponseHash, s.Determinism[1].ResponseHash = "0", "0" },
			"seed-1 response hash 0, want the recorded 4a3a105de2bdb27f"},
		{"another seed, another hash", func(s *chaosSection) {
			s.Seed = 2
			s.Determinism[0].ResponseHash, s.Determinism[1].ResponseHash = "0", "0"
		}, ""},
	})
}

// TestChaosPinnedHashIsRecorded holds the seed-1 hash the floors pin to
// BENCH_chaos.json's determinism rows.
func TestChaosPinnedHashIsRecorded(t *testing.T) {
	b, err := os.ReadFile("../../BENCH_chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Chaos == nil || rep.Chaos.Seed != 1 || len(rep.Chaos.Determinism) != 2 {
		t.Fatalf("BENCH_chaos.json holds no seed-1 double run: %+v", rep.Chaos)
	}
	for i, run := range rep.Chaos.Determinism {
		if run.ResponseHash != chaosSeed1ResponseHash {
			t.Errorf("determinism row %d records hash %s, the floors pin %s", i, run.ResponseHash, chaosSeed1ResponseHash)
		}
	}
}

// TestChaosDeterminismLineNamesTheHash pins the PASS line CI greps and
// the hash it reports.
func TestChaosDeterminismLineNamesTheHash(t *testing.T) {
	pass, err := passingChaos().floors()
	if err != nil {
		t.Fatal(err)
	}
	want := "chaos floor PASS: deterministic replay — identical fault schedule and response set (hash 4a3a105de2bdb27f) across two seed-101 runs"
	if pass[2] != want {
		t.Fatalf("got %q, want %q", pass[2], want)
	}
}

// TestBaselinesAreJSONOutput holds each BENCH_*.json at the repository
// root to what -json writes: it decodes into jsonReport with no unknown
// field, carries its experiment's section, that section holds its
// floors, and every metric family it lists is one the experiment's
// registry still registers.
func TestBaselinesAreJSONOutput(t *testing.T) {
	for _, file := range []string{"BENCH_autotune.json", "BENCH_cluster.json", "BENCH_chaos.json"} {
		t.Run(file, func(t *testing.T) {
			b, err := os.ReadFile("../../" + file)
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields()
			var rep jsonReport
			if err := dec.Decode(&rep); err != nil {
				t.Fatalf("not rt3bench -json output: %v", err)
			}
			sections := map[string]floorer{}
			if rep.Autotune != nil {
				sections["BENCH_autotune.json"] = rep.Autotune
			}
			if rep.Cluster != nil {
				sections["BENCH_cluster.json"] = rep.Cluster
			}
			if rep.Chaos != nil {
				sections["BENCH_chaos.json"] = rep.Chaos
			}
			s, ok := sections[file]
			if !ok {
				t.Fatalf("%s has no section for its experiment", file)
			}
			if _, err := s.floors(); err != nil {
				t.Fatalf("the recorded run misses a floor: %v", err)
			}
			var recorded map[string]float64
			switch {
			case rep.Autotune != nil:
				recorded = rep.Autotune.Metrics
			case rep.Cluster != nil:
				recorded = rep.Cluster.Metrics
			default:
				recorded = rep.Chaos.Metrics
			}
			registered := experimentFamilies(t, file)
			for series := range recorded {
				if fam := family(series); !registered[fam] {
					t.Errorf("%s lists %s, which its experiment no longer registers: regenerate it", file, fam)
				}
			}
		})
	}
}

// experimentFamilies builds the registry file's experiment snapshots —
// the closed-loop arm's server, the largest scaling arm's router, a
// chaos arm's router — the way the experiment does, without load, and
// returns its metric family names.
func experimentFamilies(t *testing.T, file string) map[string]bool {
	t.Helper()
	var snap map[string]float64
	switch file {
	case "BENCH_autotune.json":
		srv, err := newAutotuneServer(1, serve.Config{Autotune: &serve.AutotuneConfig{Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		snap = srv.Metrics().Snapshot()
		srv.Stop()
	default:
		build := buildChaosRouter
		if file == "BENCH_cluster.json" {
			build = func(seed int64) (*cluster.Router, error) {
				return buildClusterRouter(seed, clusterNodes[len(clusterNodes)-1], clusterStepFloor)
			}
		}
		r, err := build(1)
		if err != nil {
			t.Fatal(err)
		}
		snap = r.Metrics().Snapshot()
		r.Stop()
	}
	fams := map[string]bool{}
	for series := range snap {
		fams[family(series)] = true
	}
	return fams
}

// family strips a snapshot key's label set: `name{k="v"}` is family name.
func family(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// TestPrintRowsHeadsColumnsByJSONName checks the one table printer:
// columns are the JSON fields in order, "-" fields are skipped, floats
// print with two decimals.
func TestPrintRowsHeadsColumnsByJSONName(t *testing.T) {
	type row struct {
		Name   string   `json:"name"`
		Count  int      `json:"count,omitempty"`
		Rate   float64  `json:"rate"`
		Hidden []string `json:"-"`
	}
	var buf bytes.Buffer
	printRows(&buf, []row{{"a", 3, 1.004, []string{"x"}}, {"bb", 10, 12.5, nil}})
	got := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	want := []string{
		"  name  count   rate",
		"     a      3   1.00",
		"    bb     10  12.50",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("got\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
