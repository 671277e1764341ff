package main

import (
	"encoding/json"
	"os"
)

// jsonRep collects structured results when -json is set; the bench
// runners append their rows and metrics snapshots as they print, and
// main serializes the report on exit. Nil when -json is absent.
var jsonRep *jsonReport

// jsonReport is the -json output shape: one section per structured
// experiment (kernels, autotune, cluster, chaos), each carrying its
// result rows plus a snapshot of the obs instruments the run touched.
type jsonReport struct {
	Kernels  *kernelsSection  `json:"kernels,omitempty"`
	Autotune *autotuneSection `json:"autotune,omitempty"`
	Cluster  *clusterSection  `json:"cluster,omitempty"`
	Chaos    *chaosSection    `json:"chaos,omitempty"`
}

type kernelsSection struct {
	Dim      int     `json:"dim"`
	Batch    int     `json:"batch"`
	Sparsity float64 `json:"sparsity"`
	// LaneISA is the twin of the lane kernel the pattern rows ran (avx512,
	// avx or go): a floor read on one says nothing about another.
	LaneISA string `json:"lane_isa"`
	// GOMAXPROCS is the parallelism every packed and pattern row ran at
	// (their products split across the mat.Fork helpers).
	GOMAXPROCS int          `json:"gomaxprocs"`
	Formats    []kernelRow  `json:"formats"`
	Batched    []batchedRow `json:"batched,omitempty"`
	Micro      []microRow   `json:"micro,omitempty"`
	Ladder     []ladderRow  `json:"ladder,omitempty"`
	// MicroGeomeanSpeedup is the packed-f64 geomean over dense across
	// the micro shapes (the enforced >= 2x contract).
	MicroGeomeanSpeedup float64 `json:"micro_geomean_speedup,omitempty"`
	// SparserIsFasterX is pattern's rate at the sparsest ladder rung over
	// its rate at the densest (the enforced >= 1.5x contract).
	SparserIsFasterX float64            `json:"sparser_is_faster_x,omitempty"`
	Metrics          map[string]float64 `json:"metrics"`
}

type microRow struct {
	Shape    string  `json:"shape"` // MxKxN
	Format   string  `json:"format"`
	USPerOp  float64 `json:"us_per_op"`
	GFLOPEqS float64 `json:"gflop_eq_per_s"`
	SpeedupX float64 `json:"speedup_x"`
}

// ladderRow is one rung of the sparsity ladder: pattern vs packed over
// the same masked weights at one decode step.
type ladderRow struct {
	Sparsity        float64 `json:"sparsity"`
	PatternGFLOPEqS float64 `json:"pattern_gflop_eq_per_s"`
	PackedGFLOPEqS  float64 `json:"packed_gflop_eq_per_s"`
}

type kernelRow struct {
	Format     string  `json:"format"`
	Batch      int     `json:"batch"`
	NNZ        int     `json:"nnz"`
	IndexWords int     `json:"index_words"`
	USPerOp    float64 `json:"us_per_op"`
	GFLOPEqS   float64 `json:"gflop_eq_per_s"`
	GFLOPEffS  float64 `json:"gflop_eff_per_s"`
}

type batchedRow struct {
	Format   string  `json:"format"`
	FusedUS  float64 `json:"fused_us"`
	PerSeqUS float64 `json:"perseq_us"`
	Speedup  float64 `json:"speedup"`
}

type autotuneSection struct {
	TargetMS float64            `json:"target_ms"`
	Arms     []autotuneRow      `json:"arms"`
	Metrics  map[string]float64 `json:"metrics"` // closed-loop arm's registry
}

type autotuneRow struct {
	Arm             string  `json:"arm"`
	Completed       int     `json:"completed"`
	Dropped         int     `json:"dropped"`
	P50MS           float64 `json:"p50_ms"`
	P95MS           float64 `json:"p95_ms"`
	P99MS           float64 `json:"p99_ms"`
	BatteryFraction float64 `json:"battery_fraction"`
	RelEnergy       float64 `json:"rel_energy"`
	Switches        int     `json:"switches"`
	Reward          float64 `json:"reward"`
}

type clusterSection struct {
	Policy      string          `json:"policy"`
	StepFloorMS float64         `json:"step_floor_ms"`
	Scaling     []clusterArmRow `json:"scaling"`
	// SpeedupX is aggregate tok/s of the largest scaling arm over the
	// smallest (the enforced >= 1.8x contract at 4 vs 1).
	SpeedupX float64            `json:"speedup_x"`
	Rollout  *clusterPhaseRow   `json:"rollout"`
	Failover *clusterPhaseRow   `json:"failover"`
	Metrics  map[string]float64 `json:"metrics"` // largest scaling arm's rt3_cluster_* registry
}

type clusterArmRow struct {
	Nodes        int     `json:"nodes"`
	Offered      int     `json:"offered"`
	Completed    int     `json:"completed"`
	Dropped      int     `json:"dropped"`
	Failed       int     `json:"failed"`
	TokensPerSec float64 `json:"tok_per_s"`
	P50MS        float64 `json:"p50_ms"`
	P99MS        float64 `json:"p99_ms"`
	AffinityRate float64 `json:"affinity_hit_rate"`
	Decisions    int     `json:"decisions"`
}

type clusterPhaseRow struct {
	Nodes        int     `json:"nodes"`
	Completed    int     `json:"completed"`
	Failed       int     `json:"failed"`
	Failovers    int64   `json:"failovers,omitempty"`
	Rollouts     int64   `json:"rollouts,omitempty"`
	Verified     int     `json:"verified"`
	Mismatches   int     `json:"mismatches"`
	AffinityRate float64 `json:"affinity_hit_rate"`
}

type chaosSection struct {
	Nodes       int           `json:"nodes"`
	StepFloorMS float64       `json:"step_floor_ms"`
	Scale       float64       `json:"scale"`
	Arms        []chaosArmRow `json:"arms"`
	// Determinism is the double-run: same seed, fresh fleets, identical
	// fault schedule and response-set hash (the enforced replay contract).
	Determinism *chaosDeterminism  `json:"determinism"`
	Metrics     map[string]float64 `json:"metrics"` // last arm's rt3_cluster_*/rt3_router_*/rt3_breaker_* registry
}

type chaosArmRow struct {
	Profile      string  `json:"profile"`
	Trace        string  `json:"trace"`
	Offered      int     `json:"offered"`
	Completed    int     `json:"completed"`
	Shed         int     `json:"shed"`
	Failed       int     `json:"failed"`
	TokensPerSec float64 `json:"tok_per_s"`
	P50MS        float64 `json:"p50_ms"`
	P99MS        float64 `json:"p99_ms"`
	Verified     int     `json:"verified"`
	Mismatches   int     `json:"mismatches"`
	Failovers    int64   `json:"failovers,omitempty"`
	Retries      int64   `json:"retries,omitempty"`
	BreakerTrips int64   `json:"breaker_trips,omitempty"`
	Rollouts     int64   `json:"rollouts,omitempty"`
	FaultsFired  int     `json:"faults_fired"`
	Replayed     int     `json:"replayed"`
}

// writeJSONReport serializes the collected report to path.
func writeJSONReport(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonRep)
}
