package rl

// RewardInput carries the per-level measurements that Eq. (1) of the
// paper combines into a scalar reward.
type RewardInput struct {
	// LatencyMS[i] is the predicted latency of pattern set i at V/F
	// level i; Runs[i] the corresponding number of runs.
	LatencyMS []float64
	Runs      []float64
	// Acc[i] is the fine-tuned accuracy of pattern set i (only valid
	// when every latency met the constraint).
	Acc []float64

	TimingConstraintMS float64
	// Weights alpha_i for the weighted accuracy A_w; uniform when nil.
	Weights []float64
	// AccOriginal is A_o, the accuracy of the Level-1 backbone model C.
	AccOriginal float64
	// AccMin is A_m, the pre-set lowest acceptable accuracy.
	AccMin float64
	// Penalty pen applied when the monotonicity condition fails.
	Penalty float64
	// RunsNorm normalizes the summed runs into [0, 1] (R_runs).
	RunsNorm float64
}

// RewardResult breaks the reward into its parts for logging.
type RewardResult struct {
	Reward      float64
	RRuns       float64
	WeightedAcc float64
	TimingMet   bool
	CondHolds   bool // acc_i > acc_j for i < j (faster levels more accurate)
}

// Reward evaluates Eq. (1):
//
//	R = -1 + R_runs                         if any lat_i > T
//	R = (A_w - A_m)/(A_o - A_m) + R_runs    if all lat_i <= T and cond
//	R = (A_w - A_m)/(A_o - A_m) - pen + R_runs   otherwise
//
// where cond requires accuracies to be non-increasing as levels get
// slower/sparser (acc_i > acc_j for i < j).
func Reward(in RewardInput) RewardResult {
	var res RewardResult
	res.RRuns = normalizedRuns(in)

	for _, lat := range in.LatencyMS {
		if lat > in.TimingConstraintMS {
			res.Reward = -1 + res.RRuns
			return res
		}
	}
	res.TimingMet = true

	res.WeightedAcc = weightedAccuracy(in)
	res.CondHolds = true
	for i := 0; i+1 < len(in.Acc); i++ {
		if in.Acc[i] <= in.Acc[i+1] {
			res.CondHolds = false
			break
		}
	}

	denom := in.AccOriginal - in.AccMin
	if denom <= 0 {
		denom = 1e-9
	}
	accTerm := (res.WeightedAcc - in.AccMin) / denom
	res.Reward = accTerm + res.RRuns
	if !res.CondHolds {
		res.Reward -= in.Penalty
	}
	return res
}

func weightedAccuracy(in RewardInput) float64 {
	if len(in.Acc) == 0 {
		return 0
	}
	var s, wsum float64
	for i, a := range in.Acc {
		w := 1.0 / float64(len(in.Acc))
		if in.Weights != nil {
			w = in.Weights[i]
		}
		s += w * a
		wsum += w
	}
	if in.Weights != nil && wsum > 0 {
		return s / wsum
	}
	return s
}

// OnlineRewardInput carries one observed telemetry window plus the
// modeled cost of the level that produced it — the serving-time
// counterpart of RewardInput, scored after the fact from live signals
// instead of predicted ones.
type OnlineRewardInput struct {
	// Samples is the number of completions in the window. An empty
	// window has no latency evidence: the latency term is skipped and
	// only the energy shaping applies (idling on a cheap level is good).
	Samples int
	// P99MS is the window's p99 admission-to-completion latency;
	// TargetMS the real-time constraint (<= 0 disables the latency term).
	P99MS, TargetMS float64
	// RelEnergy is the modeled per-inference energy of the level the
	// window ran at, relative to the fastest level (1 at the fastest,
	// < 1 for cheaper levels) — hwsim.LevelCosts supplies it.
	RelEnergy float64
	// BatteryFraction is the state of charge in [0, 1].
	BatteryFraction float64
}

// lowPowerWeight is w_e, the scale of OnlineReward's low-power bonus.
const lowPowerWeight = 0.8

// OnlineRewardResult breaks the online reward into its parts for the
// decision trace.
type OnlineRewardResult struct {
	Reward      float64
	TimingMet   bool    // target held (vacuously true with no evidence)
	EnergyBonus float64 // the shaping term actually added
}

// OnlineReward adapts the shape of Eq. (1) to the closed control loop:
//
//	R = -1                      when the window's p99 violates the target
//	R =  1 + B_e                when it holds
//	R =  B_e                    when there is no latency evidence
//
// where B_e = w_e * (1 - RelEnergy) * (1 - battery + 0.2) is the energy
// bonus — running below the fastest level's energy earns a reward that
// grows as the battery drains, with a mild standing preference (0.2)
// even at full charge. Like Eq. (1), the timing constraint dominates: a
// violating window scores -1 with no energy offset, so the policy can
// never trade a deadline for charge.
func OnlineReward(in OnlineRewardInput) OnlineRewardResult {
	res := OnlineRewardResult{TimingMet: true}
	if in.Samples > 0 && in.TargetMS > 0 && in.P99MS > in.TargetMS {
		res.TimingMet = false
		res.Reward = -1
		return res
	}
	res.EnergyBonus = lowPowerWeight * (1 - in.RelEnergy) * (1 - in.BatteryFraction + 0.2)
	res.Reward = res.EnergyBonus
	if in.Samples > 0 && in.TargetMS > 0 {
		res.Reward++
	}
	return res
}

// normalizedRuns maps the total number of runs into [0, 1] via RunsNorm.
func normalizedRuns(in RewardInput) float64 {
	var total float64
	for _, r := range in.Runs {
		total += r
	}
	if in.RunsNorm <= 0 {
		return 0
	}
	v := total / in.RunsNorm
	if v > 1 {
		v = 1
	}
	if v < 0 {
		v = 0
	}
	return v
}
