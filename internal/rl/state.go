package rl

// The state space quantizes continuous serving telemetry into the
// discrete state index the closed-loop controller conditions on
// (Config.States). Three signals drive the serving-time decision,
// mirroring what the paper's runtime watches: how close the latency
// window sits to the real-time constraint, how much battery charge
// remains, and how full the dynamic batches run (a load proxy). Each is
// binned independently and the bins are mixed-radix combined.
const (
	// latencyBins partitions the p99/target ratio: headroom (below
	// lowLatency), approaching, violating (>= 1).
	latencyBins = 3
	lowLatency  = 0.5
	batteryBins = 3 // the state of charge, evenly over [0, 1]
	fillBins    = 2 // the recent batch fill ratio, evenly over [0, 1]

	// States is the number of distinct encoded states: small enough that
	// a few hundred control ticks visit the reachable ones.
	States = latencyBins * batteryBins * fillBins
)

// EncodeState maps one telemetry window to a state index in [0, States).
// latencyRatio is windowed p99 latency over the target (anything >= 1 is
// a violation; pass 0 when the window is empty or no target is set),
// battery is the state of charge in [0, 1] (1 when energy accounting is
// off), and fill is the recent batch fill ratio in [0, 1].
func EncodeState(latencyRatio, battery, fill float64) int {
	lat := 1 // approaching
	switch {
	case latencyRatio < lowLatency:
		lat = 0
	case latencyRatio >= 1:
		lat = latencyBins - 1
	}
	return (lat*batteryBins+uniformBin(battery, batteryBins))*fillBins + uniformBin(fill, fillBins)
}

// uniformBin places v in [0, 1] into one of n even bins, clamping
// out-of-range values.
func uniformBin(v float64, n int) int {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return n - 1
	}
	return int(v * float64(n))
}
