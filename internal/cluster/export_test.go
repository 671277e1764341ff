package cluster

// BreakerThreshold is the run of failed admissions that opens a
// node's breaker.
const BreakerThreshold = breakerThreshold
