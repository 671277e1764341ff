package cluster

// BreakerThreshold is the run of failed admissions that opens a
// resilient router's breaker.
const BreakerThreshold = breakerThreshold
