package cluster

import "fmt"

// Policy picks the node a request without a live session pin is
// dispatched to. Pick receives the session key, the IDs of the nodes
// currently accepting traffic (ascending, never empty) and a load
// score per entry of ready (same order); it returns one element of
// ready. Implementations must be pure functions of exactly these inputs
// — the router serializes Pick calls and records them, so a trace
// replay through a fresh policy must reproduce every decision.
type Policy interface {
	Name() string
	Pick(key uint64, ready []int, loads []float64) int
}

// NewPolicy resolves a policy by its flag name: "hash" (session-keyed
// rendezvous hashing, the default) or "least-loaded".
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "", "hash":
		return HashPolicy{}, nil
	case "least-loaded":
		return LeastLoadedPolicy{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown router policy %q (want hash or least-loaded)", name)
}

// HashPolicy is rendezvous (highest-random-weight) hashing on the
// session key: every (key, node) pair gets a stable mixed weight and
// the ready node with the highest weight wins. Unlike modulo hashing, a
// node leaving rotation only remaps the sessions that lived on it —
// every other session keeps its node, which is exactly the reshuffle
// bound a KV-cache-affine cluster wants.
type HashPolicy struct{}

// Name implements Policy.
func (HashPolicy) Name() string { return "hash" }

// Pick implements Policy: the decision is a function of the key and
// the ready set alone.
func (HashPolicy) Pick(key uint64, ready []int, loads []float64) int {
	best, bestW := -1, uint64(0)
	for _, id := range ready {
		w := mix64(key ^ mix64(uint64(id)+0x9e3779b97f4a7c15))
		if best < 0 || w > bestW {
			best, bestW = id, w
		}
	}
	return best
}

// LeastLoadedPolicy picks the ready node with the smallest load score
// (queue depth plus in-flight, scaled by the active level's slowdown).
// Ties break to the lowest node ID, keeping the decision deterministic.
type LeastLoadedPolicy struct{}

// Name implements Policy.
func (LeastLoadedPolicy) Name() string { return "least-loaded" }

// Pick implements Policy.
func (LeastLoadedPolicy) Pick(key uint64, ready []int, loads []float64) int {
	best := 0
	for i := 1; i < len(ready); i++ {
		if loads[i] < loads[best] {
			best = i
		}
	}
	return ready[best]
}

// mix64 is the splitmix64 finalizer — the stateless avalanche mix
// rendezvous hashing scores (key, node) pairs with.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
