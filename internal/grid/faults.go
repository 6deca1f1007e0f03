package grid

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// FaultSpec configures deterministic fault injection on a grid: an extra
// seeded per-node failure probability, a chance that an injected failure
// crashes the whole node (taking every container on it down, as in Figure 3),
// and a slow-node mode that stretches execution times. Injection draws come
// from per-node streams derived from Seed, so the k-th execution on a node
// has the same injected outcome regardless of what other nodes do — which is
// what makes chaos runs reproducible under concurrent dispatch.
type FaultSpec struct {
	// Seed drives the injection streams; the same seed over the same
	// per-node execution sequence reproduces the same faults.
	Seed int64 `json:"seed"`
	// Nodes restricts injection to the named nodes; empty means all nodes.
	Nodes []string `json:"nodes,omitempty"`
	// FailureRate is the injected per-execution failure probability on
	// matching nodes, on top of the node's advertised FailureRate.
	FailureRate float64 `json:"failureRate,omitempty"`
	// CrashRate is the probability that an injected failure crashes the node
	// (it goes down mid-execution and stays down until repaired).
	CrashRate float64 `json:"crashRate,omitempty"`
	// SlowFactor >= 1 multiplies execution durations on matching nodes
	// (degraded-node mode); 0 leaves durations unchanged.
	SlowFactor float64 `json:"slowFactor,omitempty"`
}

// Validate checks the spec's ranges.
func (f *FaultSpec) Validate() error {
	if f == nil {
		return nil
	}
	if f.FailureRate < 0 || f.FailureRate > 1 {
		return fmt.Errorf("grid: fault failureRate %g outside [0,1]", f.FailureRate)
	}
	if f.CrashRate < 0 || f.CrashRate > 1 {
		return fmt.Errorf("grid: fault crashRate %g outside [0,1]", f.CrashRate)
	}
	if f.SlowFactor != 0 && f.SlowFactor < 1 {
		return fmt.Errorf("grid: fault slowFactor %g must be >= 1 (or 0 for none)", f.SlowFactor)
	}
	return nil
}

// applies reports whether the spec targets the named node.
func (f *FaultSpec) applies(node string) bool {
	if f == nil {
		return false
	}
	if len(f.Nodes) == 0 {
		return true
	}
	for _, n := range f.Nodes {
		if n == node {
			return true
		}
	}
	return false
}

// SetFaults installs (or, with nil, clears) a fault-injection spec. The
// spec is copied; per-node injection streams are re-seeded, so installing
// the same spec twice reproduces the same fault sequence. Named nodes must
// exist.
func (g *Grid) SetFaults(f *FaultSpec) error {
	if err := f.Validate(); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if f == nil {
		g.faults = nil
		g.faultStreams = nil
		return nil
	}
	for _, n := range f.Nodes {
		if _, ok := g.nodes[n]; !ok {
			return fmt.Errorf("grid: fault spec names unknown node %q", n)
		}
	}
	spec := *f
	spec.Nodes = append([]string(nil), f.Nodes...)
	g.faults = &spec
	g.faultStreams = make(map[string]*rand.Rand, len(g.nodes))
	for id := range g.nodes {
		g.faultStreams[id] = nodeStream(spec.Seed, id, 0x9e3779b97f4a7c15)
	}
	return nil
}

// nodeStream derives a deterministic per-node random stream from a base seed
// and the node ID, so streams are independent of node registration order and
// of activity on other nodes.
func nodeStream(seed int64, node string, salt uint64) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(node))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64()^salt)))
}
