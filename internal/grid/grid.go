// Package grid simulates the heterogeneous, resource-rich, non-cooperative
// environment of the paper's Section 1: nodes in different administrative
// domains with hardware/software descriptions, application containers
// hosting end-user services, spot-market costs, and node failures. The
// coordination and matchmaking services operate purely on this metadata, so
// the simulation preserves the decision problems the paper studies (resource
// matching, hot-spot contention, failure-driven re-planning) without real
// hardware.
package grid

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// Hardware mirrors the Hardware ontology class (Figure 12).
type Hardware struct {
	Type          string  // e.g. "PC-cluster", "SMP", "supercomputer"
	Speed         float64 // relative CPU speed; 1.0 is the reference node
	Cores         int
	MemoryMB      float64
	BandwidthMbps float64 // interconnect bandwidth
	LatencyUs     float64 // interconnect latency, microseconds
	Manufacturer  string
	Model         string
}

// Software mirrors the Software ontology class.
type Software struct {
	Name    string
	Type    string
	Version string
}

// Node is one autonomous resource on the grid. The advertised fields are
// fixed once the node is added: matchmaking ranks on them and recomputes a
// ranking only when the grid's Version moves, which a direct write does not
// do.
type Node struct {
	ID          string
	Domain      string // administrative domain
	Hardware    Hardware
	Software    []Software
	CostPerSec  float64 // spot-market cost of one second of computation
	FailureRate float64 // probability that a single execution fails on this node

	// up is written under the grid lock (AddNode, SetNodeUp, an injected
	// crash in Execute) and read by the services without it.
	up atomic.Bool
}

// Up reports whether the node is currently available.
func (n *Node) Up() bool { return n.up.Load() }

// HasSoftware reports whether the named package is installed.
func (n *Node) HasSoftware(name string) bool {
	for _, s := range n.Software {
		if s.Name == name {
			return true
		}
	}
	return false
}

// Container is an Application Container: the runtime that hosts end-user
// services on a node (Figure 1).
type Container struct {
	ID       string
	NodeID   string
	Services []string // end-user service names this container can execute
}

// Provides reports whether the container can execute the named service.
func (c *Container) Provides(service string) bool {
	for _, s := range c.Services {
		if s == service {
			return true
		}
	}
	return false
}

// Execution records one completed (or failed) service execution, feeding the
// brokerage service's past-performance data base.
type Execution struct {
	Service   string
	Container string
	Node      string
	Duration  float64 // simulated seconds
	Cost      float64
	OK        bool
	// Fault marks a failure caused by the injected fault spec rather than
	// the node's advertised failure rate.
	Fault bool
}

// Grid is the simulated environment. All methods are safe for concurrent
// use; the coordination and monitoring agents query it from different
// goroutines.
type Grid struct {
	mu         sync.RWMutex
	nodes      map[string]*Node
	containers map[string]*Container
	seed       int64
	// streams holds one jitter/failure random stream per node, derived from
	// the grid seed and the node ID. Per-node streams keep executions on one
	// node deterministic regardless of concurrent activity on other nodes.
	streams      map[string]*rand.Rand
	faults       *FaultSpec
	faultStreams map[string]*rand.Rand
	// version counts the changes to what matchmaking reads: nodes, containers
	// and node status. It moves under the write lock, after the change it
	// counts, so whoever loads it and then reads the grid sees no older state.
	version atomic.Uint64
	// upNodes counts the nodes that are up. It moves with every flip of a
	// node's up flag, under the write lock, so UpCount takes no lock.
	upNodes atomic.Int64
}

// New returns an empty grid with deterministic per-node failure/jitter
// streams derived from seed.
func New(seed int64) *Grid {
	return &Grid{
		nodes:      make(map[string]*Node),
		containers: make(map[string]*Container),
		seed:       seed,
		streams:    make(map[string]*rand.Rand),
	}
}

// AddNode registers a node; new nodes start up.
func (g *Grid) AddNode(n *Node) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n.ID == "" {
		return fmt.Errorf("grid: node with empty ID")
	}
	if _, dup := g.nodes[n.ID]; dup {
		return fmt.Errorf("grid: node %q already registered", n.ID)
	}
	if n.Hardware.Speed <= 0 {
		return fmt.Errorf("grid: node %q has non-positive speed", n.ID)
	}
	n.up.Store(true)
	g.upNodes.Add(1)
	g.nodes[n.ID] = n
	g.streams[n.ID] = nodeStream(g.seed, n.ID, 0)
	if g.faults != nil {
		g.faultStreams[n.ID] = nodeStream(g.faults.Seed, n.ID, 0x9e3779b97f4a7c15)
	}
	g.version.Add(1)
	return nil
}

// AddContainer registers an application container on an existing node.
func (g *Grid) AddContainer(c *Container) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c.ID == "" {
		return fmt.Errorf("grid: container with empty ID")
	}
	if _, dup := g.containers[c.ID]; dup {
		return fmt.Errorf("grid: container %q already registered", c.ID)
	}
	if _, ok := g.nodes[c.NodeID]; !ok {
		return fmt.Errorf("grid: container %q references unknown node %q", c.ID, c.NodeID)
	}
	g.containers[c.ID] = c
	g.version.Add(1)
	return nil
}

// Version identifies the current set of nodes, containers and node statuses:
// it moves on every AddNode, AddContainer, SetNodeUp and injected crash, and
// on nothing else.
func (g *Grid) Version() uint64 { return g.version.Load() }

// Node returns the named node, or nil.
func (g *Grid) Node(id string) *Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nodes[id]
}

// Container returns the named container, or nil.
func (g *Grid) Container(id string) *Container {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.containers[id]
}

// Nodes returns all nodes sorted by ID.
func (g *Grid) Nodes() []*Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Node, len(ids))
	for i, id := range ids {
		out[i] = g.nodes[id]
	}
	return out
}

// UpCount returns how many nodes are currently available.
func (g *Grid) UpCount() int { return int(g.upNodes.Load()) }

// Containers returns all containers sorted by ID.
func (g *Grid) Containers() []*Container {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := make([]string, 0, len(g.containers))
	for id := range g.containers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Container, len(ids))
	for i, id := range ids {
		out[i] = g.containers[id]
	}
	return out
}

// ContainersFor returns the containers that provide the named service and
// whose node is up, sorted by ID.
func (g *Grid) ContainersFor(service string) []*Container {
	var out []*Container
	for _, c := range g.Containers() {
		if !c.Provides(service) {
			continue
		}
		if n := g.Node(c.NodeID); n == nil || !n.Up() {
			continue
		}
		out = append(out, c)
	}
	return out
}

// SetNodeUp marks a node available or failed. Failing a node makes every
// container on it unusable until repair, which is what drives the
// re-planning flow of Figure 3.
func (g *Grid) SetNodeUp(id string, up bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.nodes[id]
	if n == nil {
		return fmt.Errorf("grid: unknown node %q", id)
	}
	if n.up.Swap(up) != up {
		if up {
			g.upNodes.Add(1)
		} else {
			g.upNodes.Add(-1)
		}
	}
	g.version.Add(1)
	return nil
}

// ExecTime returns the simulated duration of running a service with the
// given nominal time (seconds on the reference node) on node n, including a
// crude communication term: moving dataMB across the node's interconnect.
func ExecTime(baseTime float64, dataMB float64, n *Node) float64 {
	compute := baseTime / n.Hardware.Speed
	transfer := 0.0
	if n.Hardware.BandwidthMbps > 0 {
		transfer = dataMB * 8 / n.Hardware.BandwidthMbps
	}
	latency := n.Hardware.LatencyUs / 1e6
	return compute + transfer + latency
}

// Execute simulates one run of service on the container: it computes the
// duration from the node's hardware and samples the node's failure rate
// (plus any injected fault spec). baseTime is the service's nominal
// duration, dataMB the input volume. It fails when the container does not
// provide the service or its node is down; an injected crash additionally
// takes the node down mid-execution.
func (g *Grid) Execute(containerID, service string, baseTime, dataMB float64) (Execution, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.containers[containerID]
	if c == nil {
		return Execution{}, fmt.Errorf("grid: unknown container %q", containerID)
	}
	n := g.nodes[c.NodeID]
	if n == nil || !n.Up() {
		return Execution{}, fmt.Errorf("grid: container %q node is down", containerID)
	}
	if !c.Provides(service) {
		return Execution{}, fmt.Errorf("grid: container %q does not provide %q", containerID, service)
	}
	injecting := g.faults.applies(n.ID)
	dur := ExecTime(baseTime, dataMB, n)
	if injecting && g.faults.SlowFactor > 1 {
		dur *= g.faults.SlowFactor
	}
	// Execution-time jitter of +/-10% keeps the history realistic for the
	// brokerage's performance statistics.
	st := g.streams[n.ID]
	dur *= 0.9 + 0.2*st.Float64()
	ok := st.Float64() >= n.FailureRate
	fault, crashed := false, false
	if injecting && g.faults.FailureRate > 0 {
		fs := g.faultStreams[n.ID]
		if fs.Float64() < g.faults.FailureRate {
			ok, fault = false, true
			if g.faults.CrashRate > 0 && fs.Float64() < g.faults.CrashRate {
				crashed = true
			}
		}
	}
	ex := Execution{
		Service:   service,
		Container: containerID,
		Node:      n.ID,
		Duration:  dur,
		Cost:      dur * n.CostPerSec,
		OK:        ok,
		Fault:     fault,
	}
	if crashed {
		if n.up.Swap(false) {
			g.upNodes.Add(-1)
		}
		g.version.Add(1)
		return ex, fmt.Errorf("grid: node %q crashed during execution of %q", n.ID, service)
	}
	if !ok {
		return ex, fmt.Errorf("grid: execution of %q on %q failed", service, n.ID)
	}
	return ex, nil
}

// EquivalenceClass is a group of nodes with similar characteristics; the
// paper's brokers "group them in multiple equivalence classes based upon
// different sets of properties".
type EquivalenceClass struct {
	Key   string
	Nodes []string
}

// EquivalenceClasses groups up nodes by hardware type and coarse speed band
// (floor of speed), sorted by key.
func (g *Grid) EquivalenceClasses() []EquivalenceClass {
	groups := make(map[string][]string)
	for _, n := range g.Nodes() {
		if !n.Up() {
			continue
		}
		key := fmt.Sprintf("%s/speed=%d", n.Hardware.Type, int(n.Hardware.Speed))
		groups[key] = append(groups[key], n.ID)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]EquivalenceClass, len(keys))
	for i, k := range keys {
		out[i] = EquivalenceClass{Key: k, Nodes: groups[k]}
	}
	return out
}
