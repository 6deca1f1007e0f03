package services

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/agent"
	"repro/internal/grid"
	"repro/internal/telemetry"
)

// ContainersRequest asks the brokerage for the application containers that
// can possibly provide a service (Figure 3, step 4).
type ContainersRequest struct{ Service string }

// ContainersReply lists candidate container IDs. The brokerage answers from
// its snapshot, so the list "may be obsolete" in the paper's words: a
// container whose node failed after the last refresh is still listed.
type ContainersReply struct{ Containers []string }

// PerfStats aggregates the execution history of a service on one node.
type PerfStats struct {
	Runs         int
	SuccessRate  float64
	MeanDuration float64
	MeanCost     float64
}

// Brokerage is the brokerage service agent. It keeps a best-effort snapshot
// of container offerings plus the performance history, folded incrementally
// into one aggregate per (service, node) so Stats costs one map lookup
// regardless of how many executions were ever recorded. The history is
// written and read by method call, not by message: a container agent records
// its execution before it replies, so whoever saw the reply sees the record.
type Brokerage struct {
	Grid *grid.Grid

	// Telemetry, when set, counts requests (messages) and recorded
	// executions.
	Telemetry *telemetry.Registry

	// instruments resolves the per-call counters once Telemetry is set.
	instruments          sync.Once
	mRecorded, mRequests *telemetry.Counter

	mu       sync.Mutex
	snapshot map[string][]string // service -> container IDs (possibly stale)
	perf     map[perfKey]*perfAccum
}

// perfAccum is one running performance aggregate.
type perfAccum struct {
	runs, ok  int
	dur, cost float64
}

func (a *perfAccum) add(ex grid.Execution) {
	a.runs++
	a.dur += ex.Duration
	a.cost += ex.Cost
	if ex.OK {
		a.ok++
	}
}

func (a *perfAccum) stats() PerfStats {
	if a == nil || a.runs == 0 {
		return PerfStats{}
	}
	n := float64(a.runs)
	return PerfStats{
		Runs:         a.runs,
		SuccessRate:  float64(a.ok) / n,
		MeanDuration: a.dur / n,
		MeanCost:     a.cost / n,
	}
}

// perfKey names one aggregate: a service's executions on one node.
type perfKey struct{ service, node string }

// NewBrokerage builds a brokerage with an immediate snapshot.
func NewBrokerage(g *grid.Grid) *Brokerage {
	b := &Brokerage{Grid: g}
	b.Refresh()
	return b
}

// Refresh re-snapshots the container offerings from the grid.
func (b *Brokerage) Refresh() {
	snap := make(map[string][]string)
	for _, c := range b.Grid.Containers() {
		n := b.Grid.Node(c.NodeID)
		if n == nil || !n.Up() {
			continue
		}
		for _, s := range c.Services {
			snap[s] = append(snap[s], c.ID)
		}
	}
	for s := range snap {
		sort.Strings(snap[s])
	}
	b.mu.Lock()
	b.snapshot = snap
	b.mu.Unlock()
}

// Record folds an execution into the running aggregates.
func (b *Brokerage) Record(ex grid.Execution) {
	b.mu.Lock()
	if b.perf == nil {
		b.perf = make(map[perfKey]*perfAccum)
	}
	key := perfKey{ex.Service, ex.Node}
	a := b.perf[key]
	if a == nil {
		a = &perfAccum{}
		b.perf[key] = a
	}
	a.add(ex)
	b.mu.Unlock()
	b.instrument()
	b.mRecorded.Inc()
}

// instrument resolves the counters Record and HandleMessage bump, the first
// time either runs with Telemetry set.
func (b *Brokerage) instrument() {
	if b.Telemetry != nil {
		b.instruments.Do(func() {
			b.mRecorded = b.Telemetry.Counter("brokerage.executions.recorded")
			b.mRequests = b.Telemetry.Counter("brokerage.requests")
		})
	}
}

// Stats returns the execution history of a service on one node; the zero
// value when nothing ran there.
func (b *Brokerage) Stats(service, node string) PerfStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.perf[perfKey{service, node}].stats()
}

// HandleMessage implements agent.Handler.
func (b *Brokerage) HandleMessage(ctx *agent.Context, msg agent.Message) {
	b.instrument()
	b.mRequests.Inc()
	switch req := msg.Content.(type) {
	case ContainersRequest:
		b.mu.Lock()
		list := append([]string(nil), b.snapshot[req.Service]...)
		b.mu.Unlock()
		_ = ctx.Reply(msg, agent.Inform, ContainersReply{Containers: list})
	default:
		_ = ctx.Reply(msg, agent.Refuse, fmt.Sprintf("brokerage: unsupported content %T", msg.Content))
	}
}
