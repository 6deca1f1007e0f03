package services

import (
	"fmt"
	"log/slog"
	"sync"

	"repro/internal/agent"
	"repro/internal/grid"
	"repro/internal/telemetry"
)

// The monitoring service of Figure 1: accurate, on-demand resource status
// (the brokerage's view may be stale; monitoring's is authoritative), plus
// per-node health tracked from container heartbeats and execution outcomes
// (reported by call, see Outcome), and the quarantine interface the
// coordinator uses to take a faulty node out of rotation before re-planning
// (Figure 3: the new plan must route around the failed resource).

// NodeStatusRequest asks for the live status of a node.
type NodeStatusRequest struct{ Node string }

// NodeStatusReply reports it.
type NodeStatusReply struct {
	Node  string
	Known bool
	Up    bool
}

// Heartbeat is a container's liveness signal; containers emit one whenever
// they answer an availability probe.
type Heartbeat struct {
	Node      string
	Container string
}

// NodeHealthRequest asks for the full health record of a node.
type NodeHealthRequest struct{ Node string }

// NodeHealthReply answers it.
type NodeHealthReply struct{ Health NodeHealth }

// ClusterHealthRequest asks for the health summary of every node.
type ClusterHealthRequest struct{}

// ClusterHealthReply answers it, nodes sorted by ID.
type ClusterHealthReply struct {
	Nodes       []NodeHealth `json:"nodes"`
	Up          int          `json:"up"`
	Down        int          `json:"down"`
	Degraded    int          `json:"degraded"`
	Quarantined int          `json:"quarantined"`
}

// QuarantineRequest marks a node unavailable in the grid (its containers
// refuse work until repair) and records the reason. The coordinator sends it
// when an activity exhausts its retry budget on the node.
type QuarantineRequest struct {
	Node   string
	Reason string
}

// QuarantineReply acknowledges a quarantine.
type QuarantineReply struct {
	Node  string
	Known bool
}

// DegradedAfter is the number of consecutive failed executions after which
// a node's health status turns "degraded".
const DegradedAfter = 3

// Node health status values.
const (
	HealthHealthy     = "healthy"
	HealthDegraded    = "degraded"
	HealthDown        = "down"
	HealthQuarantined = "quarantined"
)

// NodeHealth is the monitoring service's view of one node.
type NodeHealth struct {
	Node                string `json:"node"`
	Known               bool   `json:"known"`
	Up                  bool   `json:"up"`
	Status              string `json:"status"`
	Heartbeats          int64  `json:"heartbeats"`
	Successes           int64  `json:"successes"`
	Failures            int64  `json:"failures"`
	Faults              int64  `json:"faults"`
	ConsecutiveFailures int    `json:"consecutiveFailures"`
	QuarantineReason    string `json:"quarantineReason,omitempty"`
}

// healthRecord accumulates per-node signals; guarded by Monitoring.mu.
type healthRecord struct {
	heartbeats          int64
	successes           int64
	failures            int64
	faults              int64
	consecutiveFailures int
}

// Monitoring is the monitoring service agent: authoritative on-demand node
// status, per-node health from heartbeats and execution outcomes, and node
// quarantine.
type Monitoring struct {
	Grid *grid.Grid
	// Telemetry, when set, receives monitoring.* metrics and node-health
	// transition events on its bus; nil disables instrumentation (all
	// instruments are nil-safe).
	Telemetry *telemetry.Registry
	// Logger, when set, records health transitions and quarantines.
	Logger *slog.Logger

	mu          sync.Mutex
	health      map[string]*healthRecord
	quarantined map[string]string // node -> reason
	// The instruments every outcome records into, resolved once under mu
	// (see instrument); nil until Telemetry is set.
	mOutcomes *telemetry.Counter // monitoring.outcomes
	gUp       *telemetry.Gauge   // monitoring.nodes.up
}

// HandleMessage implements agent.Handler.
func (s *Monitoring) HandleMessage(ctx *agent.Context, msg agent.Message) {
	switch req := msg.Content.(type) {
	case NodeStatusRequest:
		n := s.Grid.Node(req.Node)
		reply := NodeStatusReply{Node: req.Node, Known: n != nil}
		if n != nil {
			reply.Up = n.Up()
		}
		_ = ctx.Reply(msg, agent.Inform, reply)
	case Heartbeat:
		s.Telemetry.Counter("monitoring.heartbeats").Inc()
		s.mu.Lock()
		s.record(req.Node).heartbeats++
		s.mu.Unlock()
	case NodeHealthRequest:
		_ = ctx.Reply(msg, agent.Inform, NodeHealthReply{Health: s.NodeHealth(req.Node)})
	case ClusterHealthRequest:
		_ = ctx.Reply(msg, agent.Inform, s.ClusterHealth())
	case QuarantineRequest:
		known := s.Grid.Node(req.Node) != nil
		if known {
			_ = s.Grid.SetNodeUp(req.Node, false)
			s.mu.Lock()
			if s.quarantined == nil {
				s.quarantined = make(map[string]string)
			}
			s.quarantined[req.Node] = req.Reason
			s.updateUpGauge()
			s.mu.Unlock()
			s.Telemetry.Counter("monitoring.quarantines").Inc()
			s.publishHealth(req.Node, HealthQuarantined, req.Reason)
		}
		_ = ctx.Reply(msg, agent.Agree, QuarantineReply{Node: req.Node, Known: known})
	default:
		_ = ctx.Reply(msg, agent.Refuse, fmt.Sprintf("monitoring: unsupported content %T", msg.Content))
	}
}

// Outcome records one finished execution attempt on a node in its health
// statistics: success or failure, fault marking an injected fault (see
// grid.FaultSpec) as opposed to the node's ordinary failure rate. Executions
// report on their own goroutines (Containers.Execute), so callers may race.
// mu orders them: each crossing of DegradedAfter is published once, by the
// caller that made it, in the order the crossings happened, and an outcome
// that leaves the status as it was publishes nothing.
func (s *Monitoring) Outcome(node, service string, ok, fault bool) {
	s.mu.Lock()
	s.instrument()
	s.mOutcomes.Inc()
	rec := s.record(node)
	rec.heartbeats++
	wasDegraded := rec.consecutiveFailures >= DegradedAfter
	if ok {
		rec.successes++
		rec.consecutiveFailures = 0
	} else {
		rec.failures++
		rec.consecutiveFailures++
		if fault {
			rec.faults++
		}
	}
	if nowDegraded := rec.consecutiveFailures >= DegradedAfter; !wasDegraded && nowDegraded {
		s.publishHealth(node, HealthDegraded,
			fmt.Sprintf("%d consecutive failures (service %s)", DegradedAfter, service))
	} else if wasDegraded && ok {
		s.publishHealth(node, HealthHealthy, "recovered after successful execution")
	}
	s.updateUpGauge()
	s.mu.Unlock()
}

// publishHealth mirrors one node-health transition onto the telemetry event
// bus and the structured log.
func (s *Monitoring) publishHealth(node, status, detail string) {
	s.Telemetry.PublishEvent(telemetry.Event{
		Node: node, Kind: telemetry.EventKindNodeHealth, Name: status, Detail: detail,
	})
	if s.Logger != nil {
		s.Logger.Info("node health transition",
			slog.String("node", node), slog.String("status", status), slog.String("detail", detail))
	}
}

// record returns (creating if needed) the health record of a node; callers
// hold s.mu.
func (s *Monitoring) record(node string) *healthRecord {
	if s.health == nil {
		s.health = make(map[string]*healthRecord)
	}
	rec := s.health[node]
	if rec == nil {
		rec = &healthRecord{}
		s.health[node] = rec
	}
	return rec
}

// NodeHealth assembles the health view of one node.
func (s *Monitoring) NodeHealth(node string) NodeHealth {
	n := s.Grid.Node(node)
	h := NodeHealth{Node: node, Known: n != nil}
	if n == nil {
		return h
	}
	h.Up = n.Up()
	s.mu.Lock()
	if rec := s.health[node]; rec != nil {
		h.Heartbeats = rec.heartbeats
		h.Successes = rec.successes
		h.Failures = rec.failures
		h.Faults = rec.faults
		h.ConsecutiveFailures = rec.consecutiveFailures
	}
	h.QuarantineReason = s.quarantined[node]
	s.mu.Unlock()
	switch {
	case h.QuarantineReason != "":
		h.Status = HealthQuarantined
	case !h.Up:
		h.Status = HealthDown
	case h.ConsecutiveFailures >= DegradedAfter:
		h.Status = HealthDegraded
	default:
		h.Status = HealthHealthy
	}
	return h
}

// ClusterHealth assembles the health summary of every node.
func (s *Monitoring) ClusterHealth() ClusterHealthReply {
	reply := ClusterHealthReply{Nodes: []NodeHealth{}}
	for _, n := range s.Grid.Nodes() {
		h := s.NodeHealth(n.ID)
		reply.Nodes = append(reply.Nodes, h)
		switch h.Status {
		case HealthQuarantined:
			reply.Quarantined++
		case HealthDown:
			reply.Down++
		case HealthDegraded:
			reply.Degraded++
		}
		if h.Up {
			reply.Up++
		}
	}
	return reply
}

// instrument resolves the instruments outcomes record into, once Telemetry
// is set; callers hold s.mu.
func (s *Monitoring) instrument() {
	if s.gUp == nil && s.Telemetry != nil {
		s.mOutcomes = s.Telemetry.Counter("monitoring.outcomes")
		s.gUp = s.Telemetry.Gauge("monitoring.nodes.up")
	}
}

// updateUpGauge refreshes the monitoring.nodes.up gauge from the grid.
// Callers hold s.mu, so racing callers set it in the order they read the
// grid and the last reading stays.
func (s *Monitoring) updateUpGauge() {
	s.instrument()
	s.gUp.Set(float64(s.Grid.UpCount()))
}
