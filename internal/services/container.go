package services

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/grid"
)

// AvailabilityRequest asks a container whether it can currently execute a
// service (Figure 3, steps 6-7: "Activities executable?").
type AvailabilityRequest struct{ Service string }

// AvailabilityReply answers it.
type AvailabilityReply struct {
	Container  string
	Service    string
	Executable bool
}

// ExecuteRequest asks a container to run a service.
type ExecuteRequest struct {
	Service  string
	BaseTime float64
	DataMB   float64
}

// ExecuteReply reports the execution record on success.
type ExecuteReply struct{ Exec grid.Execution }

// ContainerAgent exposes one grid application container as an agent. It
// answers availability probes and execution requests; failures at the grid
// level surface as Failure replies, which triggers the coordinator's
// recovery path.
type ContainerAgent struct {
	Grid      *grid.Grid
	Container string
	// Brokerage, when set, receives every execution record before the
	// requester receives its reply.
	Brokerage *Brokerage
}

// HandleMessage implements agent.Handler.
func (a *ContainerAgent) HandleMessage(ctx *agent.Context, msg agent.Message) {
	switch req := msg.Content.(type) {
	case AvailabilityRequest:
		a.heartbeat(ctx)
		ok := false
		if c := a.Grid.Container(a.Container); c != nil && c.Provides(req.Service) {
			if n := a.Grid.Node(c.NodeID); n != nil && n.Up() {
				ok = true
			}
		}
		_ = ctx.Reply(msg, agent.Inform, AvailabilityReply{
			Container: a.Container, Service: req.Service, Executable: ok,
		})
	case CallForProposal:
		a.heartbeat(ctx)
		if prop, ok := a.bid(req); ok {
			_ = ctx.Reply(msg, agent.Inform, prop)
		} else {
			_ = ctx.Reply(msg, agent.Refuse, "container "+a.Container+" declines")
		}
	case ExecuteRequest:
		ex, err := a.Grid.Execute(a.Container, req.Service, req.BaseTime, req.DataMB)
		// Record in the brokerage's performance data base — failed
		// executions included, so the "proven record of reliability"
		// reflects reality, not just the successes. By call, before the
		// reply: a message would race the requester's next history read.
		if ex.Service != "" && a.Brokerage != nil {
			a.Brokerage.Record(ex)
		}
		// And to the monitoring service's health statistics, also best
		// effort — a crash mid-execution shows up here as a faulted failure.
		if ctx.Platform().Has(MonitoringName) {
			out := ExecOutcome{Node: a.node(), Container: a.Container, Service: req.Service, OK: err == nil}
			if ex.Service != "" {
				out.Fault = ex.Fault
			}
			_ = ctx.Send(MonitoringName, agent.Inform, OntMonitoring, out)
		}
		if err != nil {
			_ = ctx.Reply(msg, agent.Failure, fmt.Errorf("container %s: %w", a.Container, err))
			return
		}
		_ = ctx.Reply(msg, agent.Inform, ExecuteReply{Exec: ex})
	default:
		_ = ctx.Reply(msg, agent.Refuse, fmt.Sprintf("container %s: unsupported content %T", a.Container, msg.Content))
	}
}

// node returns the hosting node's ID (looked up live, since the container
// record is the source of truth).
func (a *ContainerAgent) node() string {
	if c := a.Grid.Container(a.Container); c != nil {
		return c.NodeID
	}
	return ""
}

// heartbeat signals liveness to the monitoring service, best effort.
func (a *ContainerAgent) heartbeat(ctx *agent.Context) {
	if ctx.Platform().Has(MonitoringName) {
		_ = ctx.Send(MonitoringName, agent.Inform, OntMonitoring,
			Heartbeat{Node: a.node(), Container: a.Container})
	}
}
