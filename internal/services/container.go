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

// ContainerAgent exposes one grid application container as an agent that
// answers the planning service's availability probes. Executions do not pass
// through it: the coordinator runs them by call (Containers.Execute).
type ContainerAgent struct {
	Grid      *grid.Grid
	Container string
}

// HandleMessage implements agent.Handler.
func (a *ContainerAgent) HandleMessage(ctx *agent.Context, msg agent.Message) {
	switch req := msg.Content.(type) {
	case AvailabilityRequest:
		c := a.Grid.Container(a.Container)
		if ctx.Platform().Has(MonitoringName) { // a liveness signal, best effort
			hb := Heartbeat{Container: a.Container}
			if c != nil {
				hb.Node = c.NodeID
			}
			_ = ctx.Send(MonitoringName, agent.Inform, OntMonitoring, hb)
		}
		ok := false
		if c != nil && c.Provides(req.Service) {
			if n := a.Grid.Node(c.NodeID); n != nil && n.Up() {
				ok = true
			}
		}
		_ = ctx.Reply(msg, agent.Inform, AvailabilityReply{
			Container: a.Container, Service: req.Service, Executable: ok,
		})
	default:
		_ = ctx.Reply(msg, agent.Refuse, fmt.Sprintf("container %s: unsupported content %T", a.Container, msg.Content))
	}
}

// Containers executes end-user services on the grid's application
// containers by call, on the caller's goroutine: a simulated execution holds
// the grid's lock and nothing else, so a round trip through the container's
// agent would buy no parallelism.
type Containers struct {
	Grid       *grid.Grid
	Brokerage  *Brokerage
	Monitoring *Monitoring
}

// Execute runs a service on a container. An execution that reached a node is
// in the brokerage's performance data base before Execute returns — failed
// ones included, so the "proven record of reliability" reflects reality —
// and the caller's next ranking reads it. The monitoring service's health
// statistics then take the outcome; a crash mid-execution shows up there as
// a faulted failure.
func (c *Containers) Execute(container, service string, baseTime, dataMB float64) (grid.Execution, error) {
	ex, err := c.Grid.Execute(container, service, baseTime, dataMB)
	node := ex.Node
	if ex.Service != "" {
		c.Brokerage.Record(ex)
	} else if ct := c.Grid.Container(container); ct != nil {
		node = ct.NodeID
	}
	c.Monitoring.Outcome(node, service, err == nil, ex.Fault)
	if err != nil {
		return ex, fmt.Errorf("container %s: %w", container, err)
	}
	return ex, nil
}
