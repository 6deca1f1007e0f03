package services

import (
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/telemetry"
)

// sendOutcome reports one execution outcome; a follow-up synchronous call on
// the same mailbox guarantees the async send has been processed.
func sendOutcome(t *testing.T, f *fixture, out ExecOutcome) {
	t.Helper()
	if err := f.client.Send(MonitoringName, agent.Inform, OntMonitoring, out); err != nil {
		t.Fatal(err)
	}
}

func nodeHealth(t *testing.T, f *fixture, node string) NodeHealth {
	t.Helper()
	reply, err := f.client.Call(MonitoringName, OntMonitoring, NodeHealthRequest{Node: node}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	hr, ok := reply.Content.(NodeHealthReply)
	if !ok {
		t.Fatalf("unexpected reply %T", reply.Content)
	}
	return hr.Health
}

func TestMonitorHealthFromOutcomes(t *testing.T) {
	f := newFixture(t)
	tel := telemetry.New()
	f.core.Monitoring.Telemetry = tel

	if err := f.client.Send(MonitoringName, agent.Inform, OntMonitoring, Heartbeat{Node: "n1", Container: "ac-1"}); err != nil {
		t.Fatal(err)
	}
	sendOutcome(t, f, ExecOutcome{Node: "n1", Container: "ac-1", Service: "POD", OK: true})
	sendOutcome(t, f, ExecOutcome{Node: "n1", Container: "ac-1", Service: "POD", OK: false, Fault: true})

	h := nodeHealth(t, f, "n1")
	if !h.Known || !h.Up || h.Status != HealthHealthy {
		t.Fatalf("health = %+v", h)
	}
	if h.Heartbeats != 3 || h.Successes != 1 || h.Failures != 1 || h.Faults != 1 || h.ConsecutiveFailures != 1 {
		t.Fatalf("counters = %+v", h)
	}
	if got := tel.Counter("monitoring.heartbeats").Value(); got != 1 {
		t.Fatalf("monitoring.heartbeats = %d", got)
	}
	if got := tel.Counter("monitoring.outcomes").Value(); got != 2 {
		t.Fatalf("monitoring.outcomes = %d", got)
	}

	unknown := nodeHealth(t, f, "ghost")
	if unknown.Known {
		t.Fatalf("ghost known: %+v", unknown)
	}
}

func TestMonitorDegradedThreshold(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < DegradedAfter; i++ {
		sendOutcome(t, f, ExecOutcome{Node: "n2", Container: "ac-2", Service: "PSF", OK: false})
	}
	if h := nodeHealth(t, f, "n2"); h.Status != HealthDegraded {
		t.Fatalf("after %d consecutive failures status = %q", DegradedAfter, h.Status)
	}
	// One success resets the streak.
	sendOutcome(t, f, ExecOutcome{Node: "n2", Container: "ac-2", Service: "PSF", OK: true})
	if h := nodeHealth(t, f, "n2"); h.Status != HealthHealthy || h.ConsecutiveFailures != 0 {
		t.Fatalf("after recovery health = %+v", h)
	}
}

func TestMonitorQuarantine(t *testing.T) {
	f := newFixture(t)
	tel := telemetry.New()
	f.core.Monitoring.Telemetry = tel

	reply, err := f.client.Call(MonitoringName, OntMonitoring,
		QuarantineRequest{Node: "n1", Reason: "retries exhausted"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	qr, ok := reply.Content.(QuarantineReply)
	if !ok || !qr.Known {
		t.Fatalf("quarantine reply = %#v", reply.Content)
	}
	if f.grid.Node("n1").Up() {
		t.Fatal("n1 still up after quarantine")
	}
	h := nodeHealth(t, f, "n1")
	if h.Status != HealthQuarantined || h.QuarantineReason != "retries exhausted" {
		t.Fatalf("health = %+v", h)
	}
	if got := tel.Counter("monitoring.quarantines").Value(); got != 1 {
		t.Fatalf("monitoring.quarantines = %d", got)
	}
	if got := tel.Gauge("monitoring.nodes.up").Value(); got != 1 {
		t.Fatalf("monitoring.nodes.up = %g", got)
	}

	// Unknown nodes are acknowledged but not recorded.
	reply, err = f.client.Call(MonitoringName, OntMonitoring,
		QuarantineRequest{Node: "ghost", Reason: "x"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if qr, ok := reply.Content.(QuarantineReply); !ok || qr.Known {
		t.Fatalf("ghost quarantine reply = %#v", reply.Content)
	}
}

func TestMonitorClusterHealth(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < DegradedAfter; i++ {
		sendOutcome(t, f, ExecOutcome{Node: "n2", Container: "ac-2", Service: "PSF", OK: false})
	}
	if _, err := f.client.Call(MonitoringName, OntMonitoring,
		QuarantineRequest{Node: "n1", Reason: "test"}, time.Second); err != nil {
		t.Fatal(err)
	}
	reply, err := f.client.Call(MonitoringName, OntMonitoring, ClusterHealthRequest{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ch, ok := reply.Content.(ClusterHealthReply)
	if !ok {
		t.Fatalf("unexpected reply %T", reply.Content)
	}
	if len(ch.Nodes) != 2 || ch.Up != 1 || ch.Quarantined != 1 || ch.Degraded != 1 {
		t.Fatalf("cluster health = %+v", ch)
	}
	if ch.Nodes[0].Node != "n1" || ch.Nodes[1].Node != "n2" {
		t.Fatalf("nodes not sorted: %+v", ch.Nodes)
	}
}

// TestContainerReportsToMonitoring drives a container agent end to end and
// checks that heartbeats (from probes) and outcomes (from executions) land
// in the monitoring service's health record.
func TestContainerReportsToMonitoring(t *testing.T) {
	f := newFixture(t)
	if _, err := f.client.Call("ac-1", OntExecution, AvailabilityRequest{Service: "POD"}, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.Call("ac-1", OntExecution, ExecuteRequest{Service: "POD", BaseTime: 5}, time.Second); err != nil {
		t.Fatal(err)
	}
	h := nodeHealth(t, f, "n1")
	if h.Heartbeats < 2 || h.Successes != 1 {
		t.Fatalf("health after container traffic = %+v", h)
	}
}
