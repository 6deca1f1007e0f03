package services

import (
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/grid"
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

func TestMonitoringSubscriptions(t *testing.T) {
	g := grid.New(1)
	_ = g.AddNode(&grid.Node{ID: "n1", Hardware: grid.Hardware{Speed: 1}})
	_ = g.AddNode(&grid.Node{ID: "n2", Hardware: grid.Hardware{Speed: 1}})
	p := agent.NewPlatform()
	defer p.Shutdown()
	p.MustRegister(MonitoringName, &Monitoring{Grid: g})

	events := make(chan StatusEvent, 16)
	sub := p.MustRegister("watcher", agent.HandlerFunc(func(_ *agent.Context, msg agent.Message) {
		if ev, ok := msg.Content.(StatusEvent); ok {
			events <- ev
		}
	}))
	if _, err := sub.Call(MonitoringName, OntMonitoring, SubscribeStatus{}, time.Second); err != nil {
		t.Fatal(err)
	}

	// No change: poll produces nothing.
	reply, err := sub.Call(MonitoringName, OntMonitoring, PollStatus{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n := reply.Content.(int); n != 0 {
		t.Errorf("initial poll events = %d, want 0", n)
	}

	// Fail a node: one event for n1.
	_ = g.SetNodeUp("n1", false)
	reply, _ = sub.Call(MonitoringName, OntMonitoring, PollStatus{}, time.Second)
	if n := reply.Content.(int); n != 1 {
		t.Fatalf("poll events = %d, want 1", n)
	}
	select {
	case ev := <-events:
		if ev.Node != "n1" || ev.Up {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no event delivered")
	}

	// Repair both state changes at once. Delivery is asynchronous, so
	// collect with a deadline rather than assuming arrival before the poll
	// reply.
	_ = g.SetNodeUp("n1", true)
	_ = g.SetNodeUp("n2", false)
	reply, _ = sub.Call(MonitoringName, OntMonitoring, PollStatus{}, time.Second)
	if n := reply.Content.(int); n != 2 {
		t.Errorf("poll events = %d, want 2", n)
	}
	deadline := time.After(time.Second)
	for drained := 0; drained < 2; {
		select {
		case <-events:
			drained++
		case <-deadline:
			t.Fatalf("only %d of 2 events delivered", drained)
		}
	}

	// Unsubscribe: further changes are not delivered.
	if _, err := sub.Call(MonitoringName, OntMonitoring, UnsubscribeStatus{}, time.Second); err != nil {
		t.Fatal(err)
	}
	_ = g.SetNodeUp("n2", true)
	_, _ = sub.Call(MonitoringName, OntMonitoring, PollStatus{}, time.Second)
	select {
	case ev := <-events:
		t.Errorf("event after unsubscribe: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}
