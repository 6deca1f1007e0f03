package services

import (
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/telemetry"
)

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
	f.core.Monitoring.Outcome("n1", "POD", true, false)
	f.core.Monitoring.Outcome("n1", "POD", false, true)

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
		f.core.Monitoring.Outcome("n2", "PSF", false, false)
	}
	if h := nodeHealth(t, f, "n2"); h.Status != HealthDegraded {
		t.Fatalf("after %d consecutive failures status = %q", DegradedAfter, h.Status)
	}
	// One success resets the streak.
	f.core.Monitoring.Outcome("n2", "PSF", true, false)
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
		f.core.Monitoring.Outcome("n2", "PSF", false, false)
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

// TestContainerReportsToMonitoring probes a container agent and executes on
// its container, and checks that heartbeats (from probes) and outcomes (from
// executions) land in the monitoring service's health record.
func TestContainerReportsToMonitoring(t *testing.T) {
	f := newFixture(t)
	if _, err := f.client.Call("ac-1", OntExecution, AvailabilityRequest{Service: "POD"}, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := f.core.Containers.Execute("ac-1", "POD", 5, 0); err != nil {
		t.Fatal(err)
	}
	h := nodeHealth(t, f, "n1")
	if h.Heartbeats < 2 || h.Successes != 1 {
		t.Fatalf("health after container traffic = %+v", h)
	}
}

// TestMonitorConcurrentOutcomes reports outcomes from many goroutines at
// once, the way executions on concurrent enactments do (run it under -race):
// every outcome lands in the counters, and the one node whose streak crosses
// DegradedAfter publishes exactly one degraded edge.
func TestMonitorConcurrentOutcomes(t *testing.T) {
	const goroutines, perG = 8, 50
	f := newFixture(t)
	tel := telemetry.New()
	f.core.Monitoring.Telemetry = tel
	sub := tel.Subscribe(4 * goroutines * perG) // n1 may flap on every outcome
	defer sub.Close()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// n1 alternates success, failure and fault; n2 only fails.
				switch i % 3 {
				case 0:
					f.core.Monitoring.Outcome("n1", "POD", true, false)
				case 1:
					f.core.Monitoring.Outcome("n1", "POD", false, false)
				default:
					f.core.Monitoring.Outcome("n1", "POD", false, true)
				}
				f.core.Monitoring.Outcome("n2", "PSF", false, false)
			}
		}()
	}
	wg.Wait()

	n1, n2 := f.core.Monitoring.NodeHealth("n1"), f.core.Monitoring.NodeHealth("n2")
	var wantOK, wantFailed, wantFaults int64
	for i := 0; i < perG; i++ {
		switch i % 3 {
		case 0:
			wantOK++
		case 1:
			wantFailed++
		default:
			wantFailed++
			wantFaults++
		}
	}
	wantOK, wantFailed, wantFaults = wantOK*goroutines, wantFailed*goroutines, wantFaults*goroutines
	if n1.Successes != wantOK || n1.Failures != wantFailed || n1.Faults != wantFaults {
		t.Errorf("n1 counted %d ok / %d failed / %d faults, reported %d / %d / %d",
			n1.Successes, n1.Failures, n1.Faults, wantOK, wantFailed, wantFaults)
	}
	if n2.Failures != goroutines*perG || n2.Successes != 0 || n2.Status != HealthDegraded {
		t.Errorf("n2 = %+v, want %d failures and degraded", n2, goroutines*perG)
	}
	if got := tel.Counter("monitoring.outcomes").Value(); got != 2*goroutines*perG {
		t.Errorf("monitoring.outcomes = %d, want %d", got, 2*goroutines*perG)
	}
	degraded := 0
	for drained := false; !drained; {
		select {
		case ev := <-sub.Events():
			if ev.Node == "n2" && ev.Name == HealthDegraded {
				degraded++
			}
		default:
			drained = true
		}
	}
	if degraded != 1 || sub.Dropped() != 0 {
		t.Errorf("n2 published %d degraded edges (%d events dropped), want 1", degraded, sub.Dropped())
	}
}
