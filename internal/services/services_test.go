package services

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/grid"
	"repro/internal/ontology"
)

// fixture builds a platform with a small grid and all core services.
type fixture struct {
	platform *agent.Platform
	grid     *grid.Grid
	core     *Core
	broker   *Brokerage
	client   *agent.Context
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	g := grid.New(3)
	mustNoErr := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustNoErr(g.AddNode(&grid.Node{
		ID: "n1", Domain: "a.edu",
		Hardware:   grid.Hardware{Type: "PC-cluster", Speed: 1, BandwidthMbps: 100, LatencyUs: 100},
		CostPerSec: 0.01,
		Software:   []grid.Software{{Name: "POD"}, {Name: "P3DR"}},
	}))
	mustNoErr(g.AddNode(&grid.Node{
		ID: "n2", Domain: "b.gov",
		Hardware:   grid.Hardware{Type: "SMP", Speed: 3, BandwidthMbps: 1000, LatencyUs: 10},
		CostPerSec: 0.05,
		Software:   []grid.Software{{Name: "P3DR"}, {Name: "PSF"}},
	}))
	mustNoErr(g.AddContainer(&grid.Container{ID: "ac-1", NodeID: "n1", Services: []string{"POD", "P3DR"}}))
	mustNoErr(g.AddContainer(&grid.Container{ID: "ac-2", NodeID: "n2", Services: []string{"P3DR", "PSF"}}))

	p := agent.NewPlatform()
	core, err := Bootstrap(p, g, nil)
	mustNoErr(err)
	client, err := p.Register("client", agent.HandlerFunc(func(*agent.Context, agent.Message) {}))
	mustNoErr(err)
	t.Cleanup(p.Shutdown)
	return &fixture{platform: p, grid: g, core: core, broker: core.Brokerage, client: client}
}

func TestBootstrapRegistersEverything(t *testing.T) {
	f := newFixture(t)
	for _, name := range []string{
		InformationName, BrokerageName, MonitoringName, StorageName,
		OntologyName, "ac-1", "ac-2",
	} {
		if !f.platform.Has(name) {
			t.Errorf("agent %q not registered", name)
		}
	}
}

func TestInformationLookup(t *testing.T) {
	f := newFixture(t)
	offers, err := Lookup(f.client, "end-user:P3DR")
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 2 || offers[0].Name != "ac-1" || offers[1].Name != "ac-2" {
		t.Errorf("offers = %+v", offers)
	}
	if offers, _ := Lookup(f.client, "brokerage"); len(offers) != 1 || offers[0].Name != BrokerageName {
		t.Errorf("brokerage offer = %+v", offers)
	}
	if offers, _ := Lookup(f.client, "nothing"); len(offers) != 0 {
		t.Errorf("phantom offers = %+v", offers)
	}
	// New registrations are visible.
	if _, err := f.client.Call(InformationName, OntInformation,
		Offer{Name: "client", Type: "end-user:NEW", Location: "here"}, time.Second); err != nil {
		t.Fatal(err)
	}
	offers, _ = Lookup(f.client, "end-user:NEW")
	if len(offers) != 1 || offers[0].Name != "client" {
		t.Errorf("registered offer = %+v", offers)
	}
}

func TestBrokerageSnapshotAndStaleness(t *testing.T) {
	f := newFixture(t)
	reply, err := f.client.Call(BrokerageName, OntBrokerage, ContainersRequest{Service: "P3DR"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	list := reply.Content.(ContainersReply).Containers
	if len(list) != 2 {
		t.Fatalf("containers = %v", list)
	}
	// Fail a node: the brokerage snapshot is STALE until refreshed (the
	// paper: "such information may be obsolete").
	_ = f.grid.SetNodeUp("n2", false)
	reply, _ = f.client.Call(BrokerageName, OntBrokerage, ContainersRequest{Service: "P3DR"}, time.Second)
	if got := len(reply.Content.(ContainersReply).Containers); got != 2 {
		t.Errorf("stale snapshot = %d containers, want 2 (staleness is intentional)", got)
	}
	f.broker.Refresh()
	reply, _ = f.client.Call(BrokerageName, OntBrokerage, ContainersRequest{Service: "P3DR"}, time.Second)
	if got := reply.Content.(ContainersReply).Containers; len(got) != 1 || got[0] != "ac-1" {
		t.Errorf("refreshed snapshot = %v", got)
	}
}

func TestBrokeragePerformanceHistory(t *testing.T) {
	f := newFixture(t)
	f.broker.Record(grid.Execution{Service: "P3DR", Node: "n1", Duration: 10, Cost: 1, OK: true})
	f.broker.Record(grid.Execution{Service: "P3DR", Node: "n1", Duration: 20, Cost: 3, OK: false})
	f.broker.Record(grid.Execution{Service: "POD", Node: "n1", Duration: 5, OK: true})
	if s := f.broker.Stats("P3DR", "n1"); s.Runs != 2 || s.MeanDuration != 15 || s.SuccessRate != 0.5 || s.MeanCost != 2 {
		t.Errorf("n1 stats = %+v", s)
	}
	if s := f.broker.Stats("P3DR", "n2"); s != (PerfStats{}) {
		t.Errorf("n2 stats = %+v, want none: nothing ran there", s)
	}
	if classes := f.grid.EquivalenceClasses(); len(classes) != 2 {
		t.Errorf("classes = %+v", classes)
	}
}

func TestMatchmaking(t *testing.T) {
	f := newFixture(t)
	mm := f.core.Matchmaking
	cands := mm.Match(MatchRequest{Service: "P3DR"})
	if len(cands) != 2 {
		t.Fatalf("candidates = %+v", cands)
	}
	// n2 is 3x faster: better score despite higher cost? score = speed/cost:
	// n1: 1/0.01=100, n2: 3/0.05=60 -> n1 first.
	if cands[0].Node != "n1" {
		t.Errorf("ranking = %+v", cands)
	}
	// Constraints filter: min speed 2 leaves only n2.
	if cands := mm.Match(MatchRequest{Service: "P3DR", MinSpeed: 2}); len(cands) != 1 || cands[0].Node != "n2" {
		t.Errorf("min-speed candidates = %+v", cands)
	}
	// Fine-grain task: low latency requirement excludes the PC cluster.
	if cands := mm.Match(MatchRequest{Service: "P3DR", MaxLatencyUs: 50}); len(cands) != 1 || cands[0].Node != "n2" {
		t.Errorf("latency candidates = %+v", cands)
	}
	// Software constraint.
	if cands := mm.Match(MatchRequest{Service: "P3DR", RequireSoftware: []string{"PSF"}}); len(cands) != 1 || cands[0].Node != "n2" {
		t.Errorf("software candidates = %+v", cands)
	}
	// Domain constraint.
	if cands := mm.Match(MatchRequest{Service: "P3DR", Domain: "a.edu"}); len(cands) != 1 || cands[0].Node != "n1" {
		t.Errorf("domain candidates = %+v", cands)
	}
	// Matchmaking sees live status (unlike the brokerage).
	_ = f.grid.SetNodeUp("n2", false)
	if cands := mm.Match(MatchRequest{Service: "P3DR"}); len(cands) != 1 {
		t.Errorf("live candidates = %+v", cands)
	}
}

// TestMatchmakingRankingFollowsGridVersion walks every way the grid changes
// under matchmaking: each must move the grid version, and the memoized
// ranking must then equal one computed from scratch. A change that forgot to
// move the version would leave the ranking stale forever.
func TestMatchmakingRankingFollowsGridVersion(t *testing.T) {
	f := newFixture(t)
	g, mm := f.grid, f.core.Matchmaking
	req := MatchRequest{Service: "P3DR"}
	mm.Match(req) // warm: every step below starts from a memoized ranking
	for _, step := range []struct {
		name   string
		change func() error
		nodes  []string // the ranking afterwards, best first
	}{
		{"add node", func() error {
			return g.AddNode(&grid.Node{ID: "n3", Domain: "c.org", Hardware: grid.Hardware{Speed: 8}, CostPerSec: 0.02})
		}, []string{"n1", "n2"}},
		{"add container", func() error {
			return g.AddContainer(&grid.Container{ID: "ac-3", NodeID: "n3", Services: []string{"P3DR"}})
		}, []string{"n3", "n1", "n2"}},
		{"node down", func() error { return g.SetNodeUp("n3", false) }, []string{"n1", "n2"}},
		{"node up", func() error { return g.SetNodeUp("n3", true) }, []string{"n3", "n1", "n2"}},
		{"injected crash inside Execute", func() error {
			if err := g.SetFaults(&grid.FaultSpec{Seed: 1, Nodes: []string{"n1"}, FailureRate: 1, CrashRate: 1}); err != nil {
				return err
			}
			if _, err := g.Execute("ac-1", "P3DR", 1, 0); err == nil || g.Node("n1").Up() {
				t.Fatalf("execution on n1 did not crash it: err=%v", err)
			}
			return nil
		}, []string{"n3", "n2"}},
		{"crashed node repaired", func() error { return g.SetNodeUp("n1", true) }, []string{"n3", "n1", "n2"}},
	} {
		before := g.Version()
		if err := step.change(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if g.Version() == before {
			t.Errorf("%s: grid version stayed at %d", step.name, before)
		}
		got := mm.Match(req)
		if fresh := (&Matchmaking{Grid: g}).Match(req); !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s: memoized ranking %+v, fresh %+v", step.name, got, fresh)
		}
		var nodes []string
		for _, c := range got {
			nodes = append(nodes, c.Node)
		}
		if !reflect.DeepEqual(nodes, step.nodes) {
			t.Errorf("%s: ranking = %v, want %v", step.name, nodes, step.nodes)
		}
	}
}

// TestHistoryVisibleBeforeReply pins the ordering placement relies on: once
// an execution call has returned — with or without an error — the brokerage
// already counts that run, so the caller's next ranking reads it.
func TestHistoryVisibleBeforeReply(t *testing.T) {
	f := newFixture(t)
	f.grid.Node("n2").FailureRate = 1 // before any dispatch: ac-2 always fails
	for _, tc := range []struct {
		container, node string
		ok              bool
		successRate     float64
	}{
		{"ac-1", "n1", true, 1},
		{"ac-2", "n2", false, 0},
	} {
		for run := 1; run <= 3; run++ {
			if _, err := f.core.Containers.Execute(tc.container, "P3DR", 1, 0); (err == nil) != tc.ok {
				t.Fatalf("run %d on %s: err = %v, want success %v", run, tc.container, err, tc.ok)
			}
			if st := f.broker.Stats("P3DR", tc.node); st.Runs != run || st.SuccessRate != tc.successRate {
				t.Fatalf("after call %d on %s: history %+v, want %d runs at success rate %g",
					run, tc.container, st, run, tc.successRate)
			}
		}
	}
}

func TestMonitoring(t *testing.T) {
	f := newFixture(t)
	reply, err := f.client.Call(MonitoringName, OntMonitoring, NodeStatusRequest{Node: "n1"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st := reply.Content.(NodeStatusReply)
	if !st.Known || !st.Up {
		t.Errorf("status = %+v", st)
	}
	_ = f.grid.SetNodeUp("n1", false)
	reply, _ = f.client.Call(MonitoringName, OntMonitoring, NodeStatusRequest{Node: "n1"}, time.Second)
	if st := reply.Content.(NodeStatusReply); st.Up {
		t.Error("monitoring reported a failed node as up")
	}
	reply, _ = f.client.Call(MonitoringName, OntMonitoring, NodeStatusRequest{Node: "ghost"}, time.Second)
	if st := reply.Content.(NodeStatusReply); st.Known {
		t.Error("monitoring knows a ghost node")
	}
}

func TestScheduling(t *testing.T) {
	f := newFixture(t)
	tasks := []TaskSpec{
		{ID: "t1", Service: "P3DR", BaseTime: 300},
		{ID: "t2", Service: "P3DR", BaseTime: 300},
		{ID: "t3", Service: "POD", BaseTime: 60},
		{ID: "t4", Service: "NOPE", BaseTime: 10}, // no provider: dropped
	}
	sched := (&Scheduling{Grid: f.grid}).ScheduleWith(tasks, HeuristicMinMin)
	if len(sched.Assignments) != 3 {
		t.Fatalf("assignments = %+v", sched.Assignments)
	}
	if sched.Makespan <= 0 {
		t.Error("zero makespan")
	}
	// Min-min stacks both P3DR tasks on the 3x-faster n2 (two runs at 100s
	// beat one run at 300s on n1), so the makespan is ~200s, not 300s.
	for _, a := range sched.Assignments {
		if (a.Task == "t1" || a.Task == "t2") && a.Container != "ac-2" {
			t.Errorf("task %s on %s, want ac-2: %+v", a.Task, a.Container, sched.Assignments)
		}
	}
	if sched.Makespan < 150 || sched.Makespan > 250 {
		t.Errorf("makespan = %g, want ~200", sched.Makespan)
	}
}

func TestStorageService(t *testing.T) {
	f := newFixture(t)
	put := func(value string) int {
		t.Helper()
		reply, err := f.client.Call(StorageName, OntStorage, PutRequest{Key: "plans/p1", Value: []byte(value)}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return reply.Content.(PutReply).Version
	}
	if v := put("v1"); v != 1 {
		t.Error("first version != 1")
	}
	if v := put("v2"); v != 2 {
		t.Error("second version != 2")
	}
	if value, ver, found, err := f.core.Storage.Get("plans/p1", 0); err != nil || !found || string(value) != "v2" || ver != 2 {
		t.Errorf("latest = %q v%d found=%v err=%v", value, ver, found, err)
	}
}

func TestContainerAgent(t *testing.T) {
	f := newFixture(t)
	reply, err := f.client.Call("ac-2", OntExecution, AvailabilityRequest{Service: "PSF"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Content.(AvailabilityReply).Executable {
		t.Error("ac-2 should execute PSF")
	}
	reply, _ = f.client.Call("ac-2", OntExecution, AvailabilityRequest{Service: "POD"}, time.Second)
	if reply.Content.(AvailabilityReply).Executable {
		t.Error("ac-2 should not execute POD")
	}
	ex, err := f.core.Containers.Execute("ac-2", "PSF", 120, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Node != "n2" || !ex.OK {
		t.Errorf("execution = %+v", ex)
	}
	// Execution on a down node fails, and monitoring counts it on the node.
	_ = f.grid.SetNodeUp("n2", false)
	if _, err := f.core.Containers.Execute("ac-2", "PSF", 1, 0); err == nil || !strings.HasPrefix(err.Error(), "container ac-2: ") {
		t.Errorf("execution on down node: err = %v", err)
	}
	if h := f.core.Monitoring.NodeHealth("n2"); h.Successes != 1 || h.Failures != 1 {
		t.Errorf("n2 health after one success and one refusal = %+v", h)
	}
	reply, _ = f.client.Call("ac-2", OntExecution, AvailabilityRequest{Service: "PSF"}, time.Second)
	if reply.Content.(AvailabilityReply).Executable {
		t.Error("down container reported executable")
	}
}

func TestSimulationService(t *testing.T) {
	f := newFixture(t)
	tasks := make([]TaskSpec, 8)
	for i := range tasks {
		tasks[i] = TaskSpec{ID: string(rune('a' + i)), Service: "P3DR", BaseTime: 300, DataMB: 10}
	}
	req := SimulateRequest{Tasks: tasks, InterArrival: 5, Retries: 2, Seed: 1}
	res := f.core.Simulation.Simulate(req)
	if res.Completed+res.Failed != len(tasks) {
		t.Errorf("completed %d + failed %d != %d", res.Completed, res.Failed, len(tasks))
	}
	if res.Makespan <= 0 || res.BusySeconds <= 0 {
		t.Errorf("result = %+v", res)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("utilization = %g", res.Utilization)
	}
	// Determinism.
	if f.core.Simulation.Simulate(req) != res {
		t.Error("simulation not deterministic for equal seeds")
	}

	// A task no up container provides never runs: it counts as failed, not
	// as lost.
	unplaceable := SimulateRequest{Tasks: []TaskSpec{
		{ID: "pod", Service: "POD", BaseTime: 60},
		{ID: "ghost", Service: "NOSUCH", BaseTime: 60},
	}, Seed: 1}
	if res := f.core.Simulation.Simulate(unplaceable); res.Completed != 1 || res.Failed != 1 {
		t.Errorf("POD + unknown service: completed %d, failed %d, want 1 and 1", res.Completed, res.Failed)
	}
	if err := f.grid.SetNodeUp("n1", false); err != nil { // n1 is POD's only provider
		t.Fatal(err)
	}
	unplaceable.Tasks = unplaceable.Tasks[:1]
	if res := f.core.Simulation.Simulate(unplaceable); res.Completed != 0 || res.Failed != 1 {
		t.Errorf("POD with its provider down: completed %d, failed %d, want 0 and 1", res.Completed, res.Failed)
	}
}

func TestOntologyService(t *testing.T) {
	f := newFixture(t)
	fetch := func(name string) agent.Message {
		t.Helper()
		reply, err := f.client.Call(OntologyName, OntOntology, KBRequest{Name: name}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	kb, err := ontology.Decode(fetch("grid").Content.(KBReply).JSON)
	if err != nil {
		t.Fatal(err)
	}
	if classes, instances := kb.Stats(); classes != 10 || instances != 0 {
		t.Errorf("shell stats = %d/%d", classes, instances)
	}
	// Add a populated KB and fetch it back.
	pop := ontology.GridShell()
	if err := pop.AddInstance(ontology.NewInstance("hw1", ontology.ClassHardware).Set("Speed", ontology.Num(2))); err != nil {
		t.Fatal(err)
	}
	f.core.Ontology.Add("mine", pop)
	back, err := ontology.Decode(fetch("mine").Content.(KBReply).JSON)
	if err != nil {
		t.Fatal(err)
	}
	if back.Instance("hw1") == nil {
		t.Error("added instance lost")
	}
	// Unknown ontology refused.
	if reply := fetch("nope"); reply.Performative != agent.Refuse {
		t.Errorf("unknown KB performative = %v", reply.Performative)
	}
}

func TestUnsupportedContentRefused(t *testing.T) {
	f := newFixture(t)
	for _, svc := range []string{
		InformationName, BrokerageName, MonitoringName, StorageName, OntologyName, "ac-1",
	} {
		reply, err := f.client.Call(svc, "junk", struct{ X int }{1}, time.Second)
		if err != nil {
			t.Errorf("%s: %v", svc, err)
			continue
		}
		if reply.Performative != agent.Refuse {
			t.Errorf("%s replied %v to junk, want refuse", svc, reply.Performative)
		}
	}
}
