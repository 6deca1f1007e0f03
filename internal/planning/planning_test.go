package planning

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/grid"
	"repro/internal/pdl"
	"repro/internal/planner"
	"repro/internal/services"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

func smallParams() planner.Params {
	p := planner.DefaultParams()
	p.PopulationSize = 120
	p.Generations = 15
	p.Seed = 3
	return p
}

// newService builds a planning agent over a planner.Service of its own.
func newService(t *testing.T, catalog *workflow.Catalog, params planner.Params) *Service {
	t.Helper()
	ps, err := planner.NewService(planner.ServiceConfig{Catalog: catalog, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ps.Close)
	return New(catalog, params, ps)
}

func TestPlanAbInitio(t *testing.T) {
	s := newService(t, virolab.Catalog(), smallParams())
	req := PlanRequest{
		Initial: virolab.InitialData(),
		Goal:    []string{virolab.GoalCondition},
	}
	reply, err := s.Plan(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Eval.FV < 1 || reply.Eval.FG < 1 {
		t.Errorf("plan quality fv=%g fg=%g (tree %s)", reply.Eval.FV, reply.Eval.FG, reply.Tree)
	}
	// The PDL must parse back into a valid process description.
	p, err := pdl.ParseProcess("check", reply.PDL)
	if err != nil {
		t.Fatalf("planned PDL invalid: %v\n%s", err, reply.PDL)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanTrustCallerExclusion(t *testing.T) {
	catalog := virolab.Catalog()
	p3dr := catalog.Get("P3DR")
	catalog.Add(&workflow.Service{
		Name: "P3DRALT", Inputs: p3dr.Inputs, Outputs: p3dr.Outputs, BaseTime: p3dr.BaseTime,
	})
	s := newService(t, catalog, smallParams())
	reply, err := s.Plan(nil, PlanRequest{
		Initial:       virolab.InitialData(),
		Goal:          []string{virolab.GoalCondition},
		NonExecutable: []string{"P3DR"},
		TrustCaller:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Excluded) != 1 || reply.Excluded[0] != "P3DR" {
		t.Errorf("excluded = %v", reply.Excluded)
	}
	if strings.Contains(reply.Tree, "P3DR ") || strings.HasSuffix(reply.Tree, "P3DR)") {
		// P3DRALT contains "P3DR" as a prefix, so check leaf-precisely.
		tree, err := pdl.Parse(reply.PDL)
		if err != nil {
			t.Fatal(err)
		}
		for _, svc := range tree.Services() {
			if svc == "P3DR" {
				t.Errorf("excluded service still planned: %s", reply.Tree)
			}
		}
	}
	if reply.Eval.FG < 1 {
		t.Errorf("plan without P3DR should still reach the goal via P3DRALT: fg=%g", reply.Eval.FG)
	}
}

func TestPlanAllExcludedFails(t *testing.T) {
	s := newService(t, virolab.Catalog(), smallParams())
	_, err := s.Plan(nil, PlanRequest{
		Initial:       virolab.InitialData(),
		Goal:          []string{virolab.GoalCondition},
		NonExecutable: []string{"POD", "P3DR", "POR", "PSF"},
		TrustCaller:   true,
	})
	if err == nil {
		t.Error("empty catalog accepted")
	}
}

// TestVerifyExecutableFlow exercises the Figure 3 interaction over a real
// platform: information -> brokerage -> container probes.
func TestVerifyExecutableFlow(t *testing.T) {
	g := grid.New(1)
	if err := g.AddNode(&grid.Node{ID: "n1", Hardware: grid.Hardware{Speed: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddContainer(&grid.Container{ID: "ac-1", NodeID: "n1", Services: []string{"POD"}}); err != nil {
		t.Fatal(err)
	}
	p := agent.NewPlatform()
	defer p.Shutdown()
	core, err := services.Bootstrap(p, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var flow []string
	p.SetTrace(func(m agent.Message) {
		mu.Lock()
		flow = append(flow, m.Sender+">"+m.Receiver)
		mu.Unlock()
	})
	if _, err := p.Register(services.PlanningName, newService(t, virolab.Catalog(), smallParams())); err != nil {
		t.Fatal(err)
	}
	client, err := p.Register("client", agent.HandlerFunc(func(*agent.Context, agent.Message) {}))
	if err != nil {
		t.Fatal(err)
	}

	// POD is executable: it must NOT be excluded despite the hint.
	reply, err := client.Call(services.PlanningName, services.OntPlanning, PlanRequest{
		Initial:       virolab.InitialData(),
		Goal:          []string{`G.Classification = "Orientation File"`},
		NonExecutable: []string{"POD"},
	}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pr, ok := reply.Content.(PlanReply)
	if !ok {
		t.Fatalf("reply = %T: %v", reply.Content, reply.Content)
	}
	if len(pr.Excluded) != 0 {
		t.Errorf("POD wrongly excluded: %v", pr.Excluded)
	}
	// Figure 3's steps 2-7: the information service names the brokerage, the
	// brokerage names ac-1, and ac-1 answers the probe.
	mu.Lock()
	got := slices.Clone(flow)
	mu.Unlock()
	for _, peer := range []string{"information", "brokerage", "ac-1"} {
		for _, want := range []string{services.PlanningName + ">" + peer, peer + ">" + services.PlanningName} {
			if !slices.Contains(got, want) {
				t.Errorf("message %s missing in the flow: %v", want, got)
			}
		}
	}

	// Take the node down and refresh the brokerage: now POD verifies as
	// non-executable and is excluded; with no other way to make an
	// orientation file the planning fails cleanly.
	_ = g.SetNodeUp("n1", false)
	core.Brokerage.Refresh()
	reply, err = client.Call(services.PlanningName, services.OntPlanning, PlanRequest{
		Initial:       virolab.InitialData(),
		Goal:          []string{`G.Classification = "Orientation File"`},
		NonExecutable: []string{"POD"},
	}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative == agent.Inform {
		pr := reply.Content.(PlanReply)
		if len(pr.Excluded) != 1 {
			t.Errorf("POD not excluded after node failure: %+v", pr)
		}
	}
	// With a stale brokerage snapshot instead (no refresh), the container
	// probe still reports non-executable; TestFig3ReplanningFlow
	// (internal/coordination) covers that flow.
}

func TestHandleRejectsJunk(t *testing.T) {
	p := agent.NewPlatform()
	defer p.Shutdown()
	if _, err := p.Register(services.PlanningName, newService(t, virolab.Catalog(), smallParams())); err != nil {
		t.Fatal(err)
	}
	client, err := p.Register("client", agent.HandlerFunc(func(*agent.Context, agent.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := client.Call(services.PlanningName, services.OntPlanning, "junk", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != agent.Refuse {
		t.Errorf("performative = %v", reply.Performative)
	}
}

// TestPlanDependsOnlyOnItsCase: the agent keeps nothing from one request to
// the next, so one case at one seed and Params is planned to the same tree and
// PDL by a fresh agent, by an agent that planned other cases before it, and
// by two goroutines asking at once.
func TestPlanDependsOnlyOnItsCase(t *testing.T) {
	params := planner.DefaultParams()
	params.PopulationSize, params.Generations, params.Seed = 40, 4, 3
	catalog := virolab.Catalog()
	request := func(goal string) PlanRequest {
		return PlanRequest{Initial: virolab.InitialData(), Goal: []string{goal}}
	}
	target := request(`G.Classification = "3D Model"`)
	want, err := newService(t, catalog, params).Plan(nil, target)
	if err != nil {
		t.Fatal(err)
	}
	check := func(how string, got PlanReply, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if got.Tree != want.Tree || got.PDL != want.PDL {
			t.Errorf("%s: planned %s (fv %g), a fresh agent %s (fv %g)", how, got.Tree, got.Eval.FV, want.Tree, want.Eval.FV)
		}
	}

	s := newService(t, catalog, params)
	for _, goal := range []string{virolab.GoalCondition, `G.Classification = "Orientation File"`} {
		if _, err := s.Plan(nil, request(goal)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Plan(nil, target)
	check("after other cases", got, err)

	s = newService(t, catalog, params)
	var replies [2]PlanReply
	var errs [2]error
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i], errs[i] = s.Plan(nil, target)
		}()
	}
	wg.Wait()
	for i := range replies {
		check("from two goroutines at once", replies[i], errs[i])
	}
}
