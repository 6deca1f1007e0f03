package planner

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/plantree"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// testProblem builds the case-study planning problem: initial parameters
// plus a 2D image; the goal is a resolution file. The minimal plan is
// POD; P3DR; P3DR; PSF (PSF correlates two distinct 3D models).
func testProblem() *workflow.Problem {
	pod := &workflow.Service{
		Name: "POD",
		Inputs: []workflow.ParamSpec{
			{Name: "A", Condition: `A.Classification = "POD-Parameter"`},
			{Name: "B", Condition: `B.Classification = "2D Image"`},
		},
		Outputs: []workflow.OutputSpec{
			{Name: "C", Props: map[string]expr.Value{workflow.PropClassification: expr.String("Orientation File")}},
		},
	}
	p3dr := &workflow.Service{
		Name: "P3DR",
		Inputs: []workflow.ParamSpec{
			{Name: "A", Condition: `A.Classification = "P3DR-Parameter"`},
			{Name: "B", Condition: `B.Classification = "2D Image"`},
			{Name: "C", Condition: `C.Classification = "Orientation File"`},
		},
		Outputs: []workflow.OutputSpec{
			{Name: "D", Props: map[string]expr.Value{workflow.PropClassification: expr.String("3D Model")}},
		},
	}
	por := &workflow.Service{
		Name: "POR",
		Inputs: []workflow.ParamSpec{
			{Name: "A", Condition: `A.Classification = "POR-Parameter"`},
			{Name: "B", Condition: `B.Classification = "2D Image"`},
			{Name: "C", Condition: `C.Classification = "Orientation File"`},
			{Name: "D", Condition: `D.Classification = "3D Model"`},
		},
		Outputs: []workflow.OutputSpec{
			{Name: "E", Props: map[string]expr.Value{workflow.PropClassification: expr.String("Orientation File")}},
		},
	}
	psf := &workflow.Service{
		Name: "PSF",
		Inputs: []workflow.ParamSpec{
			{Name: "A", Condition: `A.Classification = "PSF-Parameter"`},
			{Name: "B", Condition: `B.Classification = "3D Model"`},
			{Name: "C", Condition: `C.Classification = "3D Model"`},
		},
		Outputs: []workflow.OutputSpec{
			{Name: "D", Props: map[string]expr.Value{workflow.PropClassification: expr.String("Resolution File")}},
		},
	}
	return &workflow.Problem{
		Name: "3DSD",
		Initial: workflow.NewState(
			workflow.NewDataItem("D1", "POD-Parameter"),
			workflow.NewDataItem("D2", "P3DR-Parameter"),
			workflow.NewDataItem("D5", "POR-Parameter"),
			workflow.NewDataItem("D6", "PSF-Parameter"),
			workflow.NewDataItem("D7", "2D Image"),
		),
		Goal:    workflow.NewGoal(`G.Classification = "Resolution File"`),
		Catalog: workflow.NewCatalog(pod, p3dr, por, psf),
	}
}

func perfectPlan() *plantree.Node {
	return plantree.Seq(
		plantree.Activity("POD"),
		plantree.Activity("P3DR"),
		plantree.Activity("P3DR"),
		plantree.Activity("PSF"),
	)
}

func mustEvaluator(t *testing.T, p Params) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(testProblem(), p)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDefaultParamsMatchTable1(t *testing.T) {
	p := DefaultParams()
	if p.PopulationSize != 200 || p.Generations != 20 || p.CrossoverRate != 0.7 ||
		p.MutationRate != 0.001 || p.Smax != 40 || p.WV != 0.2 || p.WG != 0.5 || p.WR != 0.3 {
		t.Errorf("DefaultParams = %+v, want Table 1 settings", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidate(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.PopulationSize = 1 },
		func(p *Params) { p.Generations = 0 },
		func(p *Params) { p.CrossoverRate = 1.5 },
		func(p *Params) { p.MutationRate = -1 },
		func(p *Params) { p.Smax = 0 },
		func(p *Params) { p.WV = 0.9 },
		func(p *Params) { p.MaxLoopUnroll = 0 },
		func(p *Params) { p.MaxFlows = 0 },
	}
	for i, m := range mutations {
		p := DefaultParams()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestEvaluatePerfectPlan(t *testing.T) {
	ev := mustEvaluator(t, DefaultParams())
	e := ev.Evaluate(perfectPlan())
	if e.FV != 1 || e.FG != 1 {
		t.Fatalf("perfect plan: fv=%g fg=%g, want 1,1", e.FV, e.FG)
	}
	if e.Size != 5 {
		t.Fatalf("size = %d, want 5", e.Size)
	}
	wantFR := 1 - 5.0/40
	if !almost(e.FR, wantFR) {
		t.Errorf("fr = %g, want %g", e.FR, wantFR)
	}
	want := 0.2*1 + 0.5*1 + 0.3*wantFR
	if !almost(e.Fitness, want) {
		t.Errorf("fitness = %g, want %g", e.Fitness, want)
	}
	if e.Flows != 1 {
		t.Errorf("flows = %d, want 1 (no decision points)", e.Flows)
	}
}

func TestEvaluateInvalidPlan(t *testing.T) {
	ev := mustEvaluator(t, DefaultParams())
	// PSF alone: preconditions unmet, goal unmet.
	e := ev.Evaluate(plantree.Activity("PSF"))
	if e.FV != 0 || e.FG != 0 {
		t.Errorf("fv=%g fg=%g, want 0,0", e.FV, e.FG)
	}
	// POD;P3DR: half-way plan, all valid but goal unmet.
	e2 := ev.Evaluate(plantree.Seq(plantree.Activity("POD"), plantree.Activity("P3DR")))
	if e2.FV != 1 || e2.FG != 0 {
		t.Errorf("fv=%g fg=%g, want 1,0", e2.FV, e2.FG)
	}
	// Unknown service counts as invalid.
	e3 := ev.Evaluate(plantree.Activity("NOPE"))
	if e3.FV != 0 {
		t.Errorf("unknown service fv = %g, want 0", e3.FV)
	}
}

func TestEvaluateOrderMatters(t *testing.T) {
	ev := mustEvaluator(t, DefaultParams())
	// P3DR before POD: P3DR invalid (no orientation file yet), then POD
	// valid; 1 of 2 executions valid.
	e := ev.Evaluate(plantree.Seq(plantree.Activity("P3DR"), plantree.Activity("POD")))
	if !almost(e.FV, 0.5) {
		t.Errorf("fv = %g, want 0.5", e.FV)
	}
}

// conc, sel and iter build the controllers of Figures 5-7 over the children.
func conc(children ...*plantree.Node) *plantree.Node {
	return &plantree.Node{Kind: plantree.KindConcurrent, Children: children}
}

func sel(children ...*plantree.Node) *plantree.Node {
	return &plantree.Node{Kind: plantree.KindSelective, Children: children}
}

func iter(children ...*plantree.Node) *plantree.Node {
	return &plantree.Node{Kind: plantree.KindIterative, Children: children}
}

func TestEvaluateSelectiveEnumeratesFlows(t *testing.T) {
	ev := mustEvaluator(t, DefaultParams())
	// sel(POD, PSF): flow 1 runs POD (valid), flow 2 runs PSF (invalid).
	tree := sel(plantree.Activity("POD"), plantree.Activity("PSF"))
	e := ev.Evaluate(tree)
	if e.Flows != 2 {
		t.Fatalf("flows = %d, want 2", e.Flows)
	}
	if !almost(e.FV, 0.5) {
		t.Errorf("fv = %g, want 0.5 (1 valid of 2 executed)", e.FV)
	}
}

func TestEvaluateIterativeUnroll(t *testing.T) {
	p := DefaultParams()
	p.MaxLoopUnroll = 3
	ev := mustEvaluator(t, p)
	// iter(POD): flows with 1, 2, 3 iterations. POD is valid every time
	// (parameters are not consumed), so fv=1; executions 1+2+3=6.
	tree := iter(plantree.Activity("POD"))
	e := ev.Evaluate(tree)
	if e.Flows != 3 {
		t.Fatalf("flows = %d, want 3", e.Flows)
	}
	if e.FV != 1 {
		t.Errorf("fv = %g", e.FV)
	}
}

func TestEvaluateFlowCap(t *testing.T) {
	p := DefaultParams()
	p.MaxFlows = 4
	ev := mustEvaluator(t, p)
	// Three selectives of 2 children each = 8 flows, capped at 4.
	tree := plantree.Seq(
		sel(plantree.Activity("POD"), plantree.Activity("POD")),
		sel(plantree.Activity("POD"), plantree.Activity("POD")),
		sel(plantree.Activity("POD"), plantree.Activity("POD")),
	)
	e := ev.Evaluate(tree)
	if e.Flows != 4 {
		t.Errorf("flows = %d, want 4 (capped)", e.Flows)
	}
}

func TestEvaluatorCache(t *testing.T) {
	ev := mustEvaluator(t, DefaultParams())
	tree := perfectPlan()
	_ = ev.Evaluate(tree)
	n := ev.Evaluations
	_ = ev.Evaluate(tree.Clone())
	if ev.Evaluations != n {
		t.Errorf("cache miss on identical tree: %d -> %d", n, ev.Evaluations)
	}
}

func TestEvaluateConcurrentSemantics(t *testing.T) {
	ev := mustEvaluator(t, DefaultParams())
	// conc(P3DR, P3DR) after POD: both valid (canonical order), two models
	// produced, so PSF afterwards is valid and the goal is met.
	tree := plantree.Seq(
		plantree.Activity("POD"),
		conc(plantree.Activity("P3DR"), plantree.Activity("P3DR")),
		plantree.Activity("PSF"),
	)
	e := ev.Evaluate(tree)
	if e.FV != 1 || e.FG != 1 {
		t.Errorf("fv=%g fg=%g, want 1,1", e.FV, e.FG)
	}
}

// TestKernelBindMemo walks the kernel's per-class bind memo through its
// transitions on hand-built one-flow trees, each scored exactly as the oracle
// scores it: a failure stands while the state is the one it failed on and is
// re-tried once an item is added, and a bind takes as many items of one kind
// as the kind has. memo is each service's entry after the flow, in the one
// class the flow makes (bindOK, or the number of items produced at its last
// failure plus one; absent: 0).
func TestKernelBindMemo(t *testing.T) {
	a := plantree.Activity
	for _, c := range []struct {
		problem *workflow.Problem
		tree    *plantree.Node
		fv      float64
		memo    map[string]int32
	}{
		// POD adds an Orientation File between the two: a memo blind to the
		// state's version would fail the second P3DR too (fv 1/3).
		{virolab.Problem(), plantree.Seq(a("P3DR"), a("POD"), a("P3DR")), 2.0 / 3,
			map[string]int32{"POD": bindOK, "P3DR": bindOK}},
		// The second P3DR meets the state the first failed on.
		{virolab.Problem(), plantree.Seq(a("P3DR"), a("P3DR"), a("POD")), 1.0 / 3,
			map[string]int32{"POD": bindOK, "P3DR": 1}},
		// One 3D Model cannot be both of PSF's.
		{virolab.Problem(), plantree.Seq(a("POD"), a("P3DR"), a("PSF")), 2.0 / 3,
			map[string]int32{"POD": bindOK, "P3DR": bindOK, "PSF": 3}},
		// Two of one kind can.
		{virolab.Problem(), plantree.Seq(a("POD"), a("P3DR"), a("P3DR"), a("PSF")), 1,
			map[string]int32{"POD": bindOK, "P3DR": bindOK, "PSF": bindOK}},
		// JOIN's C reads B (an expression condition): re-tried after GEN's
		// Raw, failed again on the grown state.
		{crossProblem(), plantree.Seq(a("JOIN"), a("GEN"), a("JOIN")), 1.0 / 3,
			map[string]int32{"GEN": bindOK, "JOIN": 2}},
		// ... and bound once SPLIT's two halves of different make are in.
		{crossProblem(), plantree.Seq(a("JOIN"), a("SPLIT"), a("JOIN")), 2.0 / 3,
			map[string]int32{"SPLIT": bindOK, "JOIN": bindOK}},
	} {
		ev, err := NewEvaluator(c.problem, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		sc := ev.scratch()
		got, want := ev.evaluateOnly(c.tree, sc), newOracle(t, c.problem, DefaultParams()).evaluate(c.tree)
		if got != want || got.FV != c.fv {
			t.Errorf("%s: kernel %+v, oracle %+v, want fv %v", c.tree, got, want, c.fv)
		}
		if len(sc.classes) != 1 {
			t.Fatalf("%s: %d classes, want 1", c.tree, len(sc.classes))
		}
		_, memo := sc.row(0)
		for svc, name := range sc.k.names {
			if memo[svc] != c.memo[name] {
				t.Errorf("%s: memo of %s = %d, want %d", c.tree, name, memo[svc], c.memo[name])
			}
		}
	}
}

// TestFig8Crossover verifies the subtree exchange of Figure 8.
func TestFig8Crossover(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := plantree.Seq(plantree.Activity("A"), plantree.Activity("B"))
	b := plantree.Seq(plantree.Activity("C"), plantree.Activity("D"))
	leavesBefore := map[string]bool{}
	for _, s := range append(a.Services(), b.Services()...) {
		leavesBefore[s] = true
	}
	swapped := false
	for i := 0; i < 50 && !swapped; i++ {
		swapped = Crossover(rng, a, b, 40)
	}
	if !swapped {
		t.Fatal("crossover never succeeded")
	}
	// The union of leaves is preserved.
	leavesAfter := map[string]bool{}
	for _, s := range append(a.Services(), b.Services()...) {
		leavesAfter[s] = true
	}
	for s := range leavesBefore {
		if !leavesAfter[s] {
			t.Errorf("leaf %s lost in crossover", s)
		}
	}
	if err := a.Validate(0); err != nil {
		t.Errorf("offspring a invalid: %v", err)
	}
	if err := b.Validate(0); err != nil {
		t.Errorf("offspring b invalid: %v", err)
	}
}

func TestCrossoverRespectsSmax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big := plantree.Seq(
		plantree.Activity("A"), plantree.Activity("B"), plantree.Activity("C"),
		plantree.Activity("D"), plantree.Activity("E"),
	)
	small := plantree.Activity("X")
	for i := 0; i < 200; i++ {
		a, b := big.Clone(), small.Clone()
		Crossover(rng, a, b, 6)
		if a.Size() > 6 || b.Size() > 6 {
			t.Fatalf("offspring exceeds Smax: %d / %d", a.Size(), b.Size())
		}
	}
}

// TestFig9Mutation verifies the subtree replacement of Figure 9.
func TestFig9Mutation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	services := []string{"POD", "P3DR"}
	tree := perfectPlan()
	total := 0
	for i := 0; i < 100; i++ {
		total += Mutate(rng, tree, services, 0.3, 40)
		if err := tree.Validate(40); err != nil {
			t.Fatalf("mutated tree invalid: %v", err)
		}
	}
	if total == 0 {
		t.Error("mutation never applied at rate 0.3")
	}
	if Mutate(rng, tree, services, 0, 40) != 0 {
		t.Error("rate 0 mutated")
	}
}

func TestGPFindsValidPlan(t *testing.T) {
	p := DefaultParams()
	p.PopulationSize = 120
	p.Generations = 15
	p.Seed = 7
	gp, err := New(testProblem(), p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gp.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best.Eval
	if best.FV < 1 || best.FG < 1 {
		t.Errorf("best fv=%g fg=%g (tree %s), want 1,1", best.FV, best.FG, res.Best.Tree)
	}
	if len(res.History) != p.Generations+1 {
		t.Errorf("history length = %d, want %d", len(res.History), p.Generations+1)
	}
	// Fitness trajectory: final best no worse than initial best.
	if res.History[len(res.History)-1].BestFitness < res.History[0].BestFitness {
		t.Error("evolution decreased best fitness")
	}
	if res.Evaluations == 0 {
		t.Error("no evaluations recorded")
	}
}

func TestGPDeterministicBySeed(t *testing.T) {
	p := DefaultParams()
	p.PopulationSize = 40
	p.Generations = 5
	p.Seed = 11
	run := func() string {
		gp, err := New(testProblem(), p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := gp.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Best.Tree.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different best plans:\n%s\n%s", a, b)
	}
}

func TestGPRouletteSelection(t *testing.T) {
	p := DefaultParams()
	p.PopulationSize = 60
	p.Generations = 8
	p.Selection = SelectRoulette
	gp, err := New(testProblem(), p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gp.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Eval.Fitness <= 0 {
		t.Error("roulette run produced zero fitness")
	}
	if SelectRoulette.String() != "roulette" || SelectTournament.String() != "tournament" ||
		SelectionScheme(9).String() == "" {
		t.Error("SelectionScheme strings")
	}
}

func TestRunManyAndSummarize(t *testing.T) {
	p := DefaultParams()
	p.PopulationSize = 60
	p.Generations = 10
	results, err := RunManyContext(context.Background(), testProblem(), p, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(results)
	if s.Runs != 3 {
		t.Errorf("Runs = %d", s.Runs)
	}
	if s.AvgFitness <= 0 || s.AvgSize <= 0 {
		t.Errorf("summary = %+v", s)
	}
	if s.MinFitness > s.MaxFitness {
		t.Error("min > max")
	}
	if _, err := RunManyContext(context.Background(), testProblem(), p, 0); err == nil {
		t.Error("RunMany(0) accepted")
	}
	empty := Summarize(nil)
	if empty.Runs != 0 {
		t.Error("empty summary")
	}
}

// TestRunManyBeyondQueueCapacity asks for more runs than the planning
// service queues (256): the runs go through a bounded window, and each is
// still the single run of its seed.
func TestRunManyBeyondQueueCapacity(t *testing.T) {
	p := DefaultParams()
	p.PopulationSize = 20 // a run outlasts 300 submissions, so all-at-once overflows
	p.Generations = 3
	const n = 300
	results, err := RunManyContext(context.Background(), testProblem(), p, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, got := range results {
		single := p
		single.Seed = p.Seed + int64(i)
		one, err := RunManyContext(context.Background(), testProblem(), single, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := one[0]; got.Best.Tree.String() != want.Best.Tree.String() || got.Best.Eval != want.Best.Eval {
			t.Fatalf("run %d = %s %+v, single run of seed %d = %s %+v",
				i, got.Best.Tree, got.Best.Eval, single.Seed, want.Best.Tree, want.Best.Eval)
		}
	}
}

func TestForwardSearchBaseline(t *testing.T) {
	plan, err := ForwardSearch(testProblem(), 10)
	if err != nil {
		t.Fatal(err)
	}
	// The minimal plan has 4 activities: POD, P3DR, P3DR, PSF.
	leaves := plan.Services()
	if len(leaves) != 4 {
		t.Fatalf("plan = %s, want 4 activities", plan)
	}
	ev := mustEvaluator(t, DefaultParams())
	e := ev.Evaluate(plan)
	if e.FV != 1 || e.FG != 1 {
		t.Errorf("forward-search plan fv=%g fg=%g", e.FV, e.FG)
	}
	// Depth too small: no plan.
	if _, err := ForwardSearch(testProblem(), 2); err == nil {
		t.Error("depth-2 search should fail")
	}
	// Trivial goal: error.
	trivial := testProblem()
	trivial.Goal = workflow.NewGoal(`G.Classification = "2D Image"`)
	if _, err := ForwardSearch(trivial, 5); err == nil {
		t.Error("already-satisfied goal should be reported")
	}
}

func TestRandomSearchBaseline(t *testing.T) {
	p := DefaultParams()
	p.Seed = 5
	res, err := RandomSearch(testProblem(), p, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Tree == nil {
		t.Fatal("no best tree")
	}
	if res.Best.Eval.Fitness <= 0 {
		t.Error("zero fitness best")
	}
	if res.Evaluations == 0 || res.Evaluations > 500 {
		t.Errorf("evaluations = %d", res.Evaluations)
	}
}

// TestTable2Reproduction runs the full Table 2 protocol (10 runs at Table 1
// settings) and checks the paper's headline results: every run reaches
// perfect validity and goal fitness, and the average solution stays small.
func TestTable2Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 2 protocol in -short mode")
	}
	results, err := RunManyContext(context.Background(), testProblem(), DefaultParams(), 10)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(results)
	if s.PerfectValidity != 10 {
		t.Errorf("runs with fv=1: %d/10 (paper: 10/10)", s.PerfectValidity)
	}
	if s.PerfectGoal != 10 {
		t.Errorf("runs with fg=1: %d/10 (paper: 10/10)", s.PerfectGoal)
	}
	// Paper: average size 9.7, average fitness 0.928. Allow slack: the
	// qualitative claim is small plans with near-maximal fitness.
	if s.AvgSize < 4 || s.AvgSize > 15 {
		t.Errorf("avg size = %g, want within [4,15] (paper 9.7)", s.AvgSize)
	}
	if s.AvgFitness < 0.9 {
		t.Errorf("avg fitness = %g, want >= 0.9 (paper 0.928)", s.AvgFitness)
	}
}

func BenchmarkEvaluatePerfectPlan(b *testing.B) {
	ev, err := NewEvaluator(testProblem(), DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	tree := perfectPlan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.cache = map[string]Evaluation{} // force real evaluation
		ev.Evaluate(tree)
	}
}

func BenchmarkGPGeneration(b *testing.B) {
	p := DefaultParams()
	p.PopulationSize = 50
	p.Generations = 1
	for i := 0; i < b.N; i++ {
		gp, err := New(testProblem(), p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gp.RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStrictConcurrencyPenalizesOrderDependence(t *testing.T) {
	// conc(POD, P3DR) only works when POD runs first: the simulation must
	// see the reverse order fail.
	tree := conc(plantree.Activity("POD"), plantree.Activity("P3DR"))

	ev := mustEvaluator(t, DefaultParams())
	e := ev.Evaluate(tree)
	if e.Flows != 2 {
		t.Fatalf("flows = %d, want 2", e.Flows)
	}
	// Forward: POD ok, P3DR ok (2 valid). Reverse: P3DR fails, POD ok.
	if !almost(e.FV, 3.0/4) {
		t.Errorf("fv = %g, want 0.75", e.FV)
	}

	// Genuinely order-independent concurrency is not penalized: after POD,
	// two P3DR runs commute.
	indep := plantree.Seq(
		plantree.Activity("POD"),
		conc(plantree.Activity("P3DR"), plantree.Activity("P3DR")),
		plantree.Activity("PSF"),
	)
	e3 := ev.Evaluate(indep)
	if e3.FV != 1 || e3.FG != 1 {
		t.Errorf("independent conc fv=%g fg=%g, want 1,1", e3.FV, e3.FG)
	}
}

func TestElitismPreservesBest(t *testing.T) {
	p := DefaultParams()
	p.PopulationSize = 20
	p.Generations = 10
	p.Elites = 1
	p.MutationRate = 0.2 // aggressive: without elitism the best often degrades
	p.Seed = 23
	gp, err := New(testProblem(), p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gp.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// With one elite slot, best fitness is monotone non-decreasing across
	// generations.
	prev := 0.0
	for _, g := range res.History {
		if g.BestFitness+1e-12 < prev {
			t.Fatalf("best fitness dropped at gen %d: %g -> %g", g.Generation, prev, g.BestFitness)
		}
		prev = g.BestFitness
	}
	if res.Best.Eval.FG < 1 {
		t.Errorf("elitist run lost the goal: %g", res.Best.Eval.FG)
	}
	// Parameter validation.
	bad := DefaultParams()
	bad.Elites = -1
	if bad.Validate() == nil {
		t.Error("negative elites accepted")
	}
	bad.Elites = bad.PopulationSize
	if bad.Validate() == nil {
		t.Error("elites >= population accepted")
	}
}

// TestWorkspaceReleasesOversizedRun: a run within the size a workspace is
// kept for leaves its memory there for the next one; a larger run (a
// per-request Params override on a service worker) leaves nothing behind.
func TestWorkspaceReleasesOversizedRun(t *testing.T) {
	p := fastParams()
	p.Generations = 2
	ws := newWorkspace(p.PopulationSize * p.Smax)
	run := func(p Params) {
		t.Helper()
		gp, err := New(testProblem(), p)
		if err != nil {
			t.Fatal(err)
		}
		gp.ws = ws
		if _, err := gp.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	run(p)
	if len(ws.pops[0]) != p.PopulationSize || ws.keyLen == 0 {
		t.Errorf("a run at the kept size left %d individuals and %d key bytes to reuse", len(ws.pops[0]), ws.keyLen)
	}
	big := p
	big.PopulationSize *= 2
	run(big)
	if ws.pops[0] != nil || ws.slab != nil || ws.spare != nil || ws.results != nil || ws.retain != p.PopulationSize*p.Smax {
		t.Errorf("an oversized run stayed in the workspace: %d individuals, retain %d", len(ws.pops[0]), ws.retain)
	}
}
