package planner

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/expr"
	"repro/internal/plantree"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// ---------------------------------------------------------------------------
// The reference: the interpreted flow simulation the kernel replaced, kept as
// it was (plan-tree nodes, data-item lists, a binding search, Service.Produce,
// decisions by node pointer) so the kernel has something independent to be
// compared against.

type oracle struct {
	problem *workflow.Problem
	params  Params
	goals   []expr.Node
	inputs  map[*workflow.Service][]expr.Node // parsed input conditions; nil if one fails to parse
}

func newOracle(t testing.TB, problem *workflow.Problem, params Params) *oracle {
	t.Helper()
	o := &oracle{problem: problem, params: params}
	for _, c := range problem.Goal.Conditions {
		n, err := expr.Parse(c)
		if err != nil {
			t.Fatal(err)
		}
		o.goals = append(o.goals, n)
	}
	o.inputs = map[*workflow.Service][]expr.Node{}
	for _, svc := range problem.Catalog.Services() {
		conds := make([]expr.Node, len(svc.Inputs))
		for i := range svc.Inputs {
			conds[i], _ = expr.Parse(svc.Inputs[i].Condition)
		}
		o.inputs[svc] = conds
	}
	return o
}

// decisionPoint is one selective or iterative node, whose flow choice is
// enumerated.
type decisionPoint struct {
	node   *plantree.Node
	domain int // selective: child count; iterative: MaxLoopUnroll
}

func (o *oracle) evaluate(tree *plantree.Node) Evaluation {
	size := tree.Size()
	fr := 1 - float64(size)/float64(o.params.Smax)
	if fr < 0 {
		fr = 0
	}

	// Collect decision points in pre-order.
	var points []decisionPoint
	for _, n := range preorder(tree) {
		switch n.Kind {
		case plantree.KindSelective:
			if len(n.Children) > 1 {
				points = append(points, decisionPoint{n, len(n.Children)})
			}
		case plantree.KindIterative:
			if o.params.MaxLoopUnroll > 1 {
				points = append(points, decisionPoint{n, o.params.MaxLoopUnroll})
			}
		case plantree.KindConcurrent:
			if len(n.Children) > 1 {
				points = append(points, decisionPoint{n, 2})
			}
		}
	}

	decisions := make(map[*plantree.Node]int, len(points))
	odometer := make([]int, len(points))
	totalValid, totalExecuted := 0, 0
	goalSum, costSum, timeSum := 0.0, 0.0, 0.0
	flows := 0
	initial := itemList(o.problem.Initial.Items())
	for {
		for i, p := range points {
			decisions[p.node] = odometer[i]
		}
		sim := flowSim{o: o, decisions: decisions}
		items := sim.run(tree, initial)
		totalValid += sim.valid
		totalExecuted += sim.executed
		goalSum += o.goalFitness(items)
		costSum += sim.cost
		timeSum += sim.time
		flows++
		if flows >= o.params.MaxFlows || !advance(odometer, points) {
			break
		}
	}

	fv := 1.0
	if totalExecuted > 0 {
		fv = float64(totalValid) / float64(totalExecuted)
	}
	fg := goalSum / float64(flows)
	cost := costSum / float64(flows)
	nomTime := timeSum / float64(flows)
	penalty := 1.0
	if o.params.MaxCost > 0 && cost > o.params.MaxCost {
		penalty *= o.params.MaxCost / cost
	}
	if o.params.MaxTime > 0 && nomTime > o.params.MaxTime {
		penalty *= o.params.MaxTime / nomTime
	}
	f := o.params.WV*fv + o.params.WG*fg + o.params.WR*fr*penalty
	return Evaluation{Fitness: f, FV: fv, FG: fg, FR: fr, Size: size, Flows: flows, Cost: cost, Time: nomTime}
}

// advance increments the odometer; it reports false on wrap-around.
func advance(odometer []int, points []decisionPoint) bool {
	for i := len(odometer) - 1; i >= 0; i-- {
		odometer[i]++
		if odometer[i] < points[i].domain {
			return true
		}
		odometer[i] = 0
	}
	return false
}

// itemList is the reference state: an append-only list of data items that
// resolves named references by linear scan.
type itemList []*workflow.DataItem

func (l itemList) Lookup(obj, prop string) (expr.Value, bool) {
	for _, it := range l {
		if it.Name == obj {
			return it.Prop(prop)
		}
	}
	return expr.Value{}, false
}

// binds reports whether distinct items of the list bind to svc's inputs so
// that every input condition holds: a backtracking search over the list in
// its order.
func (o *oracle) binds(svc *workflow.Service, items itemList) bool {
	conds := o.inputs[svc]
	env := &bindEnv{inputs: svc.Inputs, items: items}
	var bind func(i int) bool
	bind = func(i int) bool {
		if i == len(conds) {
			return true
		}
		if conds[i] == nil {
			return false
		}
	next:
		for _, it := range items {
			for _, u := range env.picked {
				if u == it {
					continue next
				}
			}
			env.picked = append(env.picked, it)
			if conds[i].Eval(env) && bind(i+1) {
				return true
			}
			env.picked = env.picked[:i]
		}
		return false
	}
	return bind(0)
}

// bindEnv resolves a formal bound so far (the latest binding of a repeated
// formal wins), then any other object by name in the list.
type bindEnv struct {
	inputs []workflow.ParamSpec
	picked itemList
	items  itemList
}

func (e *bindEnv) Lookup(obj, prop string) (expr.Value, bool) {
	for i := len(e.picked) - 1; i >= 0; i-- {
		if e.inputs[i].Name == obj {
			return e.picked[i].Prop(prop)
		}
	}
	return e.items.Lookup(obj, prop)
}

// goalFitness evaluates Equation 2: a condition is met if some data item,
// bound to the formal object G, satisfies it.
func (o *oracle) goalFitness(items itemList) float64 {
	if len(o.goals) == 0 {
		return 1
	}
	met := 0
	formals := map[string]*workflow.DataItem{}
	b := workflow.Binding{Formals: formals, Base: items}
	for _, g := range o.goals {
		for _, it := range items {
			formals["G"] = it
			if g.Eval(b) {
				met++
				break
			}
		}
	}
	return float64(met) / float64(len(o.goals))
}

// flowSim simulates one execution flow of a plan.
type flowSim struct {
	o         *oracle
	decisions map[*plantree.Node]int
	valid     int
	executed  int
	seq       int
	cost      float64
	time      float64
}

func (fs *flowSim) run(n *plantree.Node, items itemList) itemList {
	switch n.Kind {
	case plantree.KindActivity:
		fs.executed++
		svc := fs.o.problem.Catalog.Get(n.Service)
		if svc == nil {
			return items // unknown service: invalid activity
		}
		if !fs.o.binds(svc, items) {
			return items
		}
		fs.valid++
		fs.seq++
		fs.cost += svc.Cost
		fs.time += svc.BaseTime
		return append(items, svc.Produce(nil, fs.seq)...)

	case plantree.KindSequential:
		for _, c := range n.Children {
			items = fs.run(c, items)
		}
		return items

	case plantree.KindConcurrent:
		if fs.decisions[n] == 1 {
			for i := len(n.Children) - 1; i >= 0; i-- {
				items = fs.run(n.Children[i], items)
			}
			return items
		}
		for _, c := range n.Children {
			items = fs.run(c, items)
		}
		return items

	case plantree.KindSelective:
		if len(n.Children) == 0 {
			return items
		}
		pick := fs.decisions[n]
		if pick >= len(n.Children) {
			pick = 0
		}
		return fs.run(n.Children[pick], items)

	case plantree.KindIterative:
		iters := fs.decisions[n] + 1 // decision d means d+1 iterations
		for i := 0; i < iters; i++ {
			for _, c := range n.Children {
				items = fs.run(c, items)
			}
		}
		return items
	}
	return items
}

// ---------------------------------------------------------------------------
// Differential test.

// crossProblem is a catalog built to reach everything the virolab catalog
// does not: a condition over two formals, a condition over a named case
// item, a service with two outputs, a service with no inputs, and — through
// crossServices — a leaf naming a service the catalog does not have.
func crossProblem() *workflow.Problem {
	class := func(c string) map[string]expr.Value {
		return map[string]expr.Value{workflow.PropClassification: expr.String(c)}
	}
	gen := &workflow.Service{ // no inputs: always valid
		Name:    "GEN",
		Outputs: []workflow.OutputSpec{{Name: "O", Props: class("Raw")}},
		Cost:    0.5, BaseTime: 7,
	}
	split := &workflow.Service{ // two outputs
		Name:   "SPLIT",
		Inputs: []workflow.ParamSpec{{Name: "A", Condition: `A.Classification = "Raw"`}},
		Outputs: []workflow.OutputSpec{
			{Name: "L", Props: class("Half")},
			{Name: "R", Props: map[string]expr.Value{
				workflow.PropClassification: expr.String("Half"),
				workflow.PropCreator:        expr.String("Elsewhere"),
			}},
		},
		Cost: 1.25, BaseTime: 11,
	}
	join := &workflow.Service{ // C's condition reads B: two halves of different make
		Name: "JOIN",
		Inputs: []workflow.ParamSpec{
			{Name: "A", Condition: `A.Classification = "Join-Parameter"`},
			{Name: "B", Condition: `B.Classification = "Half"`},
			{Name: "C", Condition: `C.Classification = "Half" and B.Creator != C.Creator`},
		},
		Outputs: []workflow.OutputSpec{{Name: "D", Props: class("Whole")}},
		Cost:    3.1, BaseTime: 13,
	}
	pack := &workflow.Service{ // a named case item gates the service
		Name: "PACK",
		Inputs: []workflow.ParamSpec{
			{Name: "A", Condition: `A.Classification = "Whole" and D1.Size > 0`},
		},
		Outputs: []workflow.OutputSpec{{Name: "P", Props: class("Package")}},
		Cost:    0.7, BaseTime: 3,
	}
	return &workflow.Problem{
		Name: "cross",
		Initial: workflow.NewState(
			workflow.NewDataItem("D1", "Join-Parameter").With(workflow.PropSize, expr.Number(4)),
			workflow.NewDataItem("D2", "Raw"),
		),
		// The second goal reads a named item beside G, so it has no table.
		Goal: workflow.NewGoal(
			`G.Classification = "Package"`,
			`G.Classification = "Whole" and D1.Size > 3`,
		),
		Catalog: workflow.NewCatalog(gen, split, join, pack),
	}
}

// crossServices is the alphabet of the random trees over crossProblem.
var crossServices = []string{"GEN", "JOIN", "PACK", "SPLIT", "NOSUCH"}

// paramGrid is the cross product of the evaluation switches the kernel
// compiles in or enumerates by.
func paramGrid() []Params {
	var grid []Params
	for _, unroll := range []int{1, 2, 3} {
		for _, flows := range []int{1, 4, 7, 32} {
			for _, caps := range []bool{false, true} {
				p := DefaultParams()
				p.MaxLoopUnroll, p.MaxFlows = unroll, flows
				if caps {
					p.MaxCost, p.MaxTime = 9, 2000
				}
				grid = append(grid, p)
			}
		}
	}
	return grid
}

// TestKernelMatchesOracle compares the kernel with the oracle, score for
// score, on a seeded forest of random trees under every paramGrid point. Each
// point is a parallel subtest with its own problem, Evaluator and oracle; the
// forest is shared read-only.
func TestKernelMatchesOracle(t *testing.T) {
	trees := 2000
	if testing.Short() {
		trees = 200
	}
	cases := []struct {
		name     string
		problem  func() *workflow.Problem
		services []string
	}{
		{"virolab", virolab.Problem, virolab.Problem().Catalog.Names()},
		{"cross", crossProblem, crossServices},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20260930))
			forest := make([]*plantree.Node, trees)
			for i := range forest {
				forest[i] = plantree.Random(rng, c.services, DefaultParams().Smax)
			}
			for _, p := range paramGrid() {
				// strict=true: every point enumerates both orders of a
				// concurrent node.
				name := fmt.Sprintf("strict=true,unroll=%d,flows=%d,caps=%v", p.MaxLoopUnroll, p.MaxFlows, p.MaxCost > 0)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					problem := c.problem()
					ev, err := NewEvaluator(problem, p)
					if err != nil {
						t.Fatal(err)
					}
					o := newOracle(t, problem, p)
					for _, tree := range forest {
						if got, want := ev.evaluateOnly(tree, ev.scratch()), o.evaluate(tree); got != want {
							t.Fatalf("%s:\nkernel %+v\noracle %+v", tree, got, want)
						}
					}
				})
			}
		})
	}
}

// TestKernelCompilesTables pins which conditions the differential test
// drives through which path, so a catalog edit cannot quietly leave the
// scratch-backed expr.Env untested.
func TestKernelCompilesTables(t *testing.T) {
	tabled := func(p *workflow.Problem) (tables, nodes int) {
		ev, err := NewEvaluator(p, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		conds := append([]kernelCond(nil), ev.kernel.goals...)
		for _, s := range ev.kernel.svcs {
			conds = append(conds, s.inputs...)
		}
		for _, c := range conds {
			if c.node == nil {
				tables++
			} else {
				nodes++
			}
		}
		return tables, nodes
	}
	if tables, nodes := tabled(virolab.Problem()); tables != 13 || nodes != 0 {
		t.Errorf("virolab: %d tables, %d expressions, want 13 and 0", tables, nodes)
	}
	if tables, nodes := tabled(crossProblem()); tables != 4 || nodes != 3 {
		t.Errorf("cross: %d tables, %d expressions, want 4 and 3", tables, nodes)
	}
}

// TestKernelFlowClasses pins how the walk groups flows, on hand-built trees
// with known flow and class counts: flows that agree on every decision they
// reach share one class, a digit a flow never reaches does not split it, and
// a MaxFlows cut leaves the last class fewer flows than its split would have
// had. Each tree scores exactly as the oracle scores it.
func TestKernelFlowClasses(t *testing.T) {
	a, seq := plantree.Activity, plantree.Seq
	for _, c := range []struct {
		tree             *plantree.Node
		unroll, maxFlows int
		flows, classes   int
	}{
		// The loop's digit splits only the two flows that take the loop, and
		// only after their shared first iteration: {0, 1}, {2}, {3}.
		{sel(a("POD"), iter(a("P3DR"))), 2, 32, 4, 3},
		// Four flows cut at three: the first selective leaves {0, 1} and {2}
		// (flow 3 is cut), and the second splits {0, 1}.
		{seq(sel(a("POD"), a("P3DR")), sel(a("P3DR"), a("PSF"))), 2, 3, 3, 3},
		// Splits inside a loop's body, then the loop's own: every flow alone.
		{iter(sel(a("POD"), a("P3DR")), a("PSF")), 2, 32, 4, 4},
		// A concurrent node: the forward and the reverse order.
		{conc(a("POD"), a("P3DR")), 2, 32, 2, 2},
		// ... whose reverse order reaches the selective first.
		{conc(a("POD"), sel(a("P3DR"), a("PSF"))), 2, 32, 4, 4},
		// At unroll 1 a loop has one iteration and no digit, so only the two
		// orders split.
		{conc(a("POD"), iter(a("P3DR"))), 1, 32, 2, 2},
	} {
		p := DefaultParams()
		p.MaxLoopUnroll, p.MaxFlows = c.unroll, c.maxFlows
		ev, err := NewEvaluator(virolab.Problem(), p)
		if err != nil {
			t.Fatal(err)
		}
		sc := ev.scratch()
		got, want := ev.evaluateOnly(c.tree, sc), newOracle(t, virolab.Problem(), p).evaluate(c.tree)
		if got != want {
			t.Errorf("%s: kernel %+v, oracle %+v", c.tree, got, want)
		}
		if got.Flows != c.flows || len(sc.classes) != c.classes {
			t.Errorf("%s: %d flows in %d classes, want %d in %d", c.tree, got.Flows, len(sc.classes), c.flows, c.classes)
		}
	}
}

// fuzzCase turns fuzz input into one comparison: the first byte picks the
// problem and the parameter combination, the rest seed the tree generator.
func fuzzCase(data []byte) (*workflow.Problem, Params, *plantree.Node) {
	var head [9]byte
	copy(head[:], data)
	grid := paramGrid()
	problem, services := virolab.Problem(), virolab.Problem().Catalog.Names()
	if head[0]&1 == 1 {
		problem, services = crossProblem(), crossServices
	}
	params := grid[int(head[0]>>1)%len(grid)]
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(head[1:]))))
	return problem, params, plantree.Random(rng, services, params.Smax)
}

func FuzzKernelMatchesOracle(f *testing.F) {
	for i := 0; i < 144; i++ {
		f.Add([]byte{byte(i), byte(i * 37), byte(i >> 1), 3})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		problem, params, tree := fuzzCase(data)
		ev, err := NewEvaluator(problem, params)
		if err != nil {
			t.Fatal(err)
		}
		got, want := ev.Evaluate(tree), newOracle(t, problem, params).evaluate(tree)
		if got != want {
			t.Fatalf("%s %s:\nkernel %+v\noracle %+v", problem.Name, tree, got, want)
		}
	})
}

// ---------------------------------------------------------------------------
// Golden plans and allocation gates.

// TestGoldenPlans pins the Table-1 plans of seeds 1-4 as the interpreted
// evaluator found them (commit b11e76f): the kernel and the plan-tree
// changes around it may not move a single rng draw or fitness bit.
func TestGoldenPlans(t *testing.T) {
	golden := []struct {
		seed    int64
		evals   int
		fitness float64
		plan    string
	}{
		{1, 2400, 0.9175, "(seq POD (iter POD (seq P3DR) (iter (seq P3DR POD)) PSF))"},
		{2, 2481, 0.9324999999999999, "(iter (sel (seq (seq POD) P3DR (iter P3DR) PSF)))"},
		{3, 2420, 0.955, "(iter (iter POD P3DR P3DR) PSF)"},
		{4, 2461, 0.94, "(iter (seq POD (iter P3DR)) P3DR PSF PSF)"},
	}
	for _, g := range golden {
		p := DefaultParams()
		p.Seed = g.seed
		gp, err := New(virolab.Problem(), p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := gp.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluations != g.evals || res.Best.Eval.Fitness != g.fitness || res.Best.Tree.String() != g.plan {
			t.Errorf("seed %d: %d evaluations, f = %v, %s\nwant %d, %v, %s",
				g.seed, res.Evaluations, res.Best.Eval.Fitness, res.Best.Tree, g.evals, g.fitness, g.plan)
		}
	}
}

// TestEvaluateAllocatesNothingWarm gates the kernel's steady state: once a
// worker's scratch has grown to the tree, a cache-missing evaluation makes
// no allocation at all, from a genome or from a tree it converts first.
func TestEvaluateAllocatesNothingWarm(t *testing.T) {
	for _, problem := range []*workflow.Problem{virolab.Problem(), crossProblem()} {
		ev, err := NewEvaluator(problem, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		tree, err := plantree.FromProcess(virolab.Process()) // Figure 11
		if err != nil {
			t.Fatal(err)
		}
		if problem.Name == "cross" {
			tree = plantree.Seq(plantree.Activity("GEN"), plantree.Activity("SPLIT"),
				iter(plantree.Activity("JOIN"), plantree.Activity("PACK")))
		}
		sc := ev.scratch()
		if allocs := testing.AllocsPerRun(100, func() { ev.evaluateOnly(tree, sc) }); allocs != 0 {
			t.Errorf("%s: warm evaluation of %s allocates %v times, want 0", problem.Name, tree, allocs)
		}
		genes := plantree.AppendGenes(nil, tree, ev.kernel.names, nil)
		if allocs := testing.AllocsPerRun(100, func() { ev.evaluateGenes(genes, sc) }); allocs != 0 {
			t.Errorf("%s: warm evaluation of the genome of %s allocates %v times, want 0", problem.Name, tree, allocs)
		}
	}
}

// TestPlanAllocationBudget gates the two plans the benchmark times, each on
// one worker: a cold Table-1 plan, standalone from New to the result, and a
// Figure-3 incremental re-plan through a warm planning service. The
// interpreted evaluator spent 25 M mallocs on the first and the kernel left
// the GP loop's own — 26 709 mallocs and 18 261 KB; in a workspace a run
// allocates what it keeps (kernel, evaluation cache, key strings, history,
// result) and, standalone, its two gene slabs: 400 mallocs and 1 700 KB
// (428 while the condition lexer lowered a copy of every word, 463 and
// 3 235 KB when the population was pointer trees in node slabs). The
// re-plan, whose worker already has the slabs, reads 363 mallocs and 54 KB:
// its neighborhood is built in the population's slab, its cache key without
// fmt, its process from arrays sized to the tree and its PDL straight from
// the tree (518 and 57 KB through tree → process → tree → text, 518 and
// 62 KB with pointer trees, 2 000 and 206 KB when the neighborhood was heap
// trees, 3 764 and 461 KB before any slab). A row is the least of three
// runs, because the runtime's own allocations only add; the ceilings leave
// under 4 %.
func TestPlanAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds a varying number of allocations of its own")
	}
	problem := virolab.Problem()
	cold := func() {
		p := DefaultParams()
		p.Seed = 1
		p.EvalWorkers = 1
		gp, err := New(problem, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gp.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	failed, err := plantree.FromProcess(virolab.Process())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.EvalWorkers = 1
	svc, err := NewService(ServiceConfig{Catalog: virolab.Catalog(), Params: params, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	replans := 0
	replan := func() {
		replans++
		id := fmt.Sprintf("replan-%d", replans)
		_, err := svc.Submit(context.Background(), PlanSpec{ID: id, Initial: problem.Initial.Items(),
			Goal: problem.Goal.Conditions, Excluded: []string{"POR"}, Failed: failed, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := svc.Wait(context.Background(), id); err != nil || st.Status != StatusSucceeded {
			t.Fatalf("re-plan = %+v, %v", st, err)
		}
	}
	replan() // the worker's workspace is warm from here on

	for _, row := range []struct {
		name        string
		plan        func()
		mallocs, kb uint64
	}{
		{"cold Table-1 plan", cold, 416, 1760},
		{"incremental re-plan, warm service", replan, 377, 56},
	} {
		mallocs, kb := ^uint64(0), ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			row.plan()
			runtime.ReadMemStats(&after)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
			kb = min(kb, (after.TotalAlloc-before.TotalAlloc)/1024)
		}
		t.Logf("%s: %d mallocs, %d KB", row.name, mallocs, kb)
		if mallocs > row.mallocs || kb > row.kb {
			t.Errorf("%s made %d mallocs and %d KB, budget %d and %d KB", row.name, mallocs, kb, row.mallocs, row.kb)
		}
	}
}

// TestEvaluateAllParallelWorkers drives evaluateAll's fan-out with more
// workers than the default on a small box, for the race detector: each
// worker simulates on its own scratch and shares only the read-only kernel.
func TestEvaluateAllParallelWorkers(t *testing.T) {
	run := func(workers int) *Result {
		p := DefaultParams()
		p.Seed = 5
		p.Generations = 3
		p.EvalWorkers = workers
		gp, err := New(crossProblem(), p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := gp.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := run(1), run(4)
	if one.Evaluations != four.Evaluations || one.Best.Eval != four.Best.Eval || !one.Best.Tree.Equal(four.Best.Tree) {
		t.Errorf("1 worker: %d evals %+v %s\n4 workers: %d evals %+v %s",
			one.Evaluations, one.Best.Eval, one.Best.Tree, four.Evaluations, four.Best.Eval, four.Best.Tree)
	}
}
