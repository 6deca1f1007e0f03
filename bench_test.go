package repro

// The experiment harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the design choices called out in
// DESIGN.md. Each benchmark prints the quantities the paper reports as
// custom metrics, so `go test -bench=. -benchmem` regenerates the numbers
// next to the timing data (see EXPERIMENTS.md for paper-vs-measured).
// Service-level performance — engine throughput, journal appends, the
// planning service, telemetry overhead — is the benchmark/ module's job, as
// named metrics with samples and bounds; it is not measured here.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/ontology"
	"repro/internal/planner"
	"repro/internal/plantree"
	"repro/internal/services"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// table2Params are the paper's Table 1 settings.
func table2Params() planner.Params { return planner.DefaultParams() }

// reducedParams keep iteration cheap for per-op benches that embed a full
// GP run.
func reducedParams() planner.Params {
	p := planner.DefaultParams()
	p.PopulationSize = 120
	p.Generations = 15
	return p
}

// BenchmarkTable1Defaults measures constructing a planner at the Table 1
// settings (a sanity benchmark that also asserts the parameter block).
func BenchmarkTable1Defaults(b *testing.B) {
	problem := virolab.Problem()
	for i := 0; i < b.N; i++ {
		p := table2Params()
		if p.PopulationSize != 200 || p.Generations != 20 || p.Smax != 40 {
			b.Fatal("Table 1 parameters drifted")
		}
		if _, err := planner.New(problem, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2GPPlanning is the paper's Section 5 experiment: one full GP
// run per iteration at the Table 1 settings on the virus-reconstruction
// planning problem. The reported metrics are the Table 2 columns.
func BenchmarkTable2GPPlanning(b *testing.B) {
	problem := virolab.Problem()
	var sum planner.Summary
	results := make([]*planner.Result, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := table2Params()
		p.Seed = int64(i + 1)
		gp, err := planner.New(problem, p)
		if err != nil {
			b.Fatal(err)
		}
		r, err := gp.RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, r)
	}
	b.StopTimer()
	sum = planner.Summarize(results)
	b.ReportMetric(sum.AvgFitness, "avg-fitness")
	b.ReportMetric(sum.AvgValidity, "avg-validity")
	b.ReportMetric(sum.AvgGoalFitness, "avg-goal")
	b.ReportMetric(sum.AvgSize, "avg-size")
}

// BenchmarkBaselineForwardSearch plans the same problem with breadth-first
// forward search (the hand-scripted-coordination stand-in).
func BenchmarkBaselineForwardSearch(b *testing.B) {
	problem := virolab.Problem()
	var size int
	for i := 0; i < b.N; i++ {
		plan, err := planner.ForwardSearch(problem, 12)
		if err != nil {
			b.Fatal(err)
		}
		size = plan.Size()
	}
	b.ReportMetric(float64(size), "plan-size")
}

// BenchmarkBaselineRandomSearch gives random search the same evaluation
// budget as one Table 1 GP run.
func BenchmarkBaselineRandomSearch(b *testing.B) {
	problem := virolab.Problem()
	p := table2Params()
	budget := p.PopulationSize * (p.Generations + 1)
	var best planner.Evaluation
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		r, err := planner.RandomSearch(problem, p, budget)
		if err != nil {
			b.Fatal(err)
		}
		best = r.Best.Eval
	}
	b.ReportMetric(best.Fitness, "best-fitness")
	b.ReportMetric(best.FG, "best-goal")
}

// benchEnv builds the full Figure 1 environment for the flow benches.
func benchEnv(b *testing.B, g *grid.Grid) *core.Environment {
	b.Helper()
	opts := core.Options{
		Catalog:     virolab.Catalog(),
		Planner:     reducedParams(),
		PostProcess: virolab.ResolutionHook(nil),
	}
	if g != nil {
		opts.Grid = g
	}
	env, err := core.NewEnvironment(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(env.Close)
	return env
}

// BenchmarkFig2PlanningRequest measures the Figure 2 interaction: the
// coordination service requesting a plan from the planning service and
// enacting the result (task submitted with NeedPlanning).
func BenchmarkFig2PlanningRequest(b *testing.B) {
	env := benchEnv(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := &workflow.Task{
			ID:           fmt.Sprintf("T-fig2-%d", i),
			Name:         "fig2",
			Case:         virolab.Case(),
			NeedPlanning: true,
		}
		report, err := env.SubmitContext(context.Background(), task, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !report.Completed {
			b.Fatalf("not completed: %+v", report)
		}
	}
}

// BenchmarkFig3Replanning measures the Figure 3 flow: the sole P3DR
// provider is down, the planning service verifies executability through
// brokerage and containers, and the re-planned workflow completes on the
// backup service.
func BenchmarkFig3Replanning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := grid.New(int64(i + 1))
		_ = g.AddNode(&grid.Node{ID: "main", Hardware: grid.Hardware{Type: "SMP", Speed: 2}})
		_ = g.AddNode(&grid.Node{ID: "backup", Hardware: grid.Hardware{Type: "PC-cluster", Speed: 1}})
		_ = g.AddContainer(&grid.Container{ID: "ac-main", NodeID: "main",
			Services: []string{"POD", "P3DR", "POR", "PSF"}})
		_ = g.AddContainer(&grid.Container{ID: "ac-backup", NodeID: "backup",
			Services: []string{"POD", "POR", "PSF", "P3DRALT"}})
		catalog := virolab.Catalog()
		p3dr := catalog.Get("P3DR")
		catalog.Add(&workflow.Service{Name: "P3DRALT", Inputs: p3dr.Inputs, Outputs: p3dr.Outputs, BaseTime: p3dr.BaseTime})
		env, err := core.NewEnvironment(core.Options{
			Grid: g, Catalog: catalog, Planner: reducedParams(),
			PostProcess: virolab.ResolutionHook(nil),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = g.SetNodeUp("main", false)
		b.StartTimer()

		report, err := env.SubmitContext(context.Background(), virolab.Task(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if report.Replans != 1 || !report.Completed {
			b.Fatalf("replans=%d completed=%v", report.Replans, report.Completed)
		}
		b.StopTimer()
		env.Close()
		b.StartTimer()
	}
}

// BenchmarkFig4to7Conversion measures the process-description/plan-tree
// conversions of Figures 4-7 (one canonical fragment per construct, both
// directions).
func BenchmarkFig4to7Conversion(b *testing.B) {
	trees := []*plantree.Node{
		plantree.Seq(plantree.Activity("A"), plantree.Activity("B"), plantree.Activity("C")), // Fig 4
		plantree.Conc(plantree.Activity("A"), plantree.Activity("B")),                        // Fig 5
		plantree.Sel(plantree.Activity("A"), plantree.Activity("B")),                         // Fig 6
		plantree.Iter(plantree.Activity("A"), plantree.Activity("B")),                        // Fig 7
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, tr := range trees {
			p, err := plantree.ToProcess("fig", tr)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plantree.FromProcess(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig8Crossover measures the subtree crossover of Figure 8.
func BenchmarkFig8Crossover(b *testing.B) {
	gpParams := table2Params()
	rng := newRand(1)
	a := virolab.PlanTree()
	c := virolab.PlanTree()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		planner.Crossover(rng, a, c, gpParams.Smax)
	}
}

// BenchmarkFig9Mutation measures the subtree mutation of Figure 9.
func BenchmarkFig9Mutation(b *testing.B) {
	gpParams := table2Params()
	rng := newRand(2)
	services := virolab.Catalog().Names()
	tree := virolab.PlanTree()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		planner.Mutate(rng, tree, services, 0.05, gpParams.Smax)
	}
}

// BenchmarkFig10Enactment measures one full enactment of the Figure 10
// process description, including the three refinement iterations.
func BenchmarkFig10Enactment(b *testing.B) {
	env := benchEnv(b, nil)
	var executed int
	var wall, compute float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := virolab.Task()
		task.ID = fmt.Sprintf("T-fig10-%d", i)
		report, err := env.SubmitContext(context.Background(), task, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !report.Completed {
			b.Fatal("enactment incomplete")
		}
		executed = report.Executed
		wall = report.WallClockTime
		compute = report.SimulatedTime
	}
	b.ReportMetric(float64(executed), "activity-executions")
	b.ReportMetric(wall, "wallclock-s")
	b.ReportMetric(compute, "compute-s")
}

// BenchmarkFig11PlanTree measures recovering the Figure 11 plan tree from
// the Figure 10 graph.
func BenchmarkFig11PlanTree(b *testing.B) {
	p := virolab.Process()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree, err := plantree.FromProcess(p)
		if err != nil {
			b.Fatal(err)
		}
		if tree.Size() != 10 {
			b.Fatalf("size = %d", tree.Size())
		}
	}
}

// BenchmarkFig12ShellBuild measures building the Figure 12 ontology shell.
func BenchmarkFig12ShellBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kb := ontology.GridShell()
		if c, _ := kb.Stats(); c != 10 {
			b.Fatal("shell class count drifted")
		}
	}
}

// BenchmarkFig13InstanceLoad measures the Figure 13 knowledge base's JSON
// round trip with reference validation on decode. The KB itself is built once
// per process; internal/virolab's bench of the same name measures building it.
func BenchmarkFig13InstanceLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kb, err := virolab.Ontology()
		if err != nil {
			b.Fatal(err)
		}
		data, err := kb.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ontology.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ------------

// BenchmarkAblationSmax sweeps the tree-size cap.
func BenchmarkAblationSmax(b *testing.B) {
	for _, smax := range []int{10, 20, 40, 80} {
		b.Run(fmt.Sprintf("smax=%d", smax), func(b *testing.B) {
			problem := virolab.Problem()
			var sum planner.Summary
			results := make([]*planner.Result, 0, b.N)
			for i := 0; i < b.N; i++ {
				p := reducedParams()
				p.Smax = smax
				p.Seed = int64(i + 1)
				gp, err := planner.New(problem, p)
				if err != nil {
					b.Fatal(err)
				}
				r, err := gp.RunContext(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				results = append(results, r)
			}
			sum = planner.Summarize(results)
			b.ReportMetric(sum.AvgFitness, "avg-fitness")
			b.ReportMetric(sum.AvgSize, "avg-size")
			b.ReportMetric(float64(sum.PerfectGoal)/float64(sum.Runs), "goal-rate")
		})
	}
}

// BenchmarkAblationOperators compares full GP against mutation-only and
// crossover-only evolution.
func BenchmarkAblationOperators(b *testing.B) {
	configs := []struct {
		name    string
		cx, mut float64
	}{
		{"full", 0.7, 0.001},
		{"mutation-only", 0, 0.01},
		{"crossover-only", 0.7, 0},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			problem := virolab.Problem()
			results := make([]*planner.Result, 0, b.N)
			for i := 0; i < b.N; i++ {
				p := reducedParams()
				p.CrossoverRate = cfg.cx
				p.MutationRate = cfg.mut
				p.Seed = int64(i + 1)
				gp, err := planner.New(problem, p)
				if err != nil {
					b.Fatal(err)
				}
				r, err := gp.RunContext(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				results = append(results, r)
			}
			sum := planner.Summarize(results)
			b.ReportMetric(sum.AvgFitness, "avg-fitness")
			b.ReportMetric(float64(sum.PerfectGoal)/float64(sum.Runs), "goal-rate")
		})
	}
}

// BenchmarkAblationSelection compares tournament and roulette selection.
func BenchmarkAblationSelection(b *testing.B) {
	for _, scheme := range []planner.SelectionScheme{planner.SelectTournament, planner.SelectRoulette} {
		b.Run(scheme.String(), func(b *testing.B) {
			problem := virolab.Problem()
			results := make([]*planner.Result, 0, b.N)
			for i := 0; i < b.N; i++ {
				p := reducedParams()
				p.Selection = scheme
				p.Seed = int64(i + 1)
				gp, err := planner.New(problem, p)
				if err != nil {
					b.Fatal(err)
				}
				r, err := gp.RunContext(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				results = append(results, r)
			}
			sum := planner.Summarize(results)
			b.ReportMetric(sum.AvgFitness, "avg-fitness")
			b.ReportMetric(float64(sum.PerfectGoal)/float64(sum.Runs), "goal-rate")
		})
	}
}

// BenchmarkAblationFlowEnum sweeps the flow-enumeration cap of the fitness
// simulation.
func BenchmarkAblationFlowEnum(b *testing.B) {
	for _, maxFlows := range []int{1, 4, 32} {
		b.Run(fmt.Sprintf("maxflows=%d", maxFlows), func(b *testing.B) {
			problem := virolab.Problem()
			results := make([]*planner.Result, 0, b.N)
			for i := 0; i < b.N; i++ {
				p := reducedParams()
				p.MaxFlows = maxFlows
				p.Seed = int64(i + 1)
				gp, err := planner.New(problem, p)
				if err != nil {
					b.Fatal(err)
				}
				r, err := gp.RunContext(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				results = append(results, r)
			}
			sum := planner.Summarize(results)
			b.ReportMetric(sum.AvgFitness, "avg-fitness")
			b.ReportMetric(float64(sum.PerfectGoal)/float64(sum.Runs), "goal-rate")
		})
	}
}

// BenchmarkAblationStrictConcurrency compares strict (order-enumerating)
// against lenient concurrent-node simulation.
func BenchmarkAblationStrictConcurrency(b *testing.B) {
	for _, strict := range []bool{true, false} {
		name := "strict"
		if !strict {
			name = "lenient"
		}
		b.Run(name, func(b *testing.B) {
			problem := virolab.Problem()
			results := make([]*planner.Result, 0, b.N)
			for i := 0; i < b.N; i++ {
				p := reducedParams()
				p.StrictConcurrency = strict
				p.Seed = int64(i + 1)
				gp, err := planner.New(problem, p)
				if err != nil {
					b.Fatal(err)
				}
				r, err := gp.RunContext(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				results = append(results, r)
			}
			sum := planner.Summarize(results)
			b.ReportMetric(sum.AvgFitness, "avg-fitness")
			b.ReportMetric(sum.AvgValidity, "avg-validity")
		})
	}
}

// BenchmarkAblationPlanReuse compares a cold planning service against one
// whose population is seeded with a remembered plan (the Section 3.3
// "adapt an existing process description" behaviour) under a small budget.
func BenchmarkAblationPlanReuse(b *testing.B) {
	variants := []struct {
		name   string
		seed   bool
		elites int
	}{
		{"cold", false, 0},
		{"seeded", true, 0},
		{"seeded-elite", true, 1},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			problem := virolab.Problem()
			goals := 0
			for i := 0; i < b.N; i++ {
				small := planner.DefaultParams()
				small.PopulationSize = 20
				small.Generations = 3
				small.Elites = v.elites
				small.Seed = int64(i + 1)
				gp, err := planner.New(problem, small)
				if err != nil {
					b.Fatal(err)
				}
				if v.seed {
					gp.Seed(plantree.Seq(
						plantree.Activity("POD"), plantree.Activity("P3DR"),
						plantree.Activity("P3DR"), plantree.Activity("PSF"),
					))
				}
				r, err := gp.RunContext(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if r.Best.Eval.FG >= 1 {
					goals++
				}
			}
			b.ReportMetric(float64(goals)/float64(b.N), "goal-rate")
		})
	}
}

// BenchmarkGridSimScalability runs the simulation-service what-if model at
// two grid sizes (the cmd/gridsim sweep's endpoints).
func BenchmarkGridSimScalability(b *testing.B) {
	for _, clusters := range []int{4, 32} {
		b.Run(fmt.Sprintf("clusters=%d", clusters), func(b *testing.B) {
			cfg := grid.DefaultSyntheticConfig()
			cfg.Clusters = clusters
			cfg.SMPs = clusters / 2
			g := grid.Synthetic(cfg)
			sim := services.Simulation{Grid: g}
			tasks := make([]services.TaskSpec, 64)
			for i := range tasks {
				tasks[i] = services.TaskSpec{ID: fmt.Sprintf("t%d", i), Service: "P3DR", BaseTime: 1800, DataMB: 1500}
			}
			var res services.SimulateReply
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = sim.Simulate(services.SimulateRequest{Tasks: tasks, InterArrival: 10, Retries: 2, Seed: 1})
			}
			b.ReportMetric(res.Makespan, "makespan-s")
			b.ReportMetric(res.Utilization*100, "utilization-pct")
		})
	}
}

// BenchmarkCostAwareScheduling measures the cost-aware candidate scorer on a
// 64-node heterogeneous fleet — the per-dispatch overhead a budget- or
// deadline-constrained case adds to the coordinator's scheduling path
// (unconstrained cases skip it entirely). Metrics report the fraction of
// feasible candidates and the chosen head's cost so ranking changes show up
// next to the timing data.
func BenchmarkCostAwareScheduling(b *testing.B) {
	rng := newRand(11)
	const fleetSize = 64
	fleet := make([]services.Candidate, fleetSize)
	for i := range fleet {
		fleet[i] = services.Candidate{
			Container:     fmt.Sprintf("bc-%03d", i),
			Node:          fmt.Sprintf("bn-%03d", i),
			Domain:        fmt.Sprintf("bd-%d", i%6),
			Speed:         0.25 + rng.Float64()*4,
			Cost:          0.5 + rng.Float64()*9,
			BandwidthMbps: 100 + rng.Float64()*1900,
			LatencyUs:     rng.Float64() * 2000,
		}
	}
	perf := make(map[string]services.PerfStats, fleetSize)
	for i, c := range fleet {
		if i%3 == 0 {
			perf[c.Node] = services.PerfStats{
				Runs: 5, SuccessRate: 0.5 + rng.Float64()*0.5,
				MeanDuration: rng.Float64() * 6, MeanCost: rng.Float64() * 30,
			}
		}
	}
	history := func(node string) services.PerfStats { return perf[node] }
	inputs := []services.DataRef{
		{SizeMB: 120, Location: "bn-007"},
		{SizeMB: 40, Location: "elsewhere"},
		{SizeMB: 300}, // unknown location: free
	}

	var feasible int
	var headCost float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scored := services.ScoreCandidates(fleet, 2.5, inputs, history, 4.0)
		ranked := services.RankCostAware(scored, i%2 == 1)
		for _, sc := range ranked {
			if sc.Feasible {
				feasible++
			}
		}
		headCost += ranked[0].EstCost
	}
	b.ReportMetric(float64(feasible)/float64(b.N)/fleetSize, "feasible-frac")
	b.ReportMetric(headCost/float64(b.N), "head-cost")
}

// newRand returns a deterministic random stream for the operator benches.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
