package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fairq"
	"repro/internal/pdl"
	"repro/internal/planner"
	"repro/internal/plantree"
	"repro/internal/services"
	"repro/internal/virolab"
)

// Probes time single layers through their public functions, with no load
// and nothing else running: the unloaded cost of one call. They belong to
// the traced pass and run after the workload, so they never share the
// window with it. Every random input derives from the run's seed.

// perCall times n calls of f and returns the mean.
func perCall(n int, f func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(t0) / time.Duration(max(n, 1))
}

// enactProbe pushes n Figure-10 tasks one at a time through
// Coordinator.RunTaskContext, with no engine in front; it returns each
// task's wall time in microseconds.
func enactProbe(env *core.Environment, tag string, n int) ([]float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		task, err := fig10Task(&op{id: fmt.Sprintf("probe-%s-%d", tag, i)})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		report, err := env.Coordinator.RunTaskContext(context.Background(), task, nil)
		times = append(times, us(time.Since(t0)))
		if err != nil || !report.Completed {
			return nil, fmt.Errorf("coordination probe: task %s did not complete: %v", task.ID, err)
		}
	}
	return times, nil
}

// runProbes fills the probe-backed per-layer metrics and returns the
// coordinator's unloaded service time for the budget table.
func runProbes(cfg Config, m metricSet) (time.Duration, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.ProbeIters

	// pdl
	m["pdl.parse_us"] = us(perCall(n/10, func(int) {
		if _, err := pdl.ParseProcess("probe", virolab.PDLSource); err != nil {
			panic(err) // the constant Figure-10 text parses; anything else is a bug
		}
	}))

	// fairq: one push and one pop at depth 48 over three tenants at 3:1:1.
	weights := map[string]int{"alpha": 3, "beta": 1, "gamma": 1}
	tenants := []string{"alpha", "beta", "gamma"}
	q := fairq.New[int](3, func(t string) int { return weights[t] })
	for i := 0; i < 48; i++ {
		q.Push(1, tenants[i%3], i)
	}
	m["fairq.push_pop_ns"] = float64(perCall(n, func(i int) {
		q.Push(1, tenants[rng.Intn(3)], i)
		q.Pop(nil)
	}))

	// coordination and telemetry: the same enactments on a bare and on a
	// default (instrumented) environment.
	opts := core.Options{Catalog: virolab.Catalog(), GridConfig: reliableGrid(), Planner: cfg.PlanParams, PostProcess: virolab.ResolutionHook(nil)}
	bareOpts := opts
	bareOpts.NoTelemetry = true
	bare, err := core.NewEnvironment(bareOpts)
	if err != nil {
		return 0, err
	}
	defer bare.Close()
	env, err := core.NewEnvironment(opts)
	if err != nil {
		return 0, err
	}
	defer env.Close()
	// Interleaved in ten slices, so drift in the machine's speed and the
	// state of the heap hit both sides alike.
	var bareUs, instUs []float64
	for slice := 0; slice < 10; slice++ {
		b, err := enactProbe(bare, fmt.Sprintf("bare%d", slice), cfg.ProbeTasks/10)
		if err != nil {
			return 0, err
		}
		i, err := enactProbe(env, fmt.Sprintf("inst%d", slice), cfg.ProbeTasks/10)
		if err != nil {
			return 0, err
		}
		bareUs, instUs = append(bareUs, b...), append(instUs, i...)
	}
	m["coordination.enact_us_p50"] = median(instUs)
	m["telemetry.enact_overhead_ratio"] = median(instUs) / median(bareUs)
	m["telemetry.snapshot_ms"] = ms(perCall(20, func(int) { env.Telemetry.Snapshot() }))

	// services and agent
	m["services.match_us"] = us(perCall(n, func(int) {
		env.Services.Matchmaking.Match(services.MatchRequest{Service: "P3DR"})
	}))
	client, err := env.Platform.Register("bench-probe", agent.HandlerFunc(func(*agent.Context, agent.Message) {}))
	if err != nil {
		return 0, err
	}
	node := env.Grid.Nodes()[0].ID
	var callErr error
	m["agent.roundtrip_us"] = us(perCall(n, func(int) {
		if _, err := client.Call(services.MonitoringName, services.OntMonitoring,
			services.NodeStatusRequest{Node: node}, time.Second); err != nil {
			callErr = err
		}
	}))
	if callErr != nil {
		return 0, fmt.Errorf("agent probe: %w", callErr)
	}

	// planning: a request for a case the plan cache already holds. The first
	// call plans it (at a small budget: the probe is the warm path).
	small := cfg.PlanParams
	small.PopulationSize, small.Generations = min(small.PopulationSize, 60), min(small.Generations, 8)
	warmOpts := opts
	warmOpts.Planner = small
	warm, err := core.NewEnvironment(warmOpts)
	if err != nil {
		return 0, err
	}
	defer warm.Close()
	problem := virolab.Problem()
	if _, _, err := warm.Plan("probe", problem); err != nil {
		return 0, fmt.Errorf("planning probe: %w", err)
	}
	cached := make([]float64, 0, 200)
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, _, err := warm.Plan("probe", problem); err != nil {
			return 0, fmt.Errorf("planning probe: %w", err)
		}
		cached = append(cached, us(time.Since(t0)))
	}
	m["planning.cached_request_us_p50"] = median(cached)

	// planner operators over seeded random trees at the Table-1 size limit.
	names := problem.Catalog.Names()
	trees := make([]*plantree.Node, min(256, n))
	for i := range trees {
		trees[i] = plantree.Random(rng, names, cfg.PlanParams.Smax)
	}
	ev, err := planner.NewEvaluator(problem, cfg.PlanParams)
	if err != nil {
		return 0, err
	}
	// One pass: Evaluate memoizes by tree, so a second pass would time the map.
	m["planner.evaluate_us"] = us(perCall(len(trees), func(i int) { ev.Evaluate(trees[i]) }))
	m["planner.crossover_ns"] = float64(perCall(n, func(i int) {
		a, b := trees[i%len(trees)].Clone(), trees[(i+1)%len(trees)].Clone()
		planner.Crossover(rng, a, b, cfg.PlanParams.Smax)
	}))
	m["planner.mutate_ns"] = float64(perCall(n, func(i int) {
		planner.Mutate(rng, trees[i%len(trees)].Clone(), names, 0.05, cfg.PlanParams.Smax)
	}))
	return time.Duration(median(instUs) * float64(time.Microsecond)), nil
}
