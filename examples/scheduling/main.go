// Scheduling: the resource-management side of the environment. Builds a
// heterogeneous grid, compares the four scheduling heuristics on a mixed
// workload, injects MTBF/MTTR failures through the discrete-event kernel to
// measure availability, and uses the simulation service to predict how the
// workload behaves under that churn.
package main

import (
	"fmt"
	"log"

	"repro/internal/grid"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/virolab"
)

func main() {
	cfg := grid.DefaultSyntheticConfig()
	cfg.Clusters = 6
	cfg.SMPs = 3
	cfg.Supercomputers = 1
	g := grid.Synthetic(cfg)
	fmt.Printf("grid: %d nodes in %d equivalence classes\n", len(g.Nodes()), len(g.EquivalenceClasses()))
	for _, c := range g.EquivalenceClasses() {
		fmt.Printf("  %-26s %d node(s)\n", c.Key, len(c.Nodes))
	}

	// A mixed workload: one long reconstruction per four short jobs.
	catalog := virolab.Catalog()
	var workload []services.TaskSpec
	for i := 0; i < 40; i++ {
		spec := services.TaskSpec{ID: fmt.Sprintf("t%02d", i), Service: "PSF", DataMB: 100}
		if i%4 == 0 {
			spec.Service, spec.DataMB = "P3DR", 1500
		}
		spec.BaseTime = catalog.Get(spec.Service).BaseTime
		workload = append(workload, spec)
	}

	// --- Heuristic comparison --------------------------------------------
	sched := &services.Scheduling{Grid: g}
	fmt.Println("\nscheduling heuristics on 40 mixed tasks:")
	fmt.Println("  heuristic   makespan(s)  assigned")
	for _, h := range []services.Heuristic{
		services.HeuristicMinMin, services.HeuristicMaxMin,
		services.HeuristicSufferage, services.HeuristicFCFS,
	} {
		reply := sched.ScheduleWith(workload, h)
		fmt.Printf("  %-10s  %11.0f  %8d\n", h, reply.Makespan, len(reply.Assignments))
	}

	// --- Failure injection ------------------------------------------------
	eng := sim.NewEngine(11)
	const horizon = 200000.0
	plan, err := g.Inject(eng, 20000, 2000, horizon) // MTBF 20000s, MTTR 2000s
	if err != nil {
		log.Fatal(err)
	}
	eng.Run(horizon)
	avail := plan.Availability(horizon)
	fmt.Printf("\nfailure injection over %.0fs (MTBF 20000s, MTTR 2000s): %d transitions\n",
		horizon, len(plan.Transitions))
	worst, worstA := "", 1.0
	for node, a := range avail {
		if a < worstA {
			worst, worstA = node, a
		}
	}
	if worst != "" {
		fmt.Printf("  least available node: %s at %.1f%%\n", worst, 100*worstA)
	}

	// Nodes may be down right now (the injection left the grid in its final
	// state); the what-if simulation sees exactly that degraded grid.
	down := 0
	for _, n := range g.Nodes() {
		if !n.Up() {
			down++
		}
	}
	fmt.Printf("  nodes down at horizon: %d\n", down)

	// --- What-if simulation ----------------------------------------------
	simsvc := services.Simulation{Grid: g}
	res := simsvc.Simulate(services.SimulateRequest{
		Tasks:        workload,
		InterArrival: 30,
		Retries:      2,
		Seed:         3,
	})
	fmt.Printf("\nsimulation service prediction on the degraded grid:\n")
	fmt.Printf("  makespan %.0fs, completed %d, failed %d, retried %d, utilization %.1f%%\n",
		res.Makespan, res.Completed, res.Failed, res.Retried, 100*res.Utilization)
}
