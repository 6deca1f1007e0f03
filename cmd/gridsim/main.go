// Command gridsim studies the scalability of the environment with the
// simulation service (the paper: "Simulation services are necessary to
// study the scalability of the system"). It sweeps grid sizes and workload
// sizes, running the discrete-event what-if model for each point and
// printing makespan, utilization, and failure counts.
//
// Usage:
//
//	gridsim [-tasks 64] [-arrival 10] [-retries 2] [-seed 1]
//	        [-sweep "2,4,8,16"] [-schedule]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/grid"
	"repro/internal/services"
	"repro/internal/virolab"
)

func main() {
	var (
		tasks     = flag.Int("tasks", 64, "tasks in the workload")
		arrival   = flag.Float64("arrival", 10, "inter-arrival time, simulated seconds")
		retries   = flag.Int("retries", 2, "retries per failed execution")
		seed      = flag.Int64("seed", 1, "simulation seed")
		sweepStr  = flag.String("sweep", "2,4,8,16,32", "comma-separated cluster counts to sweep")
		schedule  = flag.Bool("schedule", false, "also print the schedule for the largest grid")
		heuristic = flag.String("heuristic", "min-min", "scheduling heuristic: min-min, max-min, sufferage, fcfs")
	)
	flag.Parse()
	if err := run(*tasks, *arrival, *retries, *seed, *sweepStr, *schedule, *heuristic); err != nil {
		fmt.Fprintln(os.Stderr, "gridsim:", err)
		os.Exit(1)
	}
}

func run(tasks int, arrival float64, retries int, seed int64, sweepStr string, schedule bool, heuristicName string) error {
	var h services.Heuristic
	switch heuristicName {
	case "min-min":
		h = services.HeuristicMinMin
	case "max-min":
		h = services.HeuristicMaxMin
	case "sufferage":
		h = services.HeuristicSufferage
	case "fcfs":
		h = services.HeuristicFCFS
	default:
		return fmt.Errorf("unknown heuristic %q", heuristicName)
	}
	var sweep []int
	for _, part := range strings.Split(sweepStr, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return fmt.Errorf("bad sweep element %q", part)
		}
		sweep = append(sweep, n)
	}

	workload := make([]services.TaskSpec, tasks)
	catalog := virolab.Catalog()
	kinds := []struct {
		service string
		dataMB  float64
	}{{"POD", 1500}, {"P3DR", 1500}, {"POR", 1500}, {"PSF", 100}}
	for i := range workload {
		k := kinds[i%len(kinds)]
		workload[i] = services.TaskSpec{
			ID:       fmt.Sprintf("t%03d", i),
			Service:  k.service,
			BaseTime: catalog.Get(k.service).BaseTime,
			DataMB:   k.dataMB,
		}
	}

	fmt.Printf("workload: %d tasks, inter-arrival %.0fs, %d retries\n\n", tasks, arrival, retries)
	fmt.Println("clusters  nodes  makespan(s)  utilization  completed  failed  retried")
	var lastGrid *grid.Grid
	for _, clusters := range sweep {
		cfg := grid.DefaultSyntheticConfig()
		cfg.Clusters = clusters
		cfg.SMPs = clusters / 2
		cfg.Supercomputers = 1
		cfg.Seed = seed
		g := grid.Synthetic(cfg)
		lastGrid = g
		sim := services.Simulation{Grid: g}
		res := sim.Simulate(services.SimulateRequest{
			Tasks:        workload,
			InterArrival: arrival,
			Retries:      retries,
			Seed:         seed,
		})
		fmt.Printf("%8d  %5d  %11.0f  %10.1f%%  %9d  %6d  %7d\n",
			clusters, len(g.Nodes()), res.Makespan, 100*res.Utilization,
			res.Completed, res.Failed, res.Retried)
	}

	if schedule && lastGrid != nil {
		fmt.Printf("\n%s schedule on the largest grid (first 20 assignments):\n", h)
		sched := (&services.Scheduling{Grid: lastGrid}).ScheduleWith(workload, h)
		for i, a := range sched.Assignments {
			if i >= 20 {
				fmt.Printf("  ... %d more\n", len(sched.Assignments)-20)
				break
			}
			fmt.Printf("  %-6s %-12s on %-12s %8.0f .. %8.0f\n", a.Task, a.Container, a.Node, a.Start, a.Finish)
		}
		fmt.Printf("  makespan: %.0fs\n", sched.Makespan)
	}
	return nil
}
