// Replanning: the Figure 3 failure-recovery scenario. The only node hosting
// the P3DR reconstruction program goes down mid-environment; the
// coordination service detects the non-executable activity, the planning
// service verifies executability through the information service, the
// brokerage service, and the application containers (the eight-step Figure 3
// interaction, printed live), and the re-planned workflow completes using a
// backup reconstruction service.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/agent"
	"repro/internal/coordination"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/planner"
	"repro/internal/services"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

func main() {
	// A two-node grid: the fast SMP hosts P3DR; the cluster hosts
	// everything else plus the backup P3DRALT.
	g := grid.New(7)
	mustAdd(g.AddNode(&grid.Node{
		ID: "smp-1", Domain: "purdue.edu",
		Hardware:   grid.Hardware{Type: "SMP", Speed: 3, BandwidthMbps: 1000, LatencyUs: 10},
		CostPerSec: 0.05,
	}))
	mustAdd(g.AddNode(&grid.Node{
		ID: "cluster-1", Domain: "ucf.edu",
		Hardware:   grid.Hardware{Type: "PC-cluster", Speed: 1.2, BandwidthMbps: 100, LatencyUs: 100},
		CostPerSec: 0.01,
	}))
	mustAdd(g.AddContainer(&grid.Container{ID: "ac-main", NodeID: "smp-1",
		Services: []string{"POD", "P3DR", "POR", "PSF"}}))
	mustAdd(g.AddContainer(&grid.Container{ID: "ac-backup", NodeID: "cluster-1",
		Services: []string{"POD", "POR", "PSF", "P3DRALT"}}))

	catalog := virolab.Catalog()
	p3dr := catalog.Get("P3DR")
	catalog.Add(&workflow.Service{
		Name:     "P3DRALT",
		Inputs:   p3dr.Inputs,
		Outputs:  p3dr.Outputs,
		BaseTime: p3dr.BaseTime * 2, // the backup program is slower
		Cost:     p3dr.Cost,
	})

	params := planner.DefaultParams()
	params.PopulationSize = 120
	params.Generations = 15
	params.Seed = 7
	env, err := core.NewEnvironment(core.Options{
		Grid:        g,
		Catalog:     catalog,
		Planner:     params,
		PostProcess: virolab.ResolutionHook(nil),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()

	// Print the Figure 3 interaction as it happens: every message the
	// planning service sends or receives.
	env.Platform.SetTrace(func(m agent.Message) {
		if m.Sender == services.PlanningName || m.Receiver == services.PlanningName {
			fmt.Printf("    [msg] %s -> %s (%s %T)\n", m.Sender, m.Receiver, m.Performative, m.Content)
		}
	})

	fmt.Println("failing node smp-1 (the only P3DR provider)...")
	if err := g.SetNodeUp("smp-1", false); err != nil {
		log.Fatal(err)
	}

	fmt.Println("enacting PD-3DSD; expect a re-plan onto P3DRALT:")
	report, err := env.SubmitContext(context.Background(), virolab.Task(), nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncompleted=%v after %d re-plan(s); %d executions, %d failures\n",
		report.Completed, report.Replans, report.Executed, report.Failures)
	fmt.Println("replanning trace events:")
	for _, e := range report.Trace {
		if e.Kind == "replan" || e.Kind == "plan-request" || e.Kind == "plan-received" {
			printEvent(e)
		}
	}
}

func printEvent(e coordination.TraceEvent) {
	fmt.Printf("  %-14s %-8s %s\n", e.Kind, e.Activity, e.Detail)
}

func mustAdd(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
