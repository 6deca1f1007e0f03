package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/grid"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// fig3Env is an environment on the grid of replan_mix: the Figure-10
// process's sole P3DR provider is down, and the backup node offers the
// drop-in P3DRALT.
func fig3Env(t *testing.T, opts Options) *Environment {
	t.Helper()
	g := grid.New(1)
	_ = g.AddNode(&grid.Node{ID: "main", Hardware: grid.Hardware{Type: "SMP", Speed: 2}})
	_ = g.AddNode(&grid.Node{ID: "backup", Hardware: grid.Hardware{Type: "PC-cluster", Speed: 1}})
	_ = g.AddContainer(&grid.Container{ID: "ac-main", NodeID: "main", Services: []string{"POD", "P3DR", "POR", "PSF"}})
	_ = g.AddContainer(&grid.Container{ID: "ac-backup", NodeID: "backup", Services: []string{"POD", "POR", "PSF", "P3DRALT"}})
	catalog := virolab.Catalog()
	p3dr := catalog.Get("P3DR")
	catalog.Add(&workflow.Service{Name: "P3DRALT", Inputs: p3dr.Inputs, Outputs: p3dr.Outputs, BaseTime: p3dr.BaseTime})
	opts.Grid, opts.Catalog, opts.PostProcess = g, catalog, virolab.ResolutionHook(nil)
	env, err := NewEnvironment(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	if err := g.SetNodeUp("main", false); err != nil {
		t.Fatal(err)
	}
	return env
}

// fig3Task is the Figure-10 task of case variant v: D1 carries Batch v, which
// no condition reads but the plan cache's key does.
func fig3Task(t *testing.T, id string, v int) *workflow.Task {
	t.Helper()
	task := fig10Task(t, id)
	task.Case.InitialData[0].With("Batch", expr.Number(float64(v)))
	return task
}

// TestCachedPlanSharedAcrossTasks enacts one cached plan in many tasks at
// once. Every plan-cache hit hands out the same process description, which
// each coordinator walks, checkpoints and hands back to planning as the
// failed plan if it fails again: under -race, a write to it anywhere on
// those paths is a report.
func TestCachedPlanSharedAcrossTasks(t *testing.T) {
	env := fig3Env(t, Options{Checkpoint: true, Workers: 8})
	submitAndWait(t, env, fig3Task(t, "T-miss", 0)) // plans and fills the cache
	const tasks = 12
	for i := 0; i < tasks; i++ {
		task := fig3Task(t, fmt.Sprintf("T-hit-%d", i), 0)
		if _, err := env.Engine.Submit(engine.Submission{Task: task, Priority: engine.PriorityNormal}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tasks; i++ {
		report := waitFor(t, env, fmt.Sprintf("T-hit-%d", i))
		if report.Replans != 1 {
			t.Errorf("task %d: %d re-plans, want 1", i, report.Replans)
		}
		// Count the checkpoints of the cached plan: those after it arrived.
		planned, checkpoints := false, 0
		for _, ev := range report.Trace {
			switch {
			case ev.Kind == "plan-received":
				planned = strings.Contains(ev.Detail, "P3DRALT")
			case ev.Kind == "checkpoint" && planned && strings.HasPrefix(ev.Detail, "version "):
				checkpoints++
			}
		}
		if !planned || checkpoints == 0 {
			t.Errorf("task %d: re-planned onto P3DRALT %v, %d checkpoints of the plan", i, planned, checkpoints)
		}
	}
	if st := env.Planner.Stats(); st.CacheMisses != 1 || st.CacheHits != tasks {
		t.Errorf("plan cache: %d misses and %d hits, want 1 and %d", st.CacheMisses, st.CacheHits, tasks)
	}
}
