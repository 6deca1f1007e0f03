package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/pdl"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// TestFig10SaturationNeverFailsATask pins the "P3DR preconditions unmet"
// flake as gone: the benchmark's enact_sat shape — Figure-10 tasks through
// Engine.Submit on the reliable grid, 48 in flight over three tenants — used
// to fail a task in some ten thousand; 267 342 consecutive ones failed none
// at PR 21, and the precondition check was rewritten after that. Every task
// must complete, on its first attempt, with all 17 executions.
func TestFig10SaturationNeverFailsATask(t *testing.T) {
	tasks := 2000
	if testing.Short() {
		tasks = 300
	}
	cfg := grid.DefaultSyntheticConfig()
	cfg.FailureRate = 0
	tenants := []string{"alpha", "beta", "gamma"}
	env, err := NewEnvironment(Options{
		Catalog:        virolab.Catalog(),
		GridConfig:     &cfg,
		PostProcess:    virolab.ResolutionHook(nil),
		QueueCapacity:  4096,
		RetainFinished: tasks,
		Tenants: map[string]engine.TenantConfig{
			"alpha": {Weight: 3}, "beta": {Weight: 1}, "gamma": {Weight: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	var next atomic.Int64
	var wg sync.WaitGroup
	for client := 0; client < 48; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				n := next.Add(1)
				if n > int64(tasks) {
					return
				}
				id := fmt.Sprintf("sat-%d", n)
				p, err := pdl.ParseProcess(id, virolab.PDLSource)
				if err != nil {
					t.Error(err)
					return
				}
				task := &workflow.Task{ID: id, Name: "3DSD", Owner: "UCF", Process: p, Case: virolab.Case()}
				sub := engine.Submission{Task: task, Priority: engine.PriorityNormal, Tenant: tenants[client%len(tenants)]}
				if _, err := env.Engine.Submit(sub); err != nil {
					t.Errorf("task %s: %v", id, err)
					return
				}
				st, err := env.Engine.Task(id)
				for ; err == nil && st.Finished.IsZero(); st, err = env.Engine.Task(id) {
					runtime.Gosched()
				}
				switch {
				case err != nil:
					t.Errorf("task %s: %v", id, err)
				case st.Status != engine.StatusCompleted || st.Attempt != 1:
					t.Errorf("task %s ended %s on attempt %d: %s", id, st.Status, st.Attempt, st.Error)
				case st.Report == nil || !st.Report.Completed || st.Report.Executed != 17:
					t.Errorf("task %s: report %+v", id, st.Report)
				}
			}
		}(client)
	}
	wg.Wait()
}
