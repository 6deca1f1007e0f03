package core

import (
	"context"
	"testing"

	"repro/internal/coordination"
	"repro/internal/planner"
	"repro/internal/store"
	"repro/internal/virolab"
)

// TestRestartSurvivability is the full durability story: an environment runs
// the case study with checkpointing on its own handle of the persistent
// store, and is killed (the handle fenced, then shut down). A brand-new
// environment (fresh platform, fresh agents, fresh coordinator) opens a fresh
// handle on the same store and resumes the task from an intermediate
// checkpoint to completion — the "persistent and reliable"
// core-services promise of Section 2 made concrete.
func TestRestartSurvivability(t *testing.T) {
	if testing.Short() {
		t.Skip("full restart cycle in -short mode")
	}
	shared := store.NewMemory(store.Options{})
	params := planner.DefaultParams()
	params.PopulationSize = 120
	params.Generations = 15

	// First life: run, checkpoint, archive a plan, die.
	fence1 := store.NewFenced(shared)
	env1, err := NewEnvironment(Options{
		Catalog:     virolab.Catalog(),
		Planner:     params,
		PostProcess: virolab.ResolutionHook(nil),
		Checkpoint:  true,
		Store:       fence1,
	})
	if err != nil {
		t.Fatal(err)
	}
	report1, err := env1.SubmitContext(context.Background(), virolab.Task(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report1.Completed {
		t.Fatal("first life did not complete")
	}
	fence1.Fence()
	env1.Close()

	// Second life: fresh everything, a fresh handle on the persistent store.
	env2, err := NewEnvironment(Options{
		Catalog:     virolab.Catalog(),
		Planner:     params,
		PostProcess: virolab.ResolutionHook(nil),
		Checkpoint:  true,
		Store:       store.NewFenced(shared),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env2.Close()

	// The checkpoints survived the restart; pick a mid-run snapshot and
	// resume it on the brand-new coordinator.
	snap, err := coordination.LoadCheckpointVersion(env2.Services.Storage, "T1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Executed >= report1.Executed {
		t.Fatalf("snapshot v4 executed=%d not intermediate (total %d)", snap.Executed, report1.Executed)
	}
	report2, err := env2.Coordinator.ResumeContext(context.Background(), snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report2.Completed {
		t.Fatalf("resumed task did not complete after restart: %+v", report2.Trace)
	}
	if report2.Executed != report1.Executed {
		t.Errorf("resumed total executions = %d, want %d", report2.Executed, report1.Executed)
	}
	d12 := report2.FinalState.Get("D12")
	if d12 == nil || d12.Classification() != "Resolution File" {
		t.Errorf("restarted final state missing D12: %v", d12)
	}
}
