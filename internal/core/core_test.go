package core

import (
	"context"
	"testing"

	"repro/internal/planner"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

func testEnv(t *testing.T) *Environment {
	t.Helper()
	params := planner.DefaultParams()
	params.PopulationSize = 120
	params.Generations = 15
	params.Seed = 9
	env, err := NewEnvironment(Options{
		Catalog:     virolab.Catalog(),
		Planner:     params,
		PostProcess: virolab.ResolutionHook(nil),
		Checkpoint:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	return env
}

func TestNewEnvironmentDefaults(t *testing.T) {
	env := testEnv(t)
	if env.Grid == nil || len(env.Grid.Nodes()) == 0 {
		t.Fatal("no synthetic grid")
	}
	// Core services and container agents registered.
	if !env.Platform.Has("coordination") || !env.Platform.Has("planning") || !env.Platform.Has("matchmaking") {
		t.Error("coordination, planning or matchmaking agent not registered")
	}
	for _, s := range env.Catalog.Names() {
		if len(env.Grid.ContainersFor(s)) == 0 {
			t.Errorf("service %s has no containers", s)
		}
	}
}

func TestNewEnvironmentValidation(t *testing.T) {
	if _, err := NewEnvironment(Options{}); err == nil {
		t.Error("missing catalog accepted")
	}
	bad := planner.DefaultParams()
	bad.WV = 0.9
	if _, err := NewEnvironment(Options{Catalog: virolab.Catalog(), Planner: bad}); err == nil {
		t.Error("bad planner params accepted")
	}
}

func TestSubmitFig10Task(t *testing.T) {
	env := testEnv(t)
	report, err := env.SubmitContext(context.Background(), virolab.Task(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed {
		t.Fatalf("report = %+v", report)
	}
	if report.Executed < 7 {
		t.Errorf("executed = %d, want >= 7", report.Executed)
	}
	d12 := report.FinalState.Get("D12")
	if d12 == nil || d12.Classification() != "Resolution File" {
		t.Errorf("final D12 = %v", d12)
	}
}

func TestPlanArchivesAndReturns(t *testing.T) {
	env := testEnv(t)
	pd, reply, err := env.Plan("auto-3dsd", virolab.Problem())
	if err != nil {
		t.Fatal(err)
	}
	if reply.Eval.FG < 1 {
		t.Errorf("plan goal fitness = %g", reply.Eval.FG)
	}
	if err := pd.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, e, err := env.Archive.Get("auto-3dsd", 0); err != nil || e.Version != 1 {
		t.Errorf("plan not archived once: version %d, %v", e.Version, err)
	}
	// And the planned PD is enactable end to end.
	task := &workflow.Task{ID: "TP", Name: "planned", Process: pd, Case: virolab.Case()}
	report, err := env.SubmitContext(context.Background(), task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed {
		t.Errorf("planned task not completed: %+v", report.Trace)
	}
	// Invalid problems are rejected.
	if _, _, err := env.Plan("bad", &workflow.Problem{}); err == nil {
		t.Error("invalid problem accepted")
	}
}

func TestTelemetryWiring(t *testing.T) {
	env := testEnv(t) // checkpointing on
	if env.Telemetry == nil {
		t.Fatal("environment has no telemetry registry")
	}
	task := &workflow.Task{ID: "T-tel", Name: "telemetry probe",
		NeedPlanning: true, Case: virolab.Case()}
	report, err := env.SubmitContext(context.Background(), task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed {
		t.Fatalf("report = %+v", report)
	}

	snap := env.Telemetry.Snapshot()
	for _, name := range []string{
		"coordination.activities.fired",
		"coordination.activities.executed",
		"coordination.tasks.completed",
		"coordination.checkpoints.written",
		"coordination.batches",
		"planning.requests",
		"planner.generations",
		"planner.runs",
		"matchmaking.requests",
		"matchmaking.hits",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	if got := snap.Counters["coordination.activities.executed"]; got != int64(report.Executed) {
		t.Errorf("executed counter = %d, report says %d", got, report.Executed)
	}
	if h := snap.Histograms["coordination.enact.real.seconds"]; h.Count != 1 {
		t.Errorf("enact histogram count = %d, want 1", h.Count)
	}
	if h := snap.Histograms["coordination.checkpoint.bytes"]; h.Count <= 0 || h.Sum <= 0 {
		t.Errorf("checkpoint bytes histogram = %+v", h)
	}

	// The task trace holds an ordered span log covering planning and
	// enactment.
	tr := env.Telemetry.LookupTrace("T-tel")
	if tr == nil {
		t.Fatal("no trace for T-tel")
	}
	spans := tr.Spans()
	kinds := map[string]int{}
	lastSeq := uint64(0)
	for _, s := range spans {
		if s.Seq <= lastSeq {
			t.Fatalf("spans out of order: %d after %d", s.Seq, lastSeq)
		}
		lastSeq = s.Seq
		kinds[s.Kind]++
	}
	for _, k := range []string{"plan-request", "gp-generation", "plan-received", "fire", "invoke", "dispatch", "complete", "checkpoint"} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %q span; kinds = %v", k, kinds)
		}
	}
}

func TestNoTelemetry(t *testing.T) {
	params := planner.DefaultParams()
	params.PopulationSize = 120
	params.Generations = 15
	env, err := NewEnvironment(Options{
		Catalog:     virolab.Catalog(),
		Planner:     params,
		PostProcess: virolab.ResolutionHook(nil),
		NoTelemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	if env.Telemetry != nil {
		t.Fatal("NoTelemetry still built a registry")
	}
	report, err := env.SubmitContext(context.Background(), virolab.Task(), nil)
	if err != nil || !report.Completed {
		t.Fatalf("bare environment cannot enact: %v %+v", err, report)
	}
}
