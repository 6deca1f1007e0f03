package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/pdl"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// Stated allocation budget of one Figure-10 enactment (17 activity
// executions) through SubmitContext on a failure-free synthetic grid. The
// counts are machine-independent and read 304 bare / 308 instrumented; the
// ceilings leave under 4% headroom — less than the 17 one more message per
// dispatch would add. The difference is the telemetry record sites on the
// enact path: adding one moves instrumented-minus-bare, so it cannot land
// without raising the budget here. This is the exact form of the "<5%
// instrumentation overhead" promise (OBSERVABILITY.md).
const (
	enactAllocsBare         = 316
	enactAllocsInstrumented = 320
	enactAllocsTelemetry    = 8
)

func TestEnactAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds a varying number of allocations of its own")
	}
	measure := func(bare bool) float64 {
		cfg := grid.DefaultSyntheticConfig()
		cfg.FailureRate = 0
		env, err := NewEnvironment(Options{
			Catalog:     virolab.Catalog(),
			GridConfig:  &cfg,
			PostProcess: virolab.ResolutionHook(nil),
			NoTelemetry: bare,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		n := 0
		return testing.AllocsPerRun(20, func() {
			task := virolab.Task()
			task.ID = fmt.Sprintf("T-alloc-%d", n)
			n++
			report, err := env.SubmitContext(context.Background(), task, nil)
			if err != nil || !report.Completed {
				t.Fatalf("enactment %s: completed=%v err=%v", task.ID, report != nil && report.Completed, err)
			}
		})
	}
	bare, instrumented := measure(true), measure(false)
	t.Logf("allocs per Fig-10 enactment: bare %.0f, instrumented %.0f, telemetry %.0f", bare, instrumented, instrumented-bare)
	if bare > enactAllocsBare {
		t.Errorf("bare enactment allocates %.0f, budget %d", bare, enactAllocsBare)
	}
	if instrumented > enactAllocsInstrumented {
		t.Errorf("instrumented enactment allocates %.0f, budget %d", instrumented, enactAllocsInstrumented)
	}
	if instrumented-bare > enactAllocsTelemetry {
		t.Errorf("telemetry adds %.0f allocations per enactment, budget %d", instrumented-bare, enactAllocsTelemetry)
	}
}

// The same budget one layer out, where the benchmark's enact_sat stands: a
// Figure-10 task built from its PDL text the way a client holding text does,
// through Engine.Submit on mem: to its terminal record — PDL parse,
// admission, the three journal records and the enactment. It gates what the
// coordinator-only budget never reaches: the journal encoder and admission.
// It reads 446–447 allocations and 62.2 KB, the same on every machine; both
// ceilings leave under 4% headroom.
const (
	engineAllocsPerTask = 463
	engineKBPerTask     = 64
)

func TestEngineAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds a varying number of allocations of its own")
	}
	cfg := grid.DefaultSyntheticConfig()
	cfg.FailureRate = 0
	env, err := NewEnvironment(Options{
		Catalog:     virolab.Catalog(),
		GridConfig:  &cfg,
		PostProcess: virolab.ResolutionHook(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	n := 0
	runTask := func() {
		id := fmt.Sprintf("T-engine-%d", n)
		n++
		p, err := pdl.ParseProcess(id, virolab.PDLSource)
		if err != nil {
			t.Fatal(err)
		}
		task := &workflow.Task{ID: id, Name: "3DSD", Owner: "UCF", Process: p, Case: virolab.Case()}
		if _, err := env.Engine.Submit(engine.Submission{Task: task, Priority: engine.PriorityNormal, Tenant: "alpha"}); err != nil {
			t.Fatal(err)
		}
		for {
			st, err := env.Engine.Task(id)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Finished.IsZero() {
				if st.Status != engine.StatusCompleted {
					t.Fatalf("task %s ended %s: %s", id, st.Status, st.Error)
				}
				return
			}
			runtime.Gosched()
		}
	}
	allocs := testing.AllocsPerRun(50, runTask)
	// Bytes the same way: on one P, after AllocsPerRun's warm-up run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 50; i++ {
		runTask()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 50 / 1024
	t.Logf("per Fig-10 task through the engine: %.0f allocs, %.1f KB", allocs, kb)
	if allocs > engineAllocsPerTask {
		t.Errorf("a task through the engine allocates %.0f, budget %d", allocs, engineAllocsPerTask)
	}
	if kb > engineKBPerTask {
		t.Errorf("a task through the engine allocates %.1f KB, budget %d", kb, engineKBPerTask)
	}
}

// TestEnactmentLeavesInitialDataAlone pins what lets a state share the case's
// items instead of copying them: an enactment — a Fork's concurrent
// dispatches, the resolution hook stamping outputs, the Choice reading them —
// writes to no initial item, whether the task comes in directly or through
// the engine.
func TestEnactmentLeavesInitialDataAlone(t *testing.T) {
	cfg := grid.DefaultSyntheticConfig()
	cfg.FailureRate = 0
	env, err := NewEnvironment(Options{
		Catalog:     virolab.Catalog(),
		GridConfig:  &cfg,
		PostProcess: virolab.ResolutionHook(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	snapshot := func(items []*workflow.DataItem) []*workflow.DataItem {
		out := make([]*workflow.DataItem, len(items))
		for i, it := range items {
			out[i] = it.Clone()
		}
		return out
	}
	direct := virolab.Task()
	before := snapshot(direct.Case.InitialData)
	if report, err := env.SubmitContext(context.Background(), direct, nil); err != nil || !report.Completed {
		t.Fatalf("direct enactment: %v", err)
	}
	if !reflect.DeepEqual(direct.Case.InitialData, before) {
		t.Errorf("a direct enactment wrote to the case's initial data:\n got %v\nwant %v", direct.Case.InitialData, before)
	}

	queued := virolab.Task()
	queued.ID = "T-queued"
	before = snapshot(queued.Case.InitialData)
	if _, err := env.Engine.Submit(engine.Submission{Task: queued, Priority: engine.PriorityNormal}); err != nil {
		t.Fatal(err)
	}
	for {
		st, err := env.Engine.Task(queued.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Finished.IsZero() {
			if st.Status != engine.StatusCompleted {
				t.Fatalf("task ended %s: %s", st.Status, st.Error)
			}
			break
		}
		runtime.Gosched()
	}
	if !reflect.DeepEqual(queued.Case.InitialData, before) {
		t.Errorf("an engine enactment wrote to the case's initial data:\n got %v\nwant %v", queued.Case.InitialData, before)
	}
}
