package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/virolab"
)

// Stated allocation budget of one Figure-10 enactment (17 activity
// executions) through SubmitContext on a failure-free synthetic grid. The
// counts are machine-independent and read 845 bare / 882 instrumented; the
// ceilings leave under 4% headroom. The difference is the telemetry record
// sites on the enact path: adding one moves instrumented-minus-bare, so it
// cannot land without raising the budget here. This is the exact form of the
// "<5% instrumentation overhead" promise (OBSERVABILITY.md).
const (
	enactAllocsBare         = 875
	enactAllocsInstrumented = 915
	enactAllocsTelemetry    = 40
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
