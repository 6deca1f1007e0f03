// Soak test: the load harness drives a real core.Environment at saturation
// and asserts the engine's weighted fair queue delivers goodput in
// proportion to tenant weights. External test package so it can build the
// full environment (core wires the engine).
package load_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/load"
	"repro/internal/pdl"
	"repro/internal/planner"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// soakPDL is a minimal one-activity case so each task costs microseconds and
// the soak stays fast even at hundreds of completions.
const soakPDL = `BEGIN, POD(D1, D7 -> D8), END`

func soakTask(tenant string, n int) (*workflow.Task, error) {
	id := tenant + "-" + itoa(n)
	p, err := pdl.ParseProcess(id, soakPDL)
	if err != nil {
		return nil, err
	}
	c := workflow.NewCase(id, "soak "+id)
	for _, d := range virolab.InitialData() {
		c.AddData(d)
	}
	c.Goal = workflow.NewGoal(`G.Classification = "Density Map"`)
	return &workflow.Task{ID: id, Name: c.Name, Case: c, Process: p}, nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestEngineSoakFairness keeps three tenants weighted 3:1:1 saturated
// (closed loop, window 8 each) against a 2-worker engine until 300 tasks
// complete, then checks every tenant's completed share lands within ±10%
// of its weight share — the ISSUE's fairness acceptance bound.
func TestEngineSoakFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	params := planner.DefaultParams()
	params.PopulationSize = 120
	params.Generations = 15
	env, err := core.NewEnvironment(core.Options{
		Catalog: virolab.Catalog(),
		Planner: params,
		Workers: 2,
		// Slow each activity enough that service time dominates the
		// runner's refill poll; otherwise the heavy tenant's window drains
		// between polls and fairness is bounded by the harness, not the
		// scheduler.
		PostProcess: func(*workflow.Activity, []*workflow.DataItem, int) {
			time.Sleep(3 * time.Millisecond)
		},
		Tenants: map[string]engine.TenantConfig{
			"alpha": {Weight: 3},
			"beta":  {Weight: 1},
			"gamma": {Weight: 1},
		},
		// Retention must outlast the run so the poller never loses a
		// completion's latency sample.
		RetainFinished: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	report, err := load.RunLive(load.EngineTarget(env.Engine, soakTask), load.Spec{
		Seed: 1,
		Mode: "closed",
		Tenants: []load.TenantSpec{
			{ID: "alpha", Weight: 3},
			{ID: "beta", Weight: 1},
			{ID: "gamma", Weight: 1},
		},
		Arrivals:    300,
		Outstanding: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed < 300 {
		t.Fatalf("completed %d, want >= 300", report.Completed)
	}
	if report.Rejected != 0 {
		t.Fatalf("unexpected rejections: %d", report.Rejected)
	}
	if report.MaxWeightDeviation > 0.10 {
		t.Fatalf("fairness violated: max weight deviation %.3f > 0.10\n%+v",
			report.MaxWeightDeviation, report.Tenants)
	}
	for _, tr := range report.Tenants {
		if tr.Latency.Count == 0 || tr.Latency.MeanSec <= 0 {
			t.Fatalf("tenant %s has no latency samples: %+v", tr.ID, tr)
		}
	}

	// The engine's own per-tenant accounting must agree with the harness.
	for _, tr := range report.Tenants {
		st, ok := env.Engine.Tenant(tr.ID)
		if !ok {
			t.Fatalf("engine lost tenant %s", tr.ID)
		}
		if st.Completed < int64(tr.Completed) {
			t.Fatalf("engine counts %d completions for %s, harness saw %d", st.Completed, tr.ID, tr.Completed)
		}
		if st.Weight != tr.Weight {
			t.Fatalf("engine weight %d for %s, want %d", st.Weight, tr.ID, tr.Weight)
		}
	}
}
