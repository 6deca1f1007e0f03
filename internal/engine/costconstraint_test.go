package engine_test

import (
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coordination"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/workflow"
)

// budgetTask is forkTask with a spend cap on the case.
func budgetTask(t testing.TB, id string, budget float64) *workflow.Task {
	t.Helper()
	task := forkTask(t, id)
	task.Case.Budget = budget
	return task
}

// TestInfeasibleBudgetTerminates is the acceptance criterion for the budget
// short-circuit: a case whose budget cannot pay for even the cheapest
// candidate of its first activity terminates failed with the budget_exceeded
// reason BEFORE the retry loop — no retries consumed, no replanning
// attempted — and the scheduler.cost.budget_exceeded counter moves.
func TestInfeasibleBudgetTerminates(t *testing.T) {
	env := newEnv(t, nil)
	task := budgetTask(t, "T-broke", 1e-9)
	if _, err := env.Engine.Submit(engine.Submission{Task: task, Priority: engine.PriorityNormal}); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, env.Engine, "T-broke")
	if st.Status != engine.StatusFailed {
		t.Fatalf("status = %q, want failed", st.Status)
	}
	if st.Reason != coordination.ReasonBudgetExceeded {
		t.Errorf("reason = %q, want %q", st.Reason, coordination.ReasonBudgetExceeded)
	}
	if !strings.Contains(st.Error, "budget") {
		t.Errorf("error %q does not mention the budget", st.Error)
	}
	if st.Budget != 1e-9 {
		t.Errorf("status budget = %v, want 1e-9", st.Budget)
	}
	if st.Report == nil {
		t.Fatal("no report on the failed task")
	}
	if st.Report.Retries != 0 {
		t.Errorf("retries = %d, want 0 (infeasible budget must not consume retries)", st.Report.Retries)
	}
	if st.Report.Replans != 0 {
		t.Errorf("replans = %d, want 0 (constraint violations are terminal)", st.Report.Replans)
	}
	snap := env.Telemetry.Snapshot()
	if got := snap.Counters["scheduler.cost.budget_exceeded"]; got < 1 {
		t.Errorf("scheduler.cost.budget_exceeded = %d, want >= 1", got)
	}
	if got := snap.Counters["scheduler.cost.schedules"]; got < 1 {
		t.Errorf("scheduler.cost.schedules = %d, want >= 1", got)
	}
}

// TestBudgetCrashRecovery kills a node mid-enactment of a budget-constrained
// case — after its first checkpoint, inside its un-checkpointed second batch
// — and replays the crash image on every backend. The replay must neither
// double-enact (only the unfinished batch re-runs) nor double-charge: the
// final spend equals the checkpointed spend plus the resumed batch, matching
// a crash-free control run of the same case, and the tenant ledger accrues
// that spend exactly once.
func TestBudgetCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("full crash/recovery cycle in -short mode")
	}
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) { budgetCrashRecovery(t, backend) })
	}
}

func budgetCrashRecovery(t *testing.T, backend string) {
	const caseBudget = 1e6

	// Control: the same constrained case, same single-worker options, no
	// crash. Its spend is what the crashed-and-recovered run must match —
	// a double-charge would exceed it by the checkpointed batch's cost.
	control := newEnv(t, func(opts *core.Options) {
		opts.Workers = 1
		opts.Checkpoint = true
	})
	if _, err := control.Engine.Submit(engine.Submission{Task: budgetTask(t, "B-run", caseBudget), Priority: engine.PriorityNormal}); err != nil {
		t.Fatal(err)
	}
	controlSt := waitTerminal(t, control.Engine, "B-run")
	if controlSt.Status != engine.StatusCompleted || controlSt.Report == nil {
		t.Fatalf("control run = %+v, want completed", controlSt)
	}
	controlCost := controlSt.Report.TotalCost
	if controlCost <= 0 {
		t.Fatalf("control run charged %v, want > 0", controlCost)
	}
	control.Close()

	dir := t.TempDir()
	var dsn1, dsn2 string
	var handle1, handle2 *store.Fenced // mem only: one handle per life on a shared store
	switch backend {
	case "mem":
		shared := store.NewMemory(store.Options{})
		handle1, handle2 = store.NewFenced(shared), store.NewFenced(shared)
	case "file":
		dsn1 = "file:" + filepath.Join(dir, "live")
		dsn2 = "file:" + filepath.Join(dir, "crash")
	}

	// First life: block at the second activity — checkpoint v1 (the POD
	// batch, already charged) exists, batch two is in flight, unlogged.
	midway := make(chan struct{})
	crashed := make(chan struct{})
	var calls1 atomic.Int64
	env1 := newEnv(t, func(opts *core.Options) {
		opts.Workers = 1
		opts.Checkpoint = true
		opts.StoreDSN = dsn1
		if handle1 != nil {
			opts.Store = handle1
		}
		opts.PostProcess = func(*workflow.Activity, []*workflow.DataItem, int) {
			if calls1.Add(1) == 2 {
				close(midway)
				<-crashed
			}
		}
	})
	if _, err := env1.Engine.Submit(engine.Submission{Task: budgetTask(t, "B-run", caseBudget), Priority: engine.PriorityNormal}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-midway:
	case <-time.After(30 * time.Second):
		t.Fatal("constrained task never reached its second activity")
	}
	if backend == "mem" {
		// A true kill -9: the first life never lands another write.
		handle1.Fence()
	} else {
		dc, ok := env1.Store.(store.DurableCopier)
		if !ok {
			t.Fatalf("%T does not implement store.DurableCopier", env1.Store)
		}
		if err := dc.CopyDurable(strings.TrimPrefix(dsn2, backend+":")); err != nil {
			t.Fatal(err)
		}
	}
	close(crashed)
	env1.Close()

	// Second life on the crash image.
	var calls2 atomic.Int64
	env2 := newEnv(t, func(opts *core.Options) {
		opts.Workers = 1
		opts.Checkpoint = true
		opts.StoreDSN = dsn2
		if handle2 != nil {
			opts.Store = handle2
		}
		opts.PostProcess = func(*workflow.Activity, []*workflow.DataItem, int) { calls2.Add(1) }
	})

	// The crash image must carry the constraint durably: the journaled
	// envelope keeps the budget, and the checkpoint holds the spend already
	// charged for the checkpointed batch.
	recs, err := engine.ReadJournal(env2.Services.Storage, "B-run")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("crash image has no journal for B-run")
	}
	var envBudget float64
	for _, rec := range recs {
		if rec.Task != nil {
			envBudget = rec.Task.Budget
		}
	}
	if envBudget != caseBudget {
		t.Errorf("journaled envelope budget = %v, want %v", envBudget, caseBudget)
	}
	raw, _, found, err := env2.Services.Storage.Get(coordination.CheckpointKey("B-run"), 0)
	if err != nil || !found {
		t.Fatalf("checkpoint missing from crash image (err=%v)", err)
	}
	var cp coordination.CheckpointData
	if err := json.Unmarshal(raw, &cp); err != nil {
		t.Fatal(err)
	}
	if cp.Cost <= 0 {
		t.Fatalf("checkpointed spend = %v, want > 0 (batch one was charged)", cp.Cost)
	}
	if cp.Budget != caseBudget {
		t.Errorf("checkpointed budget = %v, want %v", cp.Budget, caseBudget)
	}

	report, err := env2.Engine.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Resumed) != 1 || report.Resumed[0] != "B-run" {
		t.Fatalf("recovery report = %+v, want B-run resumed", report)
	}
	st := waitTerminal(t, env2.Engine, "B-run")
	if st.Status != engine.StatusCompleted {
		t.Fatalf("recovered task = %+v, want completed (budget was ample)", st)
	}
	if st.Reason != "" {
		t.Errorf("recovered task reason = %q, want none", st.Reason)
	}
	if st.Budget != caseBudget {
		t.Errorf("recovered status budget = %v, want %v", st.Budget, caseBudget)
	}

	// No double enactment: only the two un-checkpointed activities replay.
	if got, want := calls2.Load(), int64(forkActivities-1); got != want {
		t.Errorf("second-life executions = %d, want %d", got, want)
	}

	// No double charge: a replay that re-charged the checkpointed batch
	// would land a full cp.Cost above the crash-free control run, so the
	// recovered spend must stay within half that of the control figure.
	// (Exact equality is too strict: the resumed batch re-dispatches
	// without batch-one perf history, which can nudge the node choice.)
	if st.Report == nil {
		t.Fatal("recovered task has no report")
	}
	if math.Abs(st.Report.TotalCost-controlCost) > cp.Cost/2 {
		t.Errorf("recovered spend = %v, control spend = %v (checkpointed batch %v double-charged?)",
			st.Report.TotalCost, controlCost, cp.Cost)
	}
	if st.Report.TotalCost <= cp.Cost {
		t.Errorf("recovered spend %v not above checkpointed spend %v (resumed batch uncharged?)",
			st.Report.TotalCost, cp.Cost)
	}
	ts, ok := env2.Engine.Tenant(engine.DefaultTenant)
	if !ok {
		t.Fatal("default tenant unknown")
	}
	if math.Abs(ts.SpentCost-st.Report.TotalCost) > 1e-9 {
		t.Errorf("tenant spent %v, want exactly one accrual of %v", ts.SpentCost, st.Report.TotalCost)
	}

	// The journal collapses to one completed snapshot, like any other task.
	recs, err = engine.ReadJournal(env2.Services.Storage, "B-run")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Event != engine.EventSnapshot || recs[0].Status != engine.StatusCompleted {
		t.Errorf("journal = %+v, want one completed snapshot", recs)
	}
}
