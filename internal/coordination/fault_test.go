package coordination

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/services"
	"repro/internal/telemetry"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// TestBackoffDeterminism checks the backoff schedule: exponential doubling
// from the base, capped, jittered into [0.5, 1.0) of the nominal wait — and
// byte-for-byte reproducible from the policy seed.
func TestBackoffDeterminism(t *testing.T) {
	cases := []struct {
		name     string
		policy   Policy
		attempts int
	}{
		{"default cap", Policy{BackoffBase: 10, BackoffCap: DefaultBackoffCap, Seed: 1}, 8},
		{"tight cap", Policy{BackoffBase: 10, BackoffCap: 25, Seed: 2}, 6},
		{"base above cap", Policy{BackoffBase: 50, BackoffCap: 20, Seed: 3}, 4},
		{"sub-second base", Policy{BackoffBase: 0.25, BackoffCap: 2, Seed: 4}, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sequence := func(visit int) []float64 {
				rng := tc.policy.retryStream("ACT", visit)
				var out []float64
				for a := 1; a <= tc.attempts; a++ {
					out = append(out, tc.policy.backoff(a, rng))
				}
				return out
			}
			first, second := sequence(1), sequence(1)
			nominal := tc.policy.BackoffBase
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("attempt %d: %g != %g (same seed diverged)", i+1, first[i], second[i])
				}
				n := nominal
				if n > tc.policy.BackoffCap {
					n = tc.policy.BackoffCap
				}
				if first[i] < n/2 || first[i] >= n {
					t.Errorf("attempt %d: wait %g outside [%g, %g)", i+1, first[i], n/2, n)
				}
				nominal *= 2
			}
			if other := sequence(2); other[0] == first[0] && other[1] == first[1] {
				t.Error("different visits produced identical jitter")
			}
		})
	}
}

// TestRetryAlternateCandidate injects a 100% failure rate on the node that
// matchmaking ranks first: every activity with two providers fails there
// once, backs off, and succeeds on the alternate candidate — no re-planning.
func TestRetryAlternateCandidate(t *testing.T) {
	e := newEnv(t, false)
	// cluster-1 scores highest (speed 1 / cost 0.01) but faults every run.
	if err := e.grid.SetFaults(&grid.FaultSpec{Seed: 1, Nodes: []string{"cluster-1"}, FailureRate: 1}); err != nil {
		t.Fatal(err)
	}
	report, err := e.coord.RunTaskContext(context.Background(), virolab.Task(),
		&Policy{BackoffBase: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed || report.Executed != 17 {
		t.Fatalf("completed=%v executed=%d", report.Completed, report.Executed)
	}
	if report.Replans != 0 {
		t.Errorf("replans = %d, want 0 (retries alone must recover)", report.Replans)
	}
	if report.Retries == 0 || report.Retries != report.Failures {
		t.Errorf("retries = %d, failures = %d; every failure should have been retried", report.Retries, report.Failures)
	}
	if report.BackoffWait <= 0 {
		t.Error("no simulated backoff accumulated")
	}
	if n := countTrace(report, "retry", ""); n != report.Retries {
		t.Errorf("retry trace events = %d, want %d", n, report.Retries)
	}
	// POD has both providers: its first dispatch goes to the doomed
	// ac-backup (cluster-1), the retry to ac-main.
	var podDispatches []string
	for _, ev := range report.Trace {
		if ev.Kind == "dispatch" && ev.Activity == "POD" {
			podDispatches = append(podDispatches, ev.Detail)
		}
	}
	if len(podDispatches) != 2 || podDispatches[0] != "ac-backup" || podDispatches[1] != "ac-main" {
		t.Errorf("POD dispatches = %v, want [ac-backup ac-main]", podDispatches)
	}
	if report.Policy.MaxRetries != 3 || report.Policy.BackoffCap != DefaultBackoffCap {
		t.Errorf("resolved policy = %+v", report.Policy)
	}
}

// TestRetriesExhaustedReplanCompletes makes the only P3DR provider fail
// every attempt: the retry budget runs out, the node is quarantined through
// the monitoring service, and the Figure-3 re-plan routes the reconstruction
// onto P3DRALT — the task still completes.
func TestRetriesExhaustedReplanCompletes(t *testing.T) {
	tel := telemetry.New()
	e := newEnvWith(t, false, func(cfg *Config) { cfg.Telemetry = tel })
	e.core.Monitoring.Telemetry = tel
	if err := e.grid.SetFaults(&grid.FaultSpec{Seed: 5, Nodes: []string{"smp-1"}, FailureRate: 1}); err != nil {
		t.Fatal(err)
	}
	report, err := e.coord.RunTaskContext(context.Background(), virolab.Task(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed {
		t.Fatalf("degraded-grid task did not complete: %+v", report)
	}
	if report.Replans == 0 {
		t.Fatal("expected a re-plan after retries exhausted")
	}
	if report.Retries == 0 {
		t.Error("expected retries before giving up")
	}
	if e.grid.Node("smp-1").Up() {
		t.Error("smp-1 not quarantined")
	}
	if h := e.core.Monitoring.NodeHealth("smp-1"); h.Status != services.HealthQuarantined {
		t.Errorf("smp-1 health = %+v, want quarantined", h)
	}
	if n := countTrace(report, "fault", ""); n == 0 {
		t.Error("no fault trace events")
	}
	// After the re-plan nothing may be dispatched to the quarantined node's
	// container.
	afterReplan := false
	for _, ev := range report.Trace {
		if ev.Kind == "replan" {
			afterReplan = true
		}
		if afterReplan && ev.Kind == "dispatch" && ev.Detail == "ac-main" {
			t.Fatalf("dispatch to quarantined ac-main after re-plan: %+v", ev)
		}
	}
	if got := tel.Counter("coordination.replans.fault").Value(); got < 1 {
		t.Errorf("coordination.replans.fault = %d", got)
	}
	if got := tel.Counter("coordination.retries").Value(); got == 0 {
		t.Error("coordination.retries not recorded")
	}
	if got := tel.Counter("monitoring.quarantines").Value(); got < 1 {
		t.Errorf("monitoring.quarantines = %d", got)
	}
}

// TestCancellationBeforeStart submits with an already-cancelled context.
func TestCancellationBeforeStart(t *testing.T) {
	tel := telemetry.New()
	e := newEnvWith(t, false, func(cfg *Config) { cfg.Telemetry = tel })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := e.coord.RunTaskContext(ctx, virolab.Task(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if report == nil || !report.Cancelled || report.Executed != 0 {
		t.Fatalf("report = %+v", report)
	}
	if countTrace(report, "cancel", "") != 1 {
		t.Error("no cancel trace event")
	}
	if got := tel.Counter("coordination.tasks.cancelled").Value(); got != 1 {
		t.Errorf("coordination.tasks.cancelled = %d", got)
	}
}

// TestCancellationMidEnactment cancels from the steering hook after the
// first executed activity: the enactment unwinds between batches, reporting
// partial progress and Cancelled.
func TestCancellationMidEnactment(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := newEnvWith(t, false, func(cfg *Config) {
		orig := cfg.PostProcess
		cfg.PostProcess = func(act *workflow.Activity, produced []*workflow.DataItem, visit int) {
			orig(act, produced, visit)
			cancel()
		}
	})
	report, err := e.coord.RunTaskContext(ctx, virolab.Task(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !report.Cancelled {
		t.Fatal("report not marked cancelled")
	}
	if report.Executed < 1 || report.Executed >= 17 {
		t.Fatalf("executed = %d, want partial progress", report.Executed)
	}
	if report.Completed {
		t.Fatal("cancelled task marked completed")
	}
}

// TestChaosVirolabFaultInjection is the acceptance scenario: a seeded 20%
// injected failure rate with crash-on-fault on the node hosting the only
// P3DR provider. The first reconstruction crashes the node mid-execution;
// retries back off, exhaust, the node is quarantined, and the Figure-3
// re-plan finishes the workflow on the surviving domain. Two fresh runs with
// the same seeds must agree on every aggregate.
func TestChaosVirolabFaultInjection(t *testing.T) {
	run := func() (*Report, *env, *telemetry.Registry) {
		tel := telemetry.New()
		e := newEnvWith(t, false, func(cfg *Config) { cfg.Telemetry = tel })
		e.core.Monitoring.Telemetry = tel
		// Fault seed 2 makes the first injected draw on smp-1 fall under
		// 0.2, so the crash strikes the first reconstruction deterministically.
		if err := e.grid.SetFaults(&grid.FaultSpec{Seed: 2, Nodes: []string{"smp-1"}, FailureRate: 0.2, CrashRate: 1}); err != nil {
			t.Fatal(err)
		}
		report, err := e.coord.RunTaskContext(context.Background(), virolab.Task(),
			&Policy{BackoffBase: 5, Seed: 99})
		if err != nil {
			t.Fatalf("chaos run failed: %v", err)
		}
		return report, e, tel
	}

	report, e, tel := run()
	if !report.Completed {
		t.Fatalf("chaos run did not complete: %+v", report)
	}
	for _, n := range e.grid.Nodes() {
		if n.Up() == (n.ID == "smp-1") {
			t.Fatalf("node %s up=%v: want only smp-1 crashed", n.ID, n.Up())
		}
	}
	if report.Replans == 0 || report.Retries == 0 || report.Faults == 0 || report.BackoffWait <= 0 {
		t.Fatalf("replans=%d retries=%d faults=%d backoff=%g — fault path not exercised",
			report.Replans, report.Retries, report.Faults, report.BackoffWait)
	}
	for _, kind := range []string{"retry", "fault", "replan"} {
		if countTrace(report, kind, "") == 0 {
			t.Errorf("no %q trace events", kind)
		}
	}
	// The crashed node is out of the schedule after the re-plan.
	afterReplan := false
	for _, ev := range report.Trace {
		if ev.Kind == "replan" {
			afterReplan = true
		}
		if afterReplan && (ev.Kind == "dispatch" || ev.Kind == "complete") && strings.Contains(ev.Detail, "ac-main") {
			t.Fatalf("crashed node scheduled after re-plan: %+v", ev)
		}
	}
	if h := e.core.Monitoring.NodeHealth("smp-1"); h.Status != services.HealthQuarantined {
		t.Errorf("smp-1 health = %q, want quarantined", h.Status)
	}
	if got := tel.Counter("coordination.replans.fault").Value(); got != 1 {
		t.Errorf("coordination.replans.fault = %d", got)
	}
	// The alternate reconstruction service carried the workflow to the goal.
	usedAlt := false
	for _, ev := range report.Trace {
		if ev.Kind == "complete" && strings.Contains(ev.Activity, "P3DRALT") {
			usedAlt = true
		}
	}
	if !usedAlt {
		t.Error("P3DRALT never completed after the crash")
	}

	// Determinism: a second fresh environment with the same seeds agrees on
	// every aggregate.
	again, _, _ := run()
	if report.Executed != again.Executed || report.Failures != again.Failures ||
		report.Retries != again.Retries || report.Faults != again.Faults ||
		report.Replans != again.Replans || report.BackoffWait != again.BackoffWait ||
		report.SimulatedTime != again.SimulatedTime || report.WallClockTime != again.WallClockTime ||
		report.TotalCost != again.TotalCost {
		t.Fatalf("same-seed chaos runs diverged:\n1: %+v\n2: %+v", summary(report), summary(again))
	}
}

func summary(r *Report) map[string]float64 {
	return map[string]float64{
		"executed": float64(r.Executed), "failures": float64(r.Failures),
		"retries": float64(r.Retries), "faults": float64(r.Faults),
		"replans": float64(r.Replans), "backoff": r.BackoffWait,
		"simTime": r.SimulatedTime, "wall": r.WallClockTime, "cost": r.TotalCost,
	}
}
