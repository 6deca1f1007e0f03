package coordination

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/agent"
	"repro/internal/expr"
	"repro/internal/grid"
	"repro/internal/planner"
	"repro/internal/planning"
	"repro/internal/services"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// env is a full environment: grid, core services, planning, coordination.
type env struct {
	platform *agent.Platform
	grid     *grid.Grid
	core     *services.Core
	coord    *Coordinator
}

// newEnv builds a reliable two-domain grid offering all virolab services
// plus a backup reconstruction service P3DRALT (used by the re-planning
// scenario).
func newEnv(t *testing.T, checkpoint bool) *env {
	return newEnvWith(t, checkpoint, nil)
}

// newEnvWith is newEnv with a coordinator-config hook applied before New;
// the fault-tolerance tests use it to wire telemetry and custom hooks.
func newEnvWith(t *testing.T, checkpoint bool, mod func(*Config)) *env {
	t.Helper()
	g := grid.New(5)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddNode(&grid.Node{
		ID: "cluster-1", Domain: "ucf.edu",
		Hardware:   grid.Hardware{Type: "PC-cluster", Speed: 1, BandwidthMbps: 1000, LatencyUs: 100},
		CostPerSec: 0.01,
	}))
	must(g.AddNode(&grid.Node{
		ID: "smp-1", Domain: "purdue.edu",
		Hardware:   grid.Hardware{Type: "SMP", Speed: 2, BandwidthMbps: 1000, LatencyUs: 10},
		CostPerSec: 0.04,
	}))
	must(g.AddContainer(&grid.Container{
		ID: "ac-main", NodeID: "smp-1",
		Services: []string{"POD", "P3DR", "POR", "PSF"},
	}))
	must(g.AddContainer(&grid.Container{
		ID: "ac-backup", NodeID: "cluster-1",
		Services: []string{"POD", "POR", "PSF", "P3DRALT"},
	}))

	p := agent.NewPlatform()
	core, err := services.Bootstrap(p, g, nil)
	must(err)

	catalog := virolab.Catalog()
	// P3DRALT: an alternative reconstruction program with the same pre- and
	// postconditions as P3DR, hosted only on the backup container.
	p3dr := catalog.Get("P3DR")
	catalog.Add(&workflow.Service{
		Name:     "P3DRALT",
		Inputs:   p3dr.Inputs,
		Outputs:  p3dr.Outputs,
		BaseTime: p3dr.BaseTime * 1.5,
		Cost:     p3dr.Cost,
	})

	params := planner.DefaultParams()
	params.PopulationSize = 120
	params.Generations = 15
	params.Seed = 7
	ps, err := planner.NewService(planner.ServiceConfig{Catalog: catalog, Params: params})
	must(err)
	t.Cleanup(ps.Close)
	_, err = p.Register(services.PlanningName, planning.New(catalog, params, ps))
	must(err)

	cfg := Config{
		Platform:    p,
		Catalog:     catalog,
		Matchmaking: core.Matchmaking,
		Brokerage:   core.Brokerage,
		Containers:  core.Containers,
		PostProcess: virolab.ResolutionHook(nil),
		Checkpoint:  checkpoint,
	}
	if mod != nil {
		mod(&cfg)
	}
	coord, err := New(cfg)
	must(err)
	t.Cleanup(p.Shutdown)
	return &env{platform: p, grid: g, core: core, coord: coord}
}

func countTrace(report *Report, kind, activity string) int {
	n := 0
	for _, e := range report.Trace {
		if e.Kind == kind && (activity == "" || e.Activity == activity) {
			n++
		}
	}
	return n
}

// TestFig10Enactment enacts the full case-study workflow: the iterative
// refinement loops until the resolution reaches 8 Angstrom (three PSF
// passes with the default schedule).
func TestFig10Enactment(t *testing.T) {
	e := newEnv(t, false)
	report, err := e.coord.RunTaskContext(context.Background(), virolab.Task(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed || report.GoalFitness < 1 {
		t.Fatalf("not completed: %+v", report)
	}
	// POD + P3DR1 + 3 iterations x (POR + P3DR2 + P3DR3 + P3DR4 + PSF).
	if report.Executed != 17 {
		t.Errorf("executed = %d, want 17", report.Executed)
	}
	if got := countTrace(report, "complete", "PSF"); got != 3 {
		t.Errorf("PSF completions = %d, want 3", got)
	}
	if got := countTrace(report, "complete", "POR"); got != 3 {
		t.Errorf("POR completions = %d, want 3", got)
	}
	d12 := report.FinalState.Get("D12")
	if d12 == nil {
		t.Fatal("D12 missing from final state")
	}
	if v, _ := d12.Prop(workflow.PropValue); v.Str() != "7.8" {
		t.Errorf("final resolution = %v, want 7.8", v)
	}
	if report.SimulatedTime <= 0 || report.TotalCost <= 0 {
		t.Errorf("accounting: time=%g cost=%g", report.SimulatedTime, report.TotalCost)
	}
	if report.Replans != 0 {
		t.Errorf("replans = %d, want 0", report.Replans)
	}
	// The orientation file D8 was refined by POR (creator changed).
	d8 := report.FinalState.Get("D8")
	if d8 == nil {
		t.Fatal("D8 missing")
	}
	if creator, _ := d8.Prop(workflow.PropCreator); creator.Str() != "POR" {
		t.Errorf("D8 creator = %v, want POR (refined)", creator)
	}
}

// recordFlow records every message the platform delivers or replies as
// "sender>receiver content-type", in the order the platform sends them.
func recordFlow(p *agent.Platform) func() []string {
	var mu sync.Mutex
	var flow []string
	p.SetTrace(func(m agent.Message) {
		mu.Lock()
		flow = append(flow, fmt.Sprintf("%s>%s %T", m.Sender, m.Receiver, m.Content))
		mu.Unlock()
	})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(flow)
	}
}

// checkFlow asserts got is exactly the concatenation of want's groups: the
// groups in order, the messages inside one group in any order.
func checkFlow(t *testing.T, got []string, want ...[]string) {
	t.Helper()
	sorted := func(s []string) []string {
		s = slices.Clone(s)
		slices.Sort(s)
		return s
	}
	var norm, exp []string
	for _, group := range want {
		n := min(len(group), len(got)-len(norm))
		norm = append(norm, sorted(got[len(norm):len(norm)+n])...)
		exp = append(exp, sorted(group)...)
	}
	norm = append(norm, got[len(norm):]...)
	if !slices.Equal(norm, exp) {
		t.Errorf("message flow:\n got %q\nwant %q", got, want)
	}
}

// TestFig2PlanningFlow submits a task without a process description: the
// coordination service asks the planning service for one (Figure 2) and
// enacts the result. The planned enactment itself sends no message.
func TestFig2PlanningFlow(t *testing.T) {
	e := newEnv(t, false)
	flow := recordFlow(e.platform)
	task := &workflow.Task{
		ID:           "T2",
		Name:         "planned-3DSD",
		Case:         virolab.Case(),
		NeedPlanning: true,
	}
	report, err := e.coord.RunTaskContext(context.Background(), task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed {
		t.Fatalf("planned task not completed: %+v", report.Trace)
	}
	if countTrace(report, "plan-request", "") != 1 || countTrace(report, "plan-received", "") != 1 {
		t.Errorf("planning trace missing: %+v", report.Trace)
	}
	checkFlow(t, flow(),
		// 1. the planning task specification
		[]string{"coordination>planning planning.PlanRequest"},
		// 2. the process description
		[]string{"planning>coordination planning.PlanReply"},
	)
}

// TestFig3ReplanningFlow fails the only P3DR provider mid-environment: the
// coordinator detects the non-executable activity, the planning service
// verifies executability through brokerage and containers (Figure 3), and
// the new plan uses the backup service P3DRALT.
func TestFig3ReplanningFlow(t *testing.T) {
	e := newEnv(t, false)
	flow := recordFlow(e.platform)

	// The P3DR provider node goes down before the run. The brokerage
	// snapshot still lists it (stale information, as in the paper); the
	// planning service must discover non-executability by probing.
	if err := e.grid.SetNodeUp("smp-1", false); err != nil {
		t.Fatal(err)
	}

	report, err := e.coord.RunTaskContext(context.Background(), virolab.Task(), nil)
	if err != nil {
		t.Fatalf("err=%v trace=%+v", err, report)
	}
	if !report.Completed {
		t.Fatalf("not completed after re-planning: %+v", report.Trace)
	}
	if report.Replans != 1 {
		t.Errorf("replans = %d, want 1", report.Replans)
	}
	// The first enactment fails P3DR by call, without a message; the
	// re-planned one runs by call too. So the flow is the eight steps of
	// Figure 3, plus the probed container's heartbeat to monitoring.
	checkFlow(t, flow(),
		// 1. task specification with the non-executable activity
		[]string{"coordination>planning planning.PlanRequest"},
		// 2-3. which agent is the brokerage service?
		[]string{"planning>information services.LookupRequest"},
		[]string{"information>planning services.LookupReply"},
		// 4-5. which application containers offer P3DR? (the stale list)
		[]string{"planning>brokerage services.ContainersRequest"},
		[]string{"brokerage>planning services.ContainersReply"},
		// 6. is P3DR executable on ac-main?
		[]string{"planning>ac-main services.AvailabilityRequest"},
		// 7. not executable. The heartbeat is a best-effort liveness signal
		// outside the paper's protocol: the reply does not wait on it, so
		// which of the two the container sends first is not pinned.
		[]string{"ac-main>monitoring services.Heartbeat", "ac-main>planning services.AvailabilityReply"},
		// 8. the new process description, which avoids P3DR
		[]string{"planning>coordination planning.PlanReply"},
	)
	// The alternative service carried the reconstruction.
	usedAlt := false
	for _, ev := range report.Trace {
		if ev.Kind == "complete" && strings.Contains(ev.Activity, "P3DRALT") {
			usedAlt = true
		}
	}
	if !usedAlt {
		t.Errorf("P3DRALT never executed; trace: %+v", report.Trace)
	}
}

// TestReplanningBudgetExhausted removes every reconstruction path: the task
// must fail with a clear error instead of looping.
func TestReplanningBudgetExhausted(t *testing.T) {
	e := newEnv(t, false)
	_ = e.grid.SetNodeUp("smp-1", false)
	_ = e.grid.SetNodeUp("cluster-1", false)
	_, err := e.coord.RunTaskContext(context.Background(), virolab.Task(), nil)
	if err == nil {
		t.Fatal("task with no resources succeeded")
	}
}

// TestCheckpointing verifies a checkpoint is written per completed activity
// and that the final one restores the final data state.
func TestCheckpointing(t *testing.T) {
	e := newEnv(t, true)
	report, err := e.coord.RunTaskContext(context.Background(), virolab.Task(), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := LoadCheckpointVersion(e.core.Storage, "T1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Executed != report.Executed {
		t.Errorf("checkpoint executed = %d, want %d", snap.Executed, report.Executed)
	}
	st := snap.RestoreState()
	if got, want := len(st.Names()), len(report.FinalState.Names()); got != want {
		t.Errorf("restored items = %d, want %d", got, want)
	}
	d12 := st.Get("D12")
	if d12 == nil || d12.Classification() != "Resolution File" {
		t.Fatalf("restored D12 = %v", d12)
	}
	if v, _ := d12.Prop(workflow.PropValue); v.Str() != "7.8" {
		t.Errorf("restored resolution = %v", v)
	}
	// One checkpoint per dispatch batch: Fig 10 has POD, P3DR1, then three
	// iterations of (POR, the concurrent P3DR trio, PSF) = 2 + 3x3 = 11.
	_, ver, found, _ := e.core.Storage.Get(CheckpointKey("T1"), 0)
	if !found || ver != 11 {
		t.Errorf("checkpoint versions = %d (found=%v), want 11", ver, found)
	}
	// Missing checkpoint errors.
	if _, err := LoadCheckpointVersion(e.core.Storage, "ghost", 0); err == nil {
		t.Error("ghost checkpoint loaded")
	}
}

// TestRetryOnFlakyNode gives the best node a high failure rate: executions
// fail there and the coordinator retries on the backup container without
// re-planning.
func TestRetryOnFlakyNode(t *testing.T) {
	e := newEnv(t, false)
	e.grid.Node("smp-1").FailureRate = 1.0 // every execution fails
	report, err := e.coord.RunTaskContext(context.Background(), virolab.Task(), nil)
	if err != nil {
		t.Fatalf("err=%v", err)
	}
	// P3DR only exists on the flaky node, so the coordinator re-plans onto
	// P3DRALT; POD/POR/PSF fall back to the healthy container directly.
	if !report.Completed {
		t.Fatalf("not completed: %+v", report.Trace)
	}
	if report.Failures == 0 {
		t.Error("expected recorded failures on the flaky node")
	}
}

func TestRunTaskValidation(t *testing.T) {
	e := newEnv(t, false)
	if _, err := e.coord.RunTaskContext(context.Background(), &workflow.Task{ID: ""}, nil); err == nil {
		t.Error("invalid task accepted")
	}
}

// TestCoordinatorRefusesMessages pins that the coordinator's agent serves no
// protocol: tasks arrive by method call, so a task or anything else sent as a
// message is refused rather than left to time out.
func TestCoordinatorRefusesMessages(t *testing.T) {
	e := newEnv(t, false)
	client, err := e.platform.Register("ui", agent.HandlerFunc(func(*agent.Context, agent.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	for _, content := range []any{virolab.Task(), 42} {
		reply, err := client.Call(services.CoordinationName, "grid-coordination", content, services.CallTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Performative != agent.Refuse {
			t.Errorf("%T content performative = %v, want refuse", content, reply.Performative)
		}
	}
}

func TestDecideConstraintPath(t *testing.T) {
	// A Choice with an activity-level constraint but unconditioned
	// transitions (the Figure 13 "Constraint" style) picks the first
	// successor while the constraint holds, the last when it fails.
	report, err := runConstraintLoop(t, []float64{1, 1, 0}) // loop twice, then exit
	if err != nil {
		t.Fatal(err)
	}
	if got := countTrace(report, "complete", "PSFX"); got != 3 {
		t.Errorf("PSFX completions = %d, want 3 (loop twice + exit pass)", got)
	}
}

// TestMaxFiresStopsLivelock loops the same Choice on a constraint that never
// turns false: the token game must stop at the firing bound with an error,
// not spin.
func TestMaxFiresStopsLivelock(t *testing.T) {
	report, err := runConstraintLoop(t, []float64{1})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("exceeded %d activity firings", maxFires)) {
		t.Fatalf("err = %v, want the firing-bound error", err)
	}
	if report == nil {
		t.Fatal("no report")
	}
	if report.Completed || report.Fired != maxFires {
		t.Errorf("completed=%v fired=%d, want incomplete with %d firings", report.Completed, report.Fired, maxFires)
	}
}

// runConstraintLoop enacts BEGIN, POD, {MERGE, PSFX, CHOICE} looping while
// the CHOICE's constraint DX.marker = 1 holds, END; PSFX's visit v stamps
// marker[v-1] (the last entry repeating).
func runConstraintLoop(t *testing.T, marker []float64) (*Report, error) {
	t.Helper()
	e := newEnv(t, false)
	pd := workflow.NewProcess("constraint-choice")
	pd.Add(&workflow.Activity{ID: "b", Kind: workflow.KindBegin, Name: "BEGIN"})
	pd.Add(&workflow.Activity{ID: "pod", Kind: workflow.KindEndUser, Name: "POD", Service: "POD", Outputs: []string{"D8"}})
	pd.Add(&workflow.Activity{ID: "m", Kind: workflow.KindMerge, Name: "MERGE"})
	pd.Add(&workflow.Activity{ID: "psf", Kind: workflow.KindEndUser, Name: "PSFX", Service: "POD", Outputs: []string{"DX"}})
	pd.Add(&workflow.Activity{ID: "c", Kind: workflow.KindChoice, Name: "CHOICE",
		Constraint: `DX.marker = 1`})
	pd.Add(&workflow.Activity{ID: "e", Kind: workflow.KindEnd, Name: "END"})
	pd.Connect("b", "pod")
	pd.Connect("pod", "m")
	pd.Connect("m", "psf")
	pd.Connect("psf", "c")
	pd.Connect("c", "m") // loop while constraint true
	pd.Connect("c", "e")
	if err := pd.Validate(); err != nil {
		t.Fatal(err)
	}

	coordCfg := e.coord.cfg
	coordCfg.PostProcess = func(act *workflow.Activity, produced []*workflow.DataItem, visit int) {
		if act.Name != "PSFX" {
			return
		}
		idx := visit - 1
		if idx >= len(marker) {
			idx = len(marker) - 1
		}
		for _, it := range produced {
			it.With("marker", expr.Number(marker[idx]))
		}
	}
	c2 := &Coordinator{cfg: coordCfg, ctx: e.coord.ctx}
	task := &workflow.Task{
		ID:      "TC",
		Name:    "constraint",
		Process: pd,
		Case:    virolab.Case(),
	}
	return c2.RunTaskContext(context.Background(), task, nil)
}

// TestResumeFromMidwayCheckpoint runs the case study to completion (writing
// a checkpoint per dispatch batch), then for EVERY checkpoint version crashes
// an identical run right after that checkpoint and resumes it on a
// coordinator that has never matched — what a restarted process is: the
// resumed run must finish the remaining work exactly. The matchmaker's first
// choice faults (and eventually crashes), so the uninterrupted run
// accumulates failures, retries, faults and backoff; a resumed report must
// carry the checkpointed share of each and end on the same totals. The
// checkpoint gives the first half of that equality; the second half is that
// placement reads nothing the coordinator remembers — the grid (the crashed
// node stays down) and the brokerage's history are all it ranks by.
func TestResumeFromMidwayCheckpoint(t *testing.T) {
	faults := &grid.FaultSpec{Seed: 4, Nodes: []string{"cluster-1"}, FailureRate: 1, CrashRate: 0.2}
	pol := &Policy{BackoffBase: 10, Seed: 42}
	// crashAt, when > 0, cancels the enactment as soon as that checkpoint
	// version is stored: what a kill -9 right after the write leaves behind.
	run := func(crashAt int) (*env, *Report, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		e := newEnvWith(t, true, func(cfg *Config) {
			cfg.onCheckpoint = func(_ string, version int) {
				if version == crashAt {
					cancel()
				}
			}
		})
		if err := e.grid.SetFaults(faults); err != nil {
			t.Fatal(err)
		}
		report, err := e.coord.RunTaskContext(ctx, virolab.Task(), pol)
		return e, report, err
	}
	e, full, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Executed != 17 {
		t.Fatalf("full run executed %d, want 17", full.Executed)
	}
	if full.Retries == 0 || full.Faults == 0 || full.BackoffWait <= 0 {
		t.Fatalf("seeded faults produced retries=%d faults=%d backoff=%g; the resume check needs all > 0",
			full.Retries, full.Faults, full.BackoffWait)
	}
	_, latest, found, _ := e.core.Storage.Get(CheckpointKey("T1"), 0)
	if !found || latest < 3 {
		t.Fatalf("latest checkpoint version = %d", latest)
	}
	for version := 1; version <= latest; version++ {
		e, crashed, err := run(version)
		if version < latest && (err == nil || !crashed.Cancelled) {
			t.Fatalf("run crashed at v%d: err=%v report=%+v", version, err, crashed)
		}
		snap, err := LoadCheckpointVersion(e.core.Storage, "T1", 0)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Executed < version {
			t.Fatalf("snapshot v%d has executed=%d (< version)", version, snap.Executed)
		}
		cold := &Coordinator{cfg: e.coord.cfg, ctx: e.coord.ctx}
		report, err := cold.ResumeContext(context.Background(), snap, pol)
		if err != nil {
			t.Fatalf("resume from v%d: %v", version, err)
		}
		if !report.Completed {
			t.Errorf("resume from v%d did not complete", version)
		}
		if report.Executed != 17 {
			t.Errorf("resume from v%d: total executed = %d, want 17 (%d checkpointed)",
				version, report.Executed, snap.Executed)
		}
		if report.Failures != full.Failures || report.Retries != full.Retries || report.Faults != full.Faults {
			t.Errorf("resume from v%d: failures/retries/faults = %d/%d/%d, uninterrupted run %d/%d/%d",
				version, report.Failures, report.Retries, report.Faults, full.Failures, full.Retries, full.Faults)
		}
		if math.Abs(report.BackoffWait-full.BackoffWait) > 1e-9 || math.Abs(report.WallClockTime-full.WallClockTime) > 1e-6 {
			t.Errorf("resume from v%d: backoff/wall = %g/%g, uninterrupted run %g/%g",
				version, report.BackoffWait, report.WallClockTime, full.BackoffWait, full.WallClockTime)
		}
		d12 := report.FinalState.Get("D12")
		if v, _ := d12.Prop(workflow.PropValue); v.Str() != "7.8" {
			t.Errorf("resume from v%d: resolution %v", version, v)
		}
	}
}

// TestResumeTaskViaStorageService resumes from the latest checkpoint the
// storage service holds.
func TestResumeTaskViaStorageService(t *testing.T) {
	e := newEnv(t, true)
	if _, err := e.coord.RunTaskContext(context.Background(), virolab.Task(), nil); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadCheckpointVersion(e.core.Storage, "T1", 0)
	if err != nil {
		t.Fatal(err)
	}
	report, err := e.coord.ResumeContext(context.Background(), snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The final checkpoint was written right after PSF's third run, with
	// CHOICE pending; resuming fires CHOICE then END only.
	if !report.Completed {
		t.Errorf("resumed report: %+v", report)
	}
	if report.Executed != 17 {
		t.Errorf("resume re-ran activities: executed=%d", report.Executed)
	}
}

// TestResumeSurvivesProviderLoss resumes a checkpoint after the preferred
// provider disappeared: the resumed enactment re-plans and still finishes.
func TestResumeSurvivesProviderLoss(t *testing.T) {
	e := newEnv(t, true)
	if _, err := e.coord.RunTaskContext(context.Background(), virolab.Task(), nil); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadCheckpointVersion(e.core.Storage, "T1", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the only P3DR provider before resuming.
	_ = e.grid.SetNodeUp("smp-1", false)
	report, err := e.coord.ResumeContext(context.Background(), snap, nil)
	if err != nil {
		t.Fatalf("resume: %v (trace %+v)", err, report)
	}
	if !report.Completed {
		t.Fatalf("resumed run incomplete: %+v", report.Trace)
	}
	if report.Replans < 1 {
		t.Error("expected a re-plan during the resumed run")
	}
}

// TestChaosChurn submits a stream of tasks while nodes randomly fail and
// recover between them. As long as some provider exists for each service
// (the backup container covers everything via P3DRALT), every task must
// eventually complete, re-planning as needed.
func TestChaosChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	e := newEnv(t, false)
	rng := rand.New(rand.NewSource(99))
	completed, replans := 0, 0
	for i := 0; i < 8; i++ {
		// Random churn: each node independently up/down, but never both down.
		smpUp := rng.Intn(2) == 0
		clusterUp := !smpUp || rng.Intn(2) == 0
		if !smpUp && !clusterUp {
			clusterUp = true
		}
		_ = e.grid.SetNodeUp("smp-1", smpUp)
		_ = e.grid.SetNodeUp("cluster-1", clusterUp)

		task := virolab.Task()
		task.ID = fmt.Sprintf("T-chaos-%d", i)
		report, err := e.coord.RunTaskContext(context.Background(), task, nil)
		if err != nil {
			t.Fatalf("round %d (smp=%v cluster=%v): %v", i, smpUp, clusterUp, err)
		}
		if !report.Completed {
			t.Fatalf("round %d incomplete: %+v", i, report.Trace)
		}
		completed++
		replans += report.Replans
	}
	if completed != 8 {
		t.Errorf("completed = %d/8", completed)
	}
	// At least one round must have needed the re-planning path (smp down).
	if replans == 0 {
		t.Error("chaos never triggered a re-plan; churn too tame")
	}
}

// TestWallClockOverlapsConcurrentBranches verifies the accounting split: the
// three P3DR runs of each Fork overlap on the wall clock, so wall-clock time
// is strictly less than total compute time, and at least as long as the
// longest chain.
func TestWallClockOverlapsConcurrentBranches(t *testing.T) {
	e := newEnv(t, false)
	report, err := e.coord.RunTaskContext(context.Background(), virolab.Task(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.WallClockTime <= 0 {
		t.Fatal("no wall clock recorded")
	}
	if report.WallClockTime >= report.SimulatedTime {
		t.Errorf("wall %.0f >= compute %.0f; concurrent branches did not overlap",
			report.WallClockTime, report.SimulatedTime)
	}
	// Sanity floor: the critical path includes every sequential stage once.
	if report.WallClockTime < report.SimulatedTime/4 {
		t.Errorf("wall %.0f implausibly small vs compute %.0f",
			report.WallClockTime, report.SimulatedTime)
	}
}

// TestSoftDeadline verifies the deadline flag: an impossible deadline is
// flagged (but the enactment still completes); a generous one is not.
func TestSoftDeadline(t *testing.T) {
	e := newEnv(t, false)
	tight := virolab.Task()
	tight.Case.Deadline = 1 // one simulated second: hopeless
	report, err := e.coord.RunTaskContext(context.Background(), tight, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed {
		t.Fatal("soft deadline must not abort the enactment")
	}
	if !report.DeadlineMissed {
		t.Error("1s deadline not flagged")
	}
	if countTrace(report, "deadline", "") != 1 {
		t.Error("deadline trace event missing or duplicated")
	}

	loose := virolab.Task()
	loose.ID = "T-loose"
	loose.Case.Deadline = 1e9
	report, err = e.coord.RunTaskContext(context.Background(), loose, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.DeadlineMissed {
		t.Error("giant deadline flagged")
	}
}

// flakyCheapEnv is the demoted-node fixture of the history-aware dispatch
// tests. Both containers offer POD. The smp advertises a low failure rate
// and a rock-bottom price, so matchmaking ranks it first — but in reality it
// fails (almost) every execution. Only the brokerage's history reveals the
// truth; this is exactly the "proven record of reliability" the paper wants
// brokers to track. run enacts one single-POD case (budget 0 =
// unconstrained).
func flakyCheapEnv(t *testing.T) (run func(id string, budget float64) *Report) {
	e := newEnv(t, false)
	smp := e.grid.Node("smp-1")
	smp.FailureRate = 0.99
	smp.CostPerSec = 0.001
	e.grid.Node("cluster-1").CostPerSec = 10

	goal := `G.Classification = "Orientation File"`
	return func(id string, budget float64) *Report {
		c := workflow.NewCase(id, id).AddData(
			workflow.NewDataItem("D1", "POD-Parameter"),
			workflow.NewDataItem("D7", "2D Image"),
		)
		c.Goal = workflow.NewGoal(goal)
		c.Budget = budget
		pd := workflow.NewProcess(id)
		pd.Add(&workflow.Activity{ID: "b", Kind: workflow.KindBegin, Name: "BEGIN"})
		pd.Add(&workflow.Activity{ID: "p", Kind: workflow.KindEndUser, Name: "POD", Service: "POD"})
		pd.Add(&workflow.Activity{ID: "e", Kind: workflow.KindEnd, Name: "END"})
		pd.Connect("b", "p")
		pd.Connect("p", "e")
		report, err := e.coord.RunTaskContext(context.Background(), &workflow.Task{ID: id, Name: id, Process: pd, Case: c}, nil)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return report
	}
}

// TestHistoryAwareDispatch lets the coordinator learn: the faster node fails
// every execution, so after a few tasks its record in the brokerage demotes
// it and later tasks stop trying it first.
func TestHistoryAwareDispatch(t *testing.T) {
	run := flakyCheapEnv(t)

	// Warm-up rounds accumulate failure history for smp-1 (each run fails
	// there once, then succeeds on the backup).
	early := 0
	for i := 0; i < 4; i++ {
		early += run(fmt.Sprintf("warm-%d", i), 0).Failures
	}
	// The flaky node is tried first until three runs are on record (it may
	// even get lucky once), so at least two warm-up failures accumulate.
	if early < 2 {
		t.Fatalf("warm-up failures = %d; flaky node never tried?", early)
	}
	// With >= 3 recorded failures at 0%% success, the node is demoted: the
	// next runs go straight to the healthy container.
	late := 0
	for i := 0; i < 3; i++ {
		late += run(fmt.Sprintf("learned-%d", i), 0).Failures
	}
	if late != 0 {
		t.Errorf("failures after learning = %d, want 0 (history-aware dispatch)", late)
	}
}

// TestHistoryAwareDispatchConstrained is the same fixture under a budget: a
// constrained case is ranked by estimated cost alone (history enters through
// the ETA inflation, not through demotion), so the near-free flaky node
// stays first however bad its record. The container sequence is the one
// recorded before dispatch ranked either by history or by cost.
func TestHistoryAwareDispatchConstrained(t *testing.T) {
	run := flakyCheapEnv(t)
	var got []string
	for i := 0; i < 7; i++ {
		for _, ev := range run(fmt.Sprintf("budget-%d", i), 1e6).Trace {
			if ev.Kind == "dispatch" {
				got = append(got, ev.Detail)
			}
		}
	}
	want := strings.Fields(strings.Repeat("ac-main ac-backup ", 7))
	if !slices.Equal(got, want) {
		t.Errorf("constrained dispatch sequence\n got %v\nwant %v", got, want)
	}
}

// TestDeadlinePressureDispatch is how a deadline case buys fast machines: a
// slow, cheap cluster container also offers P3DR, so a hard-deadline
// Figure-10 case with time to spare sends P3DR1 there (cheapest feasible
// first), while one whose deadline is 80% gone after POD switches to the
// fastest candidates and sends P3DR1 to the smp's ac-main (earliest ETA).
// Pressure leaves at most a fifth of the deadline, so no P3DR candidate is
// feasible by then either; infeasible candidates rank by ETA too.
func TestDeadlinePressureDispatch(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadline float64
		pressed  bool
		want     string
	}{
		{"relaxed", 1e9, false, "ac-slow"},
		{"pressed", 675, true, "ac-main"}, // POD takes 540-660s on the cluster
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, false)
			if err := e.grid.AddContainer(&grid.Container{ID: "ac-slow", NodeID: "cluster-1", Services: []string{"P3DR"}}); err != nil {
				t.Fatal(err)
			}
			task := virolab.Task()
			task.Case.Deadline, task.Case.HardDeadline = tc.deadline, true
			// The pressed case misses its deadline by design; only the award matters.
			report, _ := e.coord.RunTaskContext(context.Background(), task, nil)
			preempted := false
			for _, ev := range report.Trace {
				preempted = preempted || ev.Kind == "preempt"
				if ev.Kind == "dispatch" && ev.Activity == "P3DR1" {
					if ev.Detail != tc.want || preempted != tc.pressed {
						t.Fatalf("P3DR1 dispatched to %s (preempted=%v), want %s (preempted=%v)", ev.Detail, preempted, tc.want, tc.pressed)
					}
					return
				}
			}
			t.Fatalf("P3DR1 never dispatched: %+v", report.Trace)
		})
	}
}
