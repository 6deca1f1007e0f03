package planner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/plantree"
	"repro/internal/telemetry"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// fastParams converges on the test problem in well under a second.
func fastParams() Params {
	p := DefaultParams()
	p.PopulationSize = 120
	p.Generations = 15
	p.Seed = 7
	return p
}

func newTestService(t *testing.T, cfg ServiceConfig) *Service {
	t.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog = testProblem().Catalog
	}
	if cfg.Params == (Params{}) {
		cfg.Params = fastParams()
	}
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// testSpec is the case-study problem as a PlanSpec.
func testSpec(id string) PlanSpec {
	pr := testProblem()
	return PlanSpec{ID: id, Initial: pr.Initial.Items(), Goal: pr.Goal.Conditions}
}

func TestServiceLifecycle(t *testing.T) {
	s := newTestService(t, ServiceConfig{workers: 2})
	ctx := context.Background()

	st, err := s.Submit(ctx, testSpec("p1"))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "p1" || st.Status.Terminal() {
		t.Fatalf("fresh submit = %+v", st)
	}
	final, err := s.Wait(ctx, "p1")
	if err != nil || final.Status != StatusSucceeded {
		t.Fatalf("wait = %+v, %v", final, err)
	}
	if final.PDL == "" || !strings.Contains(final.PDL, "BEGIN") {
		t.Errorf("succeeded plan has no PDL: %q", final.PDL)
	}
	if final.Eval.FV < 1 || final.Eval.FG < 1 {
		t.Errorf("plan not perfect: fv=%g fg=%g", final.Eval.FV, final.Eval.FG)
	}
	if final.Evaluations == 0 || final.Generations == 0 || final.Started.IsZero() || final.Finished.IsZero() {
		t.Errorf("missing run accounting: %+v", final)
	}

	if got, err := s.Get("p1"); err != nil || got.Status != StatusSucceeded {
		t.Errorf("get = %+v, %v", got, err)
	}
	if _, err := s.Get("ghost"); !errors.Is(err, ErrUnknownPlan) {
		t.Errorf("ghost get err = %v", err)
	}
	if list := s.List(); len(list) != 1 || list[0].ID != "p1" {
		t.Errorf("list = %+v", list)
	}
	if _, err := s.Cancel("p1"); !errors.Is(err, ErrPlanFinished) {
		t.Errorf("cancel finished err = %v", err)
	}

	// Malformed cases fail synchronously.
	bad := testSpec("p2")
	bad.Goal = nil
	if _, err := s.Submit(ctx, bad); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("goalless submit err = %v", err)
	}
	bad = testSpec("p3")
	bad.Goal = []string{"not ) an expression ("}
	if _, err := s.Submit(ctx, bad); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("unparsable goal err = %v", err)
	}
	bad = testSpec("p4")
	bad.Excluded = []string{"POD", "P3DR", "POR", "PSF"}
	if _, err := s.Submit(ctx, bad); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("all-excluded submit err = %v", err)
	}
	if _, err := s.Submit(ctx, testSpec("p1")); !errors.Is(err, ErrDuplicatePlan) {
		t.Errorf("duplicate submit err = %v", err)
	}
}

func TestServiceCacheHitIsSynchronousAndFast(t *testing.T) {
	s := newTestService(t, ServiceConfig{workers: 1})
	ctx := context.Background()

	if _, err := s.Submit(ctx, testSpec("cold")); err != nil {
		t.Fatal(err)
	}
	cold, err := s.Wait(ctx, "cold")
	if err != nil || cold.Status != StatusSucceeded {
		t.Fatalf("cold plan = %+v, %v", cold, err)
	}

	// The identical case answers terminally at submit time with the same
	// plan bytes — and fast: 100 warm submits in well under 100ms is the
	// <1ms-per-hit target with slack for a loaded test machine.
	start := time.Now()
	for i := 0; i < 100; i++ {
		warm, err := s.Submit(ctx, testSpec(fmt.Sprintf("warm-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !warm.CacheHit || warm.Status != StatusSucceeded {
			t.Fatalf("warm submit %d not a terminal cache hit: %+v", i, warm)
		}
		if warm.PDL != cold.PDL || warm.Tree != cold.Tree {
			t.Fatalf("warm plan differs from cold plan:\n%s\nvs\n%s", warm.PDL, cold.PDL)
		}
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("100 warm submits took %s, want < 100ms total", elapsed)
	}

	stats := s.Stats()
	if stats.CacheHits != 100 || stats.CacheMisses != 1 {
		t.Errorf("stats = %d hits %d misses, want 100/1", stats.CacheHits, stats.CacheMisses)
	}

	// NoCache bypasses the memo even for a known case.
	st, err := s.Submit(ctx, func() PlanSpec { sp := testSpec("nocache"); sp.NoCache = true; return sp }())
	if err != nil || st.CacheHit {
		t.Fatalf("NoCache submit hit the cache: %+v, %v", st, err)
	}
}

// TestServiceDeterministicAcrossWorkers plans one seeded case at several
// service and evaluation worker counts: parallelism must not change the
// planned result.
func TestServiceDeterministicAcrossWorkers(t *testing.T) {
	var want string
	for _, w := range []struct{ service, eval int }{{1, 1}, {2, 2}, {4, 4}} {
		s := newTestService(t, ServiceConfig{workers: w.service})
		p := fastParams()
		p.EvalWorkers = w.eval
		sp := testSpec("det")
		sp.Params = &p
		sp.NoCache = true
		if _, err := s.Submit(context.Background(), sp); err != nil {
			t.Fatal(err)
		}
		st, err := s.Wait(context.Background(), "det")
		if err != nil || st.Status != StatusSucceeded {
			t.Fatalf("workers %+v: %+v, %v", w, st, err)
		}
		if want == "" {
			want = st.Tree
		} else if st.Tree != want {
			t.Errorf("workers %+v planned a different tree:\n%s\nvs\n%s", w, st.Tree, want)
		}
		s.Close()
	}
}

func TestServiceCancel(t *testing.T) {
	s := newTestService(t, ServiceConfig{workers: 1})
	ctx := context.Background()

	// A big budget keeps the first plan running long enough to cancel; the
	// second sits queued behind it on the single worker.
	big := DefaultParams()
	big.PopulationSize = 400
	big.Generations = 500
	long := testSpec("long")
	long.Params = &big
	long.NoCache = true
	if _, err := s.Submit(ctx, long); err != nil {
		t.Fatal(err)
	}
	queued := testSpec("queued")
	queued.Params = &big
	queued.NoCache = true
	if _, err := s.Submit(ctx, queued); err != nil {
		t.Fatal(err)
	}

	// Cancelling the queued plan settles synchronously.
	st, err := s.Cancel("queued")
	if err != nil || st.Status != StatusCancelled {
		t.Fatalf("cancel queued = %+v, %v", st, err)
	}
	if _, err := s.Cancel("queued"); !errors.Is(err, ErrPlanCancelled) {
		t.Errorf("second cancel err = %v", err)
	}

	// Cancelling the running plan interrupts the GP between generations.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ = s.Get("long")
		if st.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("long plan never started: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Cancel("long"); err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(ctx, "long")
	if err != nil || final.Status != StatusCancelled {
		t.Fatalf("cancelled plan = %+v, %v", final, err)
	}

	stats := s.Stats()
	if stats.Cancelled != 2 {
		t.Errorf("stats.Cancelled = %d, want 2", stats.Cancelled)
	}
}

// TestServiceIncrementalReplan reproduces Figure 3's re-planning loop: a
// verified-unexecutable service invalidates cached plans, and the re-plan
// seeds from the failed plan's neighborhood under the reduced Incremental
// budget — converging on a repaired plan in under 10% of the cold-plan
// evaluation count.
func TestServiceIncrementalReplan(t *testing.T) {
	s := newTestService(t, ServiceConfig{workers: 1})
	ctx := context.Background()

	if _, err := s.Submit(ctx, testSpec("cold")); err != nil {
		t.Fatal(err)
	}
	cold, err := s.Wait(ctx, "cold")
	if err != nil || cold.Status != StatusSucceeded {
		t.Fatalf("cold plan = %+v, %v", cold, err)
	}

	// The enacted plan failed at POR (brokerage verified it unexecutable):
	// drop poisoned cache entries, then re-plan around the failure.
	s.InvalidateService("POR")
	failed := plantree.Seq(
		plantree.Activity("POD"),
		plantree.Activity("P3DR"),
		plantree.Activity("POR"),
		plantree.Activity("P3DR"),
		plantree.Activity("PSF"),
	)
	replan := testSpec("replan")
	replan.Excluded = []string{"POR"}
	replan.Failed = failed
	if _, err := s.Submit(ctx, replan); err != nil {
		t.Fatal(err)
	}
	inc, err := s.Wait(ctx, "replan")
	if err != nil || inc.Status != StatusSucceeded {
		t.Fatalf("re-plan = %+v, %v", inc, err)
	}
	if !inc.Incremental {
		t.Error("re-plan not marked incremental")
	}
	if inc.Eval.FV < 1 || inc.Eval.FG < 1 {
		t.Errorf("re-plan not perfect: fv=%g fg=%g (tree %s)", inc.Eval.FV, inc.Eval.FG, inc.Tree)
	}
	if strings.Contains(inc.Tree, "POR") {
		t.Errorf("re-plan still uses the excluded service: %s", inc.Tree)
	}
	if 10*inc.Evaluations >= cold.Evaluations {
		t.Errorf("re-plan cost %d evaluations vs %d cold — not under 10%%",
			inc.Evaluations, cold.Evaluations)
	}
	t.Logf("cold=%d evaluations, incremental=%d (%.1f%%)",
		cold.Evaluations, inc.Evaluations, 100*float64(inc.Evaluations)/float64(cold.Evaluations))
}

// TestIncrementalReplanDigest pins forty Figure-3 re-plans bit for bit: the
// Figure 10 process fails at each of four services, re-planned at ten seeds
// on one worker. Where the neighbourhood lives, how the failed process is
// parsed and how the seeds are drawn may change; what is planned may not.
func TestIncrementalReplanDigest(t *testing.T) {
	problem := virolab.Problem()
	failed, err := plantree.FromProcess(virolab.Process())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.EvalWorkers = 1
	s := newTestService(t, ServiceConfig{Catalog: virolab.Catalog(), Params: params, workers: 1})
	h := sha256.New()
	for _, excluded := range [][]string{{"POR"}, {"P3DR"}, {"POD"}, {"PSF"}} {
		for seed := int64(1); seed <= 10; seed++ {
			p := params.Incremental()
			p.Seed = seed
			st, err := s.Submit(context.Background(), PlanSpec{Initial: problem.Initial.Items(),
				Goal: problem.Goal.Conditions, Excluded: excluded, Failed: failed, NoCache: true, Params: &p})
			if err != nil {
				t.Fatal(err)
			}
			if st, err = s.Wait(context.Background(), st.ID); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%v %d %s %d %s\n%s\n", excluded, seed, st.Status, st.Evaluations, st.Tree, st.PDL)
		}
	}
	const want = "69edd39da9d45b44e4b160523c42f5ff4e3d81bec95d768ee26506ea16c7b6e4"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("re-plan digest = %s, want %s", got, want)
	}
}

// TestServiceConcurrentSubmitCancel hammers Submit/Get/Cancel/Stats from
// many goroutines; run under -race this is the service's thread-safety
// proof.
func TestServiceConcurrentSubmitCancel(t *testing.T) {
	s := newTestService(t, ServiceConfig{workers: 4})
	small := DefaultParams()
	small.PopulationSize = 16
	small.Generations = 2

	const plans = 24
	var wg sync.WaitGroup
	for i := 0; i < plans; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := small
			p.Seed = int64(i + 1)
			sp := testSpec(fmt.Sprintf("c-%d", i))
			sp.Params = &p
			sp.NoCache = true
			if _, err := s.Submit(context.Background(), sp); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			rng := rand.New(rand.NewSource(int64(i)))
			if rng.Intn(2) == 0 {
				s.Cancel(sp.ID) // racing the worker is the point
			}
			s.Get(sp.ID)
			s.Stats()
			if st, err := s.Wait(context.Background(), sp.ID); err != nil || !st.Status.Terminal() {
				t.Errorf("plan %d settled %+v, %v", i, st, err)
			}
		}(i)
	}
	wg.Wait()

	stats := s.Stats()
	if stats.Submitted != plans || stats.Succeeded+stats.Failed+stats.Cancelled != plans {
		t.Errorf("stats don't add up: %+v", stats)
	}
}

func TestServiceCloseCancelsPending(t *testing.T) {
	s := newTestService(t, ServiceConfig{workers: 1})
	big := DefaultParams()
	big.PopulationSize = 400
	big.Generations = 500
	var ids []string
	for i := 0; i < 3; i++ {
		p := big
		sp := testSpec(fmt.Sprintf("pending-%d", i))
		sp.Params = &p
		sp.NoCache = true
		if _, err := s.Submit(context.Background(), sp); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sp.ID)
	}
	s.Close()
	for _, id := range ids {
		st, err := s.Get(id)
		if err != nil || st.Status != StatusCancelled {
			t.Errorf("plan %s after close = %+v, %v", id, st, err)
		}
	}
	if _, err := s.Submit(context.Background(), testSpec("late")); !errors.Is(err, ErrServiceClosed) {
		t.Errorf("submit after close err = %v", err)
	}
}

// TestServiceRetention bounds the finished-plan records.
func TestServiceRetention(t *testing.T) {
	s := newTestService(t, ServiceConfig{workers: 1})
	ctx := context.Background()
	if _, err := s.Submit(ctx, testSpec("seed")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctx, "seed"); err != nil {
		t.Fatal(err)
	}
	// Warm hits finalize synchronously, so each submit adds one finished
	// record; the oldest fall off past the retention bound.
	for i := 0; i < retainFinished+10; i++ {
		if _, err := s.Submit(ctx, testSpec(fmt.Sprintf("r-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.List()); n != 1024 {
		t.Errorf("retained %d records, want 1024", n)
	}
	for _, id := range []string{"seed", "r-9"} {
		if _, err := s.Get(id); !errors.Is(err, ErrUnknownPlan) {
			t.Errorf("evicted plan %s still queryable: %v", id, err)
		}
	}
	if _, err := s.Get("r-10"); err != nil {
		t.Errorf("plan r-10, the oldest of the last 1024, was evicted: %v", err)
	}
}

// TestServiceResultOutlivesWorkspace pins what a plan's result may not do:
// point into the worker's workspace. Plan A re-plans a failed FromProcess
// tree (Name, Inputs, Outputs and Condition set), which its neighbourhood
// reads; plans B — cancelled after it has evolved a few generations — and C
// then run in the same workspace, and A's tree must read as it did, share no
// data list with the caller's failed plan, and own each of its child lists.
func TestServiceResultOutlivesWorkspace(t *testing.T) {
	failed, err := plantree.FromProcess(virolab.Process())
	if err != nil {
		t.Fatal(err)
	}
	pristine := failed.Clone()
	tel := telemetry.New()
	s := newTestService(t, ServiceConfig{Catalog: virolab.Catalog(), workers: 1, Telemetry: tel})
	ctx := context.Background()
	problem := virolab.Problem()
	generations := tel.Counter("planner.generations")

	elitist := fastParams()
	elitist.Generations, elitist.Elites = 3, 1
	endless := fastParams()
	endless.Generations = 1 << 20
	var treeA, copyA *plantree.Node
	var textA string
	for _, plan := range []struct {
		id     string
		params Params
		failed *plantree.Node
		cancel bool
	}{
		{"A", elitist, failed, false},
		{"B", endless, nil, true},
		{"C", fastParams(), nil, false},
	} {
		spec := PlanSpec{ID: plan.id, Initial: problem.Initial.Items(), Goal: problem.Goal.Conditions,
			Params: &plan.params, Failed: plan.failed, NoCache: true}
		ran := generations.Value()
		if _, err := s.Submit(ctx, spec); err != nil {
			t.Fatal(err)
		}
		if plan.cancel {
			for deadline := time.Now().Add(10 * time.Second); generations.Value() < ran+3; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("plan %s never reached its third generation", plan.id)
				}
			}
			if _, err := s.Cancel(plan.id); err != nil {
				t.Fatal(err)
			}
		}
		st, err := s.Wait(ctx, plan.id)
		if want := map[bool]Status{false: StatusSucceeded, true: StatusCancelled}[plan.cancel]; err != nil || st.Status != want {
			t.Fatalf("plan %s = %+v, %v, want %s", plan.id, st, err, want)
		}
		if plan.id == "A" {
			treeA = st.Result.Best.Tree
			copyA, textA = treeA.Clone(), treeA.String()
		}
	}

	if !treeA.Equal(copyA) || treeA.String() != textA {
		t.Fatalf("plan A's tree changed while later plans ran on its worker:\n got %s\nwant %s", treeA, textA)
	}
	var bound *plantree.Node
	controllers := 0
	for _, n := range preorder(treeA) {
		if len(n.Inputs) > 0 && bound == nil {
			bound = n
		}
		if n.Kind.IsController() {
			controllers++
			n.Children = append(n.Children, plantree.Activity("EXTRA"))
		}
	}
	if bound == nil {
		t.Fatalf("plan A's tree %s carries no Inputs: the failed plan did not survive, the test checks nothing", textA)
	}
	if got, want := treeA.Size(), copyA.Size()+controllers; got != want {
		t.Errorf("appending a child per controller: size %d, want %d: %s", got, want, treeA)
	}
	bound.Inputs[0] = "MUTATED"
	if !failed.Equal(pristine) {
		t.Errorf("writing to the result's Inputs reached the caller's failed plan: %s", failed)
	}
}

// TestWorkspaceScratchRebinds: a worker's evaluation scratches outlive the
// plan whose kernel they were bound to. One worker alternates specs whose
// initial data differ, so each plan compiles a kernel with another number of
// kinds, and every result (tree, evaluations, fitness) must be what a
// standalone GP, with scratches of its own, finds for the same spec.
func TestWorkspaceScratchRebinds(t *testing.T) {
	p := fastParams()
	p.Generations, p.EvalWorkers = 6, 2
	s := newTestService(t, ServiceConfig{workers: 1, Params: p})
	base := testProblem()
	full := base.Initial.Items()
	var fewer []*workflow.DataItem // no POR-Parameter: POR never binds
	for _, it := range full {
		if it.Name != "D5" {
			fewer = append(fewer, it)
		}
	}
	more := append(full[:len(full):len(full)], workflow.NewDataItem("D8", "2D Image"))
	for i, initial := range [][]*workflow.DataItem{full, more, fewer, full, fewer, more} {
		params := p
		params.Seed = int64(11 + i%3)
		spec := PlanSpec{ID: fmt.Sprintf("rebind-%d", i), Initial: initial, Goal: base.Goal.Conditions,
			Params: &params, NoCache: true, TreeOnly: true}
		if _, err := s.Submit(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		st, err := s.Wait(context.Background(), spec.ID)
		if err != nil || st.Status != StatusSucceeded {
			t.Fatalf("plan %d = %+v, %v", i, st, err)
		}
		gp, err := New(&workflow.Problem{Name: spec.ID, Initial: workflow.NewState(initial...),
			Goal: base.Goal, Catalog: base.Catalog}, params)
		if err != nil {
			t.Fatal(err)
		}
		want, err := gp.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// The service hands out the normalized tree.
		got, wantTree := st.Result, want.Best.Tree.Normalize()
		if got.Evaluations != want.Evaluations || got.Best.Eval != want.Best.Eval || !got.Best.Tree.Equal(wantTree) {
			t.Errorf("plan %d (%d initial items): service %d evals %+v %s\nstandalone %d evals %+v %s", i, len(initial),
				got.Evaluations, got.Best.Eval, got.Best.Tree, want.Evaluations, want.Best.Eval, wantTree)
		}
	}
}
