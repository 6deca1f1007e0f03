// Engine behavior tests. They live in an external test package so they can
// build full core.Environment instances (core wires the engine, so an
// in-package test would be an import cycle).
package engine_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pdl"
	"repro/internal/planner"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// forkPDL is the short two-stage case study excerpt the tests enact: one
// density map, then two parallel reconstructions.
const forkPDL = `BEGIN,
  POD(D1, D7 -> D8);
  {FORK
    {P3DR(D2, D7, D8 -> D9)}
    {P3DR(D3, D7, D8 -> D10)}
  JOIN},
END`

// forkActivities is how many end-user activities forkPDL enacts.
const forkActivities = 3

func forkTask(t testing.TB, id string) *workflow.Task {
	t.Helper()
	p, err := pdl.ParseProcess(id, forkPDL)
	if err != nil {
		t.Fatal(err)
	}
	c := workflow.NewCase(id, "engine test "+id)
	for _, d := range virolab.InitialData() {
		c.AddData(d)
	}
	c.Goal = workflow.NewGoal(`G.Classification = "3D Model"`)
	return &workflow.Task{ID: id, Name: c.Name, Case: c, Process: p}
}

// newEnv builds an environment with the virolab catalog and cheap planner
// settings; mod tweaks the options (workers, queue capacity, hooks).
func newEnv(t testing.TB, mod func(*core.Options)) *core.Environment {
	t.Helper()
	params := planner.DefaultParams()
	params.PopulationSize = 120
	params.Generations = 15
	opts := core.Options{Catalog: virolab.Catalog(), Planner: params}
	if mod != nil {
		mod(&opts)
	}
	env, err := core.NewEnvironment(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	return env
}

// waitTerminal polls until the task reaches a terminal status.
func waitTerminal(t *testing.T, eng *engine.Engine, id string) engine.TaskStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := eng.Task(id)
		if err != nil {
			t.Fatalf("task %s: %v", id, err)
		}
		switch st.Status {
		case engine.StatusCompleted, engine.StatusFailed, engine.StatusCancelled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("task %s stuck in %q", id, st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// onceClose returns a closer for gate that is safe to call twice (tests
// close it mid-test and again in cleanup).
func onceClose(ch chan struct{}) func() {
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

// gateHook returns a PostProcess hook that blocks every activity on the gate
// channel and closes started on the first one (the worker has picked a task
// up).
func gateHook(started chan<- struct{}, gate <-chan struct{}) func(*workflow.Activity, []*workflow.DataItem, int) {
	first := make(chan struct{}, 1)
	return func(*workflow.Activity, []*workflow.DataItem, int) {
		select {
		case first <- struct{}{}:
			close(started)
		default:
		}
		<-gate
	}
}

// TestBackpressure fills the bounded queue behind a blocked single worker:
// the overflow submission fails fast with ErrQueueFull and the rejection
// counter moves, while every accepted task completes once the gate opens.
func TestBackpressure(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	hook := gateHook(started, gate)
	open := onceClose(gate)
	env := newEnv(t, func(opts *core.Options) {
		opts.Workers = 1
		opts.QueueCapacity = 2
		opts.PostProcess = hook
	})
	t.Cleanup(open)
	eng := env.Engine

	if _, err := eng.Submit(engine.Submission{Task: forkTask(t, "B"), Priority: engine.PriorityNormal}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never picked the blocker up")
	}
	for _, id := range []string{"Q1", "Q2"} {
		st, err := eng.Submit(engine.Submission{Task: forkTask(t, id), Priority: engine.PriorityNormal})
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != engine.StatusQueued || st.QueuePosition == 0 {
			t.Fatalf("submission %s = %+v", id, st)
		}
	}
	_, err := eng.Submit(engine.Submission{Task: forkTask(t, "OVER"), Priority: engine.PriorityNormal})
	if !errors.Is(err, engine.ErrQueueFull) {
		t.Fatalf("overflow submission err = %v, want ErrQueueFull", err)
	}
	snap := env.Telemetry.Snapshot()
	if snap.Counters["engine.admission.rejected"] != 1 {
		t.Errorf("rejected counter = %d, want 1", snap.Counters["engine.admission.rejected"])
	}
	if stats := eng.Stats(); stats.Depth != 2 || stats.Capacity != 2 || stats.Rejected != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if eng.RetryAfterSeconds() < 1 {
		t.Errorf("RetryAfterSeconds = %d, want >= 1", eng.RetryAfterSeconds())
	}

	open()
	for _, id := range []string{"B", "Q1", "Q2"} {
		if st := waitTerminal(t, eng, id); st.Status != engine.StatusCompleted {
			t.Errorf("task %s = %+v", id, st)
		}
	}
	if _, err := eng.Task("OVER"); !errors.Is(err, engine.ErrUnknownTask) {
		t.Errorf("rejected task lookup err = %v, want ErrUnknownTask", err)
	}
}

// TestWorkerCap holds every enactment at its first activity and checks that
// concurrent enactments sit exactly at the worker count — never above — with
// the rest of the burst queued. Run under -race in `make check`.
func TestWorkerCap(t *testing.T) {
	const workers = 2
	const burst = 6
	started := make(chan struct{})
	gate := make(chan struct{})
	hook := gateHook(started, gate)
	open := onceClose(gate)
	env := newEnv(t, func(opts *core.Options) {
		opts.Workers = workers
		opts.PostProcess = hook
	})
	t.Cleanup(open)
	eng := env.Engine

	ids := []string{"W1", "W2", "W3", "W4", "W5", "W6"}
	for _, id := range ids {
		if _, err := eng.Submit(engine.Submission{Task: forkTask(t, id), Priority: engine.PriorityNormal}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the pool to saturate, then watch for a while: Running must
	// reach the cap and never exceed it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if s := eng.Stats(); s.Running == workers && s.Depth == burst-workers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated: %+v", eng.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		if s := eng.Stats(); s.Running > workers || s.Busy > workers {
			t.Fatalf("concurrent enactments exceed worker cap: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}

	open()
	for _, id := range ids {
		if st := waitTerminal(t, eng, id); st.Status != engine.StatusCompleted {
			t.Errorf("task %s = %+v", id, st)
		}
	}
}

// TestPriorityOrdering queues one task per class behind a blocked worker and
// checks the drain order: high, then normal, then low — regardless of
// submission order.
func TestPriorityOrdering(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	hook := gateHook(started, gate)
	open := onceClose(gate)
	env := newEnv(t, func(opts *core.Options) {
		opts.Workers = 1
		opts.PostProcess = hook
	})
	t.Cleanup(open)
	eng := env.Engine

	if _, err := eng.Submit(engine.Submission{Task: forkTask(t, "B"), Priority: engine.PriorityNormal}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never picked the blocker up")
	}
	// Submit in worst-case order: low first, high last.
	low, err := eng.Submit(engine.Submission{Task: forkTask(t, "L"), Priority: engine.PriorityLow})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := eng.Submit(engine.Submission{Task: forkTask(t, "N"), Priority: engine.PriorityNormal})
	if err != nil {
		t.Fatal(err)
	}
	high, err := eng.Submit(engine.Submission{Task: forkTask(t, "H"), Priority: engine.PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}
	// Each submission saw itself at the head of its class at admission time.
	if high.QueuePosition != 1 || norm.QueuePosition != 1 || low.QueuePosition != 1 {
		t.Errorf("admission positions H=%d N=%d L=%d, want 1 1 1",
			high.QueuePosition, norm.QueuePosition, low.QueuePosition)
	}
	// With all three queued, positions reflect the drain order.
	for want, id := range map[int]string{1: "H", 2: "N", 3: "L"} {
		st, err := eng.Task(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.QueuePosition != want {
			t.Errorf("task %s at position %d, want %d", id, st.QueuePosition, want)
		}
	}

	open()
	var finished [3]time.Time
	for i, id := range []string{"H", "N", "L"} {
		st := waitTerminal(t, eng, id)
		if st.Status != engine.StatusCompleted {
			t.Fatalf("task %s = %+v", id, st)
		}
		finished[i] = st.Finished
	}
	if finished[0].After(finished[1]) || finished[1].After(finished[2]) {
		t.Errorf("drain order wrong: H=%v N=%v L=%v", finished[0], finished[1], finished[2])
	}
}

// TestCancelQueued cancels a task that is still waiting in the queue: the
// cancellation is immediate, terminal, and journaled.
func TestCancelQueued(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	hook := gateHook(started, gate)
	open := onceClose(gate)
	env := newEnv(t, func(opts *core.Options) {
		opts.Workers = 1
		opts.PostProcess = hook
	})
	t.Cleanup(open)
	eng := env.Engine

	if _, err := eng.Submit(engine.Submission{Task: forkTask(t, "B"), Priority: engine.PriorityNormal}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never picked the blocker up")
	}
	if _, err := eng.Submit(engine.Submission{Task: forkTask(t, "Q"), Priority: engine.PriorityNormal}); err != nil {
		t.Fatal(err)
	}
	result, err := eng.Cancel("Q")
	if err != nil || result != engine.StatusCancelled {
		t.Fatalf("cancel queued = %q, %v", result, err)
	}
	st, err := eng.Task("Q")
	if err != nil || st.Status != engine.StatusCancelled {
		t.Fatalf("cancelled task = %+v, %v", st, err)
	}
	if _, err := eng.Cancel("Q"); !errors.Is(err, engine.ErrFinished) {
		t.Errorf("second cancel err = %v, want ErrFinished", err)
	}
	recs, err := engine.ReadJournal(env.Services.Storage, "Q")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Event != engine.EventSnapshot || recs[0].Status != engine.StatusCancelled {
		t.Errorf("journal after queued cancel = %+v, want one cancelled snapshot", recs)
	}
	open()
	if st := waitTerminal(t, eng, "B"); st.Status != engine.StatusCompleted {
		t.Errorf("blocker = %+v", st)
	}
}

// gatedStore holds the Put of one key (a task's accepted record), or its
// Replace (the terminal snapshot) when replace is set, until release closes,
// and closes entered once the first such write has arrived.
type gatedStore struct {
	store.Store
	key              string
	replace          bool
	once             sync.Once
	entered, release chan struct{}
}

func (g *gatedStore) gate(key string, gated bool) {
	if gated && key == g.key {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
}

func (g *gatedStore) Put(key string, value []byte) (int, error) {
	g.gate(key, !g.replace)
	return g.Store.Put(key, value)
}

func (g *gatedStore) Replace(key string, value []byte) (int, error) {
	g.gate(key, g.replace)
	return g.Store.Replace(key, value)
}

// TestCancelTwiceIsCountedOnce: a second Cancel that lands while the first
// is still writing a queued task's terminal record must not finish the task
// again — each finish counts it, and the tenant's books would read one more
// terminal task than accepted ones.
func TestCancelTwiceIsCountedOnce(t *testing.T) {
	env := newEnv(t, nil)
	gated := &gatedStore{
		Store:   store.NewMemory(store.Options{}),
		key:     engine.JournalKey("Q"),
		replace: true,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	eng, err := engine.New(engine.Config{Coordinator: env.Coordinator, Storage: gated, Telemetry: telemetry.New(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close) // never started: the task stays queued
	if _, err := eng.Submit(engine.Submission{Task: forkTask(t, "Q"), Priority: engine.PriorityNormal}); err != nil {
		t.Fatal(err)
	}
	first := make(chan string, 1)
	go func() {
		result, _ := eng.Cancel("Q")
		first <- result
	}()
	select {
	case <-gated.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the first Cancel never reached the terminal write")
	}
	second := make(chan string, 1)
	go func() {
		result, _ := eng.Cancel("Q")
		second <- result
	}()
	select {
	case result := <-second:
		if result != engine.StatusCancelled {
			t.Errorf("second Cancel = %q, want %q", result, engine.StatusCancelled)
		}
	case <-time.After(5 * time.Second):
		t.Error("the second Cancel waited on a terminal write of its own")
	}
	close(gated.release)
	<-first
	if st := waitTerminal(t, eng, "Q"); st.Status != engine.StatusCancelled {
		t.Errorf("task = %+v, want cancelled", st)
	}
	for _, ts := range eng.Tenants() {
		if ts.Accepted != 1 || ts.Cancelled != 1 {
			t.Errorf("tenant %s: accepted %d, cancelled %d, want 1 and 1", ts.Tenant, ts.Accepted, ts.Cancelled)
		}
	}
}

// TestCancelDuringAdmissionIsCounted pins the Cancel-races-admission
// interleaving: the Cancel lands while Submit's write-ahead append is in
// flight, so Submit itself finishes the task as cancelled. The acceptance was
// journaled, so it must be counted — accepted equals terminal per tenant and
// engine-wide — and the journal compacts to one cancelled snapshot.
func TestCancelDuringAdmissionIsCounted(t *testing.T) {
	env := newEnv(t, nil)
	gated := &gatedStore{
		Store:   store.NewMemory(store.Options{}),
		key:     engine.JournalKey("R"),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	eng, err := engine.New(engine.Config{
		Coordinator: env.Coordinator,
		Storage:     gated,
		Telemetry:   telemetry.New(),
		Workers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	t.Cleanup(eng.Close)

	type submitted struct {
		st  engine.TaskStatus
		err error
	}
	done := make(chan submitted, 1)
	go func() {
		st, err := eng.Submit(engine.Submission{Task: forkTask(t, "R"), Priority: engine.PriorityNormal})
		done <- submitted{st, err}
	}()
	select {
	case <-gated.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("Submit never reached the journal append")
	}
	if result, err := eng.Cancel("R"); err != nil || result != engine.StatusCancelled {
		t.Fatalf("cancel during admission = %q, %v", result, err)
	}
	close(gated.release)
	if got := <-done; got.err != nil || got.st.Status != engine.StatusCancelled {
		t.Fatalf("Submit = %+v, %v, want a cancelled task", got.st, got.err)
	}

	var terminal int64
	for _, ts := range eng.Tenants() {
		if got := ts.Completed + ts.Failed + ts.Cancelled; got != ts.Accepted {
			t.Errorf("tenant %s books unbalanced: accepted %d, terminal %d", ts.Tenant, ts.Accepted, got)
		}
		terminal += ts.Completed + ts.Failed + ts.Cancelled
	}
	if accepted := eng.Stats().Accepted; accepted != 1 || terminal != 1 {
		t.Errorf("engine-wide accepted %d, terminal %d, want 1 and 1", accepted, terminal)
	}
	recs, err := engine.ReadJournal(gated, "R")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Event != engine.EventSnapshot || recs[0].Status != engine.StatusCancelled {
		t.Errorf("journal = %+v, want one cancelled snapshot", recs)
	}
}

// TestRetentionEviction bounds finished-record retention: once more than K
// tasks finish, the oldest records answer ErrEvicted (the journal keeps the
// compacted outcome).
func TestRetentionEviction(t *testing.T) {
	env := newEnv(t, func(opts *core.Options) {
		opts.Workers = 1
		opts.RetainFinished = 2
	})
	eng := env.Engine
	ids := []string{"R1", "R2", "R3", "R4"}
	for _, id := range ids {
		if _, err := eng.Submit(engine.Submission{Task: forkTask(t, id), Priority: engine.PriorityNormal}); err != nil {
			t.Fatal(err)
		}
	}
	// A single worker drains in admission order, so R4 finishing last means
	// everything finished; retention (K=2) keeps only R3 and R4 queryable.
	waitTerminal(t, eng, "R4")
	for _, id := range []string{"R1", "R2"} {
		if _, err := eng.Task(id); !errors.Is(err, engine.ErrEvicted) {
			t.Errorf("task %s err = %v, want ErrEvicted", id, err)
		}
	}
	for _, id := range []string{"R3", "R4"} {
		if st, err := eng.Task(id); err != nil || st.Status != engine.StatusCompleted {
			t.Errorf("task %s = %+v, %v", id, st, err)
		}
	}
	// Evicted IDs stay reserved: resubmission is still a duplicate.
	if _, err := eng.Submit(engine.Submission{Task: forkTask(t, "R1"), Priority: engine.PriorityNormal}); !errors.Is(err, engine.ErrDuplicate) {
		t.Errorf("resubmit evicted err = %v, want ErrDuplicate", err)
	}
	// The journal still records the evicted task's outcome.
	recs, err := engine.ReadJournal(env.Services.Storage, "R1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Status != engine.StatusCompleted {
		t.Errorf("evicted task journal = %+v", recs)
	}
}

// TestCompletedJournalCompacts checks that a finished task's journal history
// collapses to a single terminal snapshot record.
func TestCompletedJournalCompacts(t *testing.T) {
	env := newEnv(t, func(opts *core.Options) { opts.Workers = 1 })
	eng := env.Engine
	if _, err := eng.Submit(engine.Submission{Task: forkTask(t, "J"), Priority: engine.PriorityHigh}); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, eng, "J")
	if st.Status != engine.StatusCompleted || st.Attempt != 1 {
		t.Fatalf("task = %+v", st)
	}
	if st.Report == nil || st.Report.Executed != forkActivities {
		t.Fatalf("report = %+v, want %d executed", st.Report, forkActivities)
	}
	recs, err := engine.ReadJournal(env.Services.Storage, "J")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Event != engine.EventSnapshot ||
		recs[0].Status != engine.StatusCompleted || recs[0].TaskID != "J" {
		t.Fatalf("journal = %+v, want one completed snapshot", recs)
	}
	snap := env.Telemetry.Snapshot()
	if snap.Counters["engine.journal.records"] == 0 || snap.Counters["engine.journal.compactions"] == 0 {
		t.Errorf("journal counters = %v", snap.Counters)
	}
	if snap.Counters["engine.tasks.completed"] != 1 || snap.Counters["engine.admission.accepted"] != 1 {
		t.Errorf("lifecycle counters = %v", snap.Counters)
	}
	if h := snap.Histograms["engine.queue.wait.seconds"]; h.Count != 1 {
		t.Errorf("queue wait histogram = %+v", h)
	}
	if h := snap.Histograms["engine.run.seconds"]; h.Count != 1 {
		t.Errorf("run time histogram = %+v", h)
	}
}

// TestSubmitValidation covers the typed admission errors.
func TestSubmitValidation(t *testing.T) {
	env := newEnv(t, func(opts *core.Options) { opts.Workers = 1 })
	eng := env.Engine
	if _, err := eng.Submit(engine.Submission{}); err == nil {
		t.Error("nil task accepted")
	}
	if _, err := eng.Submit(engine.Submission{Task: forkTask(t, "V"), Priority: engine.Priority(9)}); err == nil {
		t.Error("bogus priority accepted")
	}
	if _, err := eng.Submit(engine.Submission{Task: forkTask(t, "V")}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(engine.Submission{Task: forkTask(t, "V")}); !errors.Is(err, engine.ErrDuplicate) {
		t.Errorf("duplicate err = %v", err)
	}
	waitTerminal(t, eng, "V")
	if _, err := eng.Task("ghost"); !errors.Is(err, engine.ErrUnknownTask) {
		t.Errorf("ghost err = %v", err)
	}
	if p, err := engine.ParsePriority("high"); err != nil || p != engine.PriorityHigh {
		t.Errorf("ParsePriority(high) = %v, %v", p, err)
	}
	if _, err := engine.ParsePriority("urgent"); err == nil {
		t.Error("bogus priority name parsed")
	}
}
