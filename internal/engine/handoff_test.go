package engine_test

import (
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// TestTerminalCommitHandOff: on a durable store a worker does not wait for
// its task's terminal commit while more work is queued. One worker, two
// queued tasks; task 1's terminal Replace is held. Meanwhile task 2 enacts,
// and task 1 still reads running with no Finished time: a task turns
// terminal only once its snapshot is durable. On release both turn terminal,
// in dequeue order. The queue stats count both tasks as running, and the
// one worker as busy.
func TestTerminalCommitHandOff(t *testing.T) {
	var executed atomic.Int64
	env := newEnv(t, func(opts *core.Options) {
		opts.PostProcess = func(*workflow.Activity, []*workflow.DataItem, int) { executed.Add(1) }
	})
	backend, err := store.Open("file:"+t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gated := &gatedStore{
		Store:   backend,
		key:     engine.JournalKey("H1"),
		replace: true,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	release := onceClose(gated.release)
	tel := telemetry.New()
	eng, err := engine.New(engine.Config{Coordinator: env.Coordinator, Storage: gated, Telemetry: tel, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		release()
		eng.Close()
		backend.Close()
	})
	for _, id := range []string{"H1", "H2"} {
		if _, err := eng.Submit(engine.Submission{Task: forkTask(t, id), Priority: engine.PriorityNormal}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Start()
	select {
	case <-gated.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("task H1 never reached its terminal commit")
	}
	for deadline := time.Now().Add(10 * time.Second); executed.Load() < 2*forkActivities; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("H2 ran %d of %d activities while H1's terminal commit was held: the worker waited for the disk",
				executed.Load()-forkActivities, forkActivities)
		}
	}
	if st, err := eng.Task("H1"); err != nil || st.Status != engine.StatusRunning || !st.Finished.IsZero() {
		t.Errorf("H1 during its held commit = %+v, %v; want running with no Finished time", st, err)
	}
	// Both tasks read running and are counted so; the one worker is busy
	// with H2 (or waiting for its companion), not with H1's commit.
	if s := eng.Stats(); s.Running != 2 || s.Busy != 1 {
		t.Errorf("stats during H1's held commit: running %d, busy %d; want 2 and 1", s.Running, s.Busy)
	}

	release()
	h1, h2 := waitTerminal(t, eng, "H1"), waitTerminal(t, eng, "H2")
	if h1.Status != engine.StatusCompleted || h2.Status != engine.StatusCompleted {
		t.Fatalf("H1 = %+v, H2 = %+v", h1, h2)
	}
	if h1.Finished.After(h2.Finished) {
		t.Errorf("H1 finished at %v, after H2 at %v: not in dequeue order", h1.Finished, h2.Finished)
	}
	if n := tel.Counter("engine.journal.handoffs").Value(); n != 1 {
		t.Errorf("engine.journal.handoffs = %d, want 1 (H1's commit; H2's found the queue empty)", n)
	}
}

// TestCrashDuringHandOff fences a file store while two workers hand their
// terminal commits off. Every task that read terminal before the fence is
// terminal after Recover, with the same attempt, and none of its activities
// runs again; the rest re-run once each.
func TestCrashDuringHandOff(t *testing.T) {
	dir := t.TempDir()
	live, image := filepath.Join(dir, "live"), filepath.Join(dir, "image")
	reliable := grid.DefaultSyntheticConfig()
	reliable.FailureRate = 0 // no retries: activity executions are exact
	backend, err := store.Open("file:"+live, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fenced := store.NewFenced(backend)
	fenced.OwnsBackend = true
	queued := make(chan struct{}) // no activity runs before every task is queued
	env1 := newEnv(t, func(opts *core.Options) {
		opts.Workers = 2
		opts.GridConfig = &reliable
		opts.Store = fenced
		opts.PostProcess = func(*workflow.Activity, []*workflow.DataItem, int) { <-queued }
	})
	var ids []string
	for i := 0; i < 16; i++ {
		id := "X-" + string(rune('a'+i))
		if _, err := env1.Engine.Submit(engine.Submission{Task: forkTask(t, id), Priority: engine.PriorityNormal}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	close(queued)
	// Fence once a task has turned terminal after a hand-off, while others
	// are still queued or committing.
	handoffs := env1.Telemetry.Counter("engine.journal.handoffs")
	before := map[string]engine.TaskStatus{}
	for deadline := time.Now().Add(30 * time.Second); len(before) == 0 || handoffs.Value() < 2; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no terminal task after %d hand-offs", handoffs.Value())
		}
		clear(before)
		for _, id := range ids {
			if st, _ := env1.Engine.Task(id); st.Status == engine.StatusCompleted {
				before[id] = st
			}
		}
	}
	fenced.Fence()
	if len(before) == len(ids) {
		t.Fatal("every task finished before the fence: nothing was left to hand off")
	}
	if err := backend.(store.DurableCopier).CopyDurable(image); err != nil {
		t.Fatal(err)
	}
	env1.Close()

	var executed atomic.Int64
	env2 := newEnv(t, func(opts *core.Options) {
		opts.Workers = 2
		opts.GridConfig = &reliable
		opts.StoreDSN = "file:" + image
		opts.PostProcess = func(*workflow.Activity, []*workflow.DataItem, int) { executed.Add(1) }
	})
	report, err := env2.Engine.Recover()
	if err != nil {
		t.Fatal(err)
	}
	reran := slices.Concat(report.Requeued, report.Resumed, report.Restarted)
	for id, st := range before {
		if slices.Contains(reran, id) {
			t.Errorf("task %s read terminal before the fence, yet recovery re-queued it", id)
		}
		if got, err := env2.Engine.Task(id); err != nil || got.Status != st.Status || got.Attempt != st.Attempt {
			t.Errorf("task %s after recovery = %+v, %v; before the fence %s at attempt %d", id, got, err, st.Status, st.Attempt)
		}
	}
	for _, id := range ids {
		if st := waitTerminal(t, env2.Engine, id); st.Status != engine.StatusCompleted {
			t.Errorf("task %s = %+v", id, st)
		}
	}
	if got, want := executed.Load(), int64(forkActivities*len(reran)); got != want {
		t.Errorf("second-life activity executions = %d, want %d: only the %d re-queued tasks may run", got, want, len(reran))
	}
}

// TestRunContextReleased: a task's run context is released when its
// enactment ends, not kept as a child of the engine's context until Close.
func TestRunContextReleased(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	open := onceClose(gate)
	env := newEnv(t, func(opts *core.Options) {
		opts.Workers = 1
		opts.PostProcess = gateHook(started, gate)
	})
	t.Cleanup(open)
	if _, err := env.Engine.Submit(engine.Submission{Task: forkTask(t, "C"), Priority: engine.PriorityNormal}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("the worker never picked the task up")
	}
	ctx := engine.RunContext(env.Engine, "C")
	if ctx == nil || ctx.Err() != nil {
		t.Fatalf("running task's context = %v", ctx)
	}
	open()
	waitTerminal(t, env.Engine, "C")
	select {
	case <-ctx.Done():
	default:
		t.Error("a finished task's run context is still live")
	}
}

// TestFinishedRecordKeepsOnlyItsView: a terminal record lets go of the
// submission, its envelope, its checkpoint and its trace — after a live run,
// after a journal replay restores it, and after a re-queued task finishes —
// while its status view still echoes the case's constraints (a restored
// record reads them from the terminal snapshot).
func TestFinishedRecordKeepsOnlyItsView(t *testing.T) {
	env := newEnv(t, nil)
	backend := store.NewMemory(store.Options{})
	task := func(id string) *workflow.Task {
		task := forkTask(t, id)
		task.Case.Budget, task.Case.Deadline, task.Case.HardDeadline = 1e9, 1e9, true
		return task
	}
	check := func(eng *engine.Engine, id string, constrained bool) {
		t.Helper()
		st, err := eng.Task(id)
		if err != nil || st.Status != engine.StatusCompleted {
			t.Fatalf("task %s = %+v, %v", id, st, err)
		}
		if constrained && (st.Budget != 1e9 || st.Deadline != 1e9 || !st.HardDeadline) {
			t.Errorf("task %s view: budget %v, deadline %v, hard %v; want the case's 1e9, 1e9, true",
				id, st.Budget, st.Deadline, st.HardDeadline)
		}
		if held := engine.Holds(eng, id); len(held) > 0 {
			t.Errorf("finished task %s still holds %v", id, held)
		}
	}
	life := func(handle store.Store) *engine.Engine {
		eng, err := engine.New(engine.Config{Coordinator: env.Coordinator, Storage: handle, Telemetry: telemetry.New(), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		return eng
	}

	first := life(store.NewFenced(backend))
	first.Start()
	if _, err := first.Submit(engine.Submission{Task: task("K1"), Priority: engine.PriorityNormal}); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, first, "K1")
	check(first, "K1", true)
	// K2 is accepted by an engine that never starts; its handle is fenced
	// before Close could journal a cancellation.
	idle := store.NewFenced(backend)
	if _, err := life(idle).Submit(engine.Submission{Task: task("K2"), Priority: engine.PriorityNormal}); err != nil {
		t.Fatal(err)
	}
	idle.Fence()

	second := life(store.NewFenced(backend))
	report, err := second.Recover()
	if err != nil || report.Terminal != 1 || !slices.Equal(report.Requeued, []string{"K2"}) {
		t.Fatalf("recovery = %+v, %v; want K1 restored and K2 re-queued", report, err)
	}
	check(second, "K1", true)
	if held := engine.Holds(second, "K2"); !slices.Contains(held, "env") {
		t.Errorf("re-queued K2 holds %v, want its envelope to run from", held)
	}
	second.Start()
	waitTerminal(t, second, "K2")
	check(second, "K2", true)
}
