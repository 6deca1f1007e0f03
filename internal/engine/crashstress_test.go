package engine_test

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/workflow"
)

// TestCrashMidBatchStress snapshots the file backend's durable prefix while
// the engine is running hot — submissions still arriving, workers enacting,
// group-commit rounds fsyncing batches — and restarts a fresh environment on
// the copy. The copy lands mid-batch by construction: CopyDurable serializes
// only against the flush's file mutex, so it falls between two fsyncs of a
// live stream of appends. Invariants checked on the
// second life:
//
//   - no lost task: every submission acknowledged before the copy began is
//     in the journal (Append returned ⇒ its batch was durable) and runs to
//     completion;
//   - no double enactment: tasks terminal in the copy are restored as
//     terminal — same attempt count, zero re-runs;
//   - every journal collapses to a single terminal snapshot.
//
// The test is meaningful under -race (concurrent submit/enact/copy) and is
// exercised that way in CI.
func TestCrashMidBatchStress(t *testing.T) {
	if testing.Short() {
		t.Skip("crash stress cycle in -short mode")
	}
	dir := t.TempDir()
	live := filepath.Join(dir, "live")
	crash := filepath.Join(dir, "crash")
	const total = 10

	var executed atomic.Int64
	trigger := make(chan struct{})
	var triggerOnce sync.Once
	env1 := newEnv(t, func(opts *core.Options) {
		opts.Workers = 3
		opts.Checkpoint = true
		opts.StoreDSN = "file:" + live
		opts.PostProcess = func(*workflow.Activity, []*workflow.DataItem, int) {
			if executed.Add(1) == 4 {
				triggerOnce.Do(func() { close(trigger) })
			}
		}
	})

	// Submissions flow on their own goroutine so the copy below races real
	// admission appends, not a quiesced store.
	var ackMu sync.Mutex
	acked := []string{}
	submitsDone := make(chan struct{})
	go func() {
		defer close(submitsDone)
		for i := 0; i < total; i++ {
			id := fmt.Sprintf("T-%02d", i)
			if _, err := env1.Engine.Submit(engine.Submission{Task: forkTask(t, id), Priority: engine.PriorityNormal}); err != nil {
				t.Errorf("submit %s: %v", id, err)
				return
			}
			ackMu.Lock()
			acked = append(acked, id)
			ackMu.Unlock()
		}
	}()

	select {
	case <-trigger:
	case <-time.After(30 * time.Second):
		t.Fatal("engine never reached the fourth activity execution")
	}
	// The crash image: whatever is durable at this instant. Submissions and
	// enactments keep running while the copy is taken.
	ackMu.Lock()
	ackedAtCopy := append([]string(nil), acked...)
	ackMu.Unlock()
	if err := env1.Store.(store.DurableCopier).CopyDurable(crash); err != nil {
		t.Fatal(err)
	}
	<-submitsDone
	env1.Close()

	// What did the crash image capture? Terminal tasks must not re-run.
	inspect, err := store.Open("file:"+crash, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	terminalAtCopy := map[string]int{} // id -> attempt
	for _, id := range ackedAtCopy {
		recs, err := engine.ReadJournal(inspect, id)
		if err != nil {
			t.Fatalf("journal of %s in crash image: %v", id, err)
		}
		if len(recs) == 0 {
			t.Errorf("task %s acked before the copy but absent from the crash image", id)
			continue
		}
		last := recs[len(recs)-1]
		if last.Event == engine.EventSnapshot && last.Status == engine.StatusCompleted {
			terminalAtCopy[id] = last.Attempt
		}
	}
	if err := inspect.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life on the crash image.
	var reruns atomic.Int64
	env2 := newEnv(t, func(opts *core.Options) {
		opts.Workers = 3
		opts.Checkpoint = true
		opts.StoreDSN = "file:" + crash
		opts.PostProcess = func(*workflow.Activity, []*workflow.DataItem, int) { reruns.Add(1) }
	})
	report, err := env2.Engine.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if report.Terminal < len(terminalAtCopy) {
		t.Errorf("recovery restored %d terminal tasks, want >= %d", report.Terminal, len(terminalAtCopy))
	}

	for _, id := range ackedAtCopy {
		st := waitTerminal(t, env2.Engine, id)
		if st.Status != engine.StatusCompleted {
			t.Errorf("task %s = %+v, want completed", id, st)
		}
		if attempt, wasTerminal := terminalAtCopy[id]; wasTerminal && st.Attempt != attempt {
			t.Errorf("task %s finished before the crash with attempt %d but shows attempt %d after recovery (re-enacted?)",
				id, attempt, st.Attempt)
		}
		recs, err := engine.ReadJournal(env2.Services.Storage, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Event != engine.EventSnapshot {
			t.Errorf("journal of %s = %d records ending in %q, want one snapshot", id, len(recs), recs[len(recs)-1].Event)
		}
	}

	// Workers re-enact only what was not finished in the crash image. The
	// image may also hold tasks acked after the copy snapshot was taken
	// (their admission append raced the copy and won), so the upper bound
	// counts every submission that was not yet terminal; the lower bound
	// counts only the acked-and-unfinished ones, each of which replays at
	// least one activity.
	lower := int64(len(ackedAtCopy) - len(terminalAtCopy))
	upper := int64(total-len(terminalAtCopy)) * forkActivities
	if got := reruns.Load(); got < lower || got > upper {
		t.Errorf("second-life executions = %d, want between %d and %d", got, lower, upper)
	}
}
