package engine_test

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/workflow"
)

// TestCrashRecovery is the kill-and-restart acceptance scenario, run once
// per storage backend: a burst of tasks is submitted to a single-worker
// engine with checkpointing on; the first task is stopped mid-enactment
// (after its first checkpoint, inside its second dispatch batch) and the
// crash state is captured — the in-memory store's handle is fenced so the
// doomed environment never lands another write, or the fsynced on-disk
// prefix (CopyDurable) of the file backend is cloned, which is
// exactly what a kill -9 leaves behind. A brand-new environment opens
// that state, replays the journal, resumes the interrupted task from its
// checkpoint, and re-enqueues the never-started ones. Every task must end
// completed, no journal entry may stay non-terminal, and no activity past
// the last checkpoint may be enacted twice (counted via the post-process
// hook) — checkpoint-exact on every backend.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("full crash/recovery cycle in -short mode")
	}
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) { crashRecovery(t, backend) })
	}
}

func crashRecovery(t *testing.T, backend string) {
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
	ids := []string{"T-run", "T-q1", "T-q2", "T-q3"}

	// First life. The hook blocks at the second activity of the first task:
	// by then checkpoint v1 (after batch one, the POD) exists, and batch two
	// (the FORK of two P3DRs) is in flight and NOT checkpointed.
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
	for _, id := range ids {
		if _, err := env1.Engine.Submit(engine.Submission{Task: forkTask(t, id), Priority: engine.PriorityNormal}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-midway:
	case <-time.After(30 * time.Second):
		t.Fatal("first task never reached its second activity")
	}
	// Capture the crash state mid-enactment, then let the doomed environment
	// unwind. The in-memory backend is fenced: every later write of the first
	// life fails, as after a kill -9. The durable backends clone their
	// fsynced prefix — the bytes a crash preserves.
	if backend == "mem" {
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

	// Second life: fresh platform, agents, coordinator, engine. Open the
	// crashed state and replay the journal.
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
	report, err := env2.Engine.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Resumed) != 1 || report.Resumed[0] != "T-run" {
		t.Errorf("resumed = %v, want [T-run]", report.Resumed)
	}
	if len(report.Requeued) != 3 {
		t.Errorf("requeued = %v, want the three never-started tasks", report.Requeued)
	}
	if len(report.Restarted) != 0 || report.Terminal != 0 {
		t.Errorf("report = %+v", report)
	}

	for _, id := range ids {
		st := waitTerminal(t, env2.Engine, id)
		if st.Status != engine.StatusCompleted {
			t.Errorf("task %s = %+v", id, st)
		}
		if st.Report == nil || st.Report.Executed != forkActivities {
			t.Errorf("task %s report = %+v, want %d executed", id, st.Report, forkActivities)
		}
	}

	// No double enactment past the checkpoint: the resumed task replays only
	// its unfinished second batch (2 activities — the blocked P3DR's effects
	// were never checkpointed), the three requeued tasks run in full.
	wantCalls := int64(forkActivities - 1 + 3*forkActivities)
	if got := calls2.Load(); got != wantCalls {
		t.Errorf("second-life activity executions = %d, want %d", got, wantCalls)
	}

	// No orphaned journal entries: every journal has collapsed to a single
	// terminal snapshot.
	for _, id := range ids {
		recs, err := engine.ReadJournal(env2.Services.Storage, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Event != engine.EventSnapshot || recs[0].Status != engine.StatusCompleted {
			t.Errorf("journal of %s = %+v, want one completed snapshot", id, recs)
		}
	}

	// Recovery telemetry moved.
	snap := env2.Telemetry.Snapshot()
	if snap.Counters["engine.recovery.resumed"] != 1 || snap.Counters["engine.recovery.requeued"] != 3 {
		t.Errorf("recovery counters = %v", snap.Counters)
	}
	// Resumed task ran attempt 2; a trace span records the recovery.
	st, err := env2.Engine.Task("T-run")
	if err != nil {
		t.Fatal(err)
	}
	if st.Attempt != 2 {
		t.Errorf("resumed task attempt = %d, want 2", st.Attempt)
	}
}

// TestRecoverIdempotent replays a journal of already-finished tasks: their
// records are restored for lookups and nothing re-runs.
func TestRecoverIdempotent(t *testing.T) {
	shared := store.NewMemory(store.Options{})
	fence1 := store.NewFenced(shared)
	env1 := newEnv(t, func(opts *core.Options) { opts.Workers = 1; opts.Store = fence1 })
	if _, err := env1.Engine.Submit(engine.Submission{Task: forkTask(t, "T-done"), Priority: engine.PriorityNormal}); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, env1.Engine, "T-done")
	fence1.Fence()
	env1.Close()

	env2 := newEnv(t, func(opts *core.Options) { opts.Workers = 1; opts.Store = store.NewFenced(shared) })
	report, err := env2.Engine.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if report.Total() != 0 || report.Terminal != 1 {
		t.Fatalf("report = %+v, want one terminal task and nothing requeued", report)
	}
	st, err := env2.Engine.Task("T-done")
	if err != nil || st.Status != engine.StatusCompleted {
		t.Fatalf("restored record = %+v, %v", st, err)
	}
	// A second replay on the warm engine skips the known record.
	again, err := env2.Engine.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if again.Total() != 0 || again.Terminal != 0 {
		t.Errorf("second replay = %+v, want nothing", again)
	}
}

// TestRecoveredQueueWaitIsThisLife recovers a crash image of one started and
// two never-started tasks and drains it. The original submit instant is not
// journaled, so a re-queued task's queue wait is measured from its
// re-admission: no wait may exceed the time since Recover was called, and the
// tenant's mean wait stays a real number of seconds, not the 292 years a
// zero submit time reads as.
func TestRecoveredQueueWaitIsThisLife(t *testing.T) {
	shared := store.NewMemory(store.Options{})
	fence1 := store.NewFenced(shared)
	running := make(chan struct{})
	crashed := make(chan struct{})
	var calls atomic.Int64
	env1 := newEnv(t, func(opts *core.Options) {
		opts.Workers = 1
		opts.Store = fence1
		opts.PostProcess = func(*workflow.Activity, []*workflow.DataItem, int) {
			if calls.Add(1) == 1 {
				close(running)
				<-crashed
			}
		}
	})
	ids := []string{"T-run", "T-q1", "T-q2"}
	for _, id := range ids {
		if _, err := env1.Engine.Submit(engine.Submission{Task: forkTask(t, id), Priority: engine.PriorityNormal}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("first task never started")
	}
	fence1.Fence()
	close(crashed)
	env1.Close()

	env2 := newEnv(t, func(opts *core.Options) { opts.Workers = 1; opts.Store = store.NewFenced(shared) })
	recovering := time.Now()
	report, err := env2.Engine.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if report.Total() != len(ids) {
		t.Fatalf("report = %+v, want all %d tasks re-queued", report, len(ids))
	}
	for _, id := range ids {
		st := waitTerminal(t, env2.Engine, id)
		if st.Status != engine.StatusCompleted {
			t.Errorf("task %s = %+v", id, st)
		}
		if limit := time.Since(recovering).Seconds(); st.QueueWait < 0 || st.QueueWait > limit {
			t.Errorf("task %s queue wait = %gs, want within the %gs since Recover", id, st.QueueWait, limit)
		}
		if st.Submitted.Before(recovering) {
			t.Errorf("task %s submitted %v, before Recover was called (%v)", id, st.Submitted, recovering)
		}
	}
	ts, ok := env2.Engine.Tenant(engine.DefaultTenant)
	if !ok {
		t.Fatal("default tenant unknown after recovery")
	}
	if !(ts.MeanWaitSec >= 0 && ts.MeanWaitSec < 60) {
		t.Errorf("tenant mean wait = %gs, want finite and < 60", ts.MeanWaitSec)
	}
}

// TestRecoverCorruptJournal: a record that does not decode fails the whole
// recovery, which names the task and the version; a record that decodes but
// carries a process that does not is that task's failure alone.
func TestRecoverCorruptJournal(t *testing.T) {
	// accepted renders the accepted record of a fork task, with process as
	// its process when given.
	accepted := func(t *testing.T, id string, seq int64, process []byte) []byte {
		t.Helper()
		task := forkTask(t, id)
		if process == nil {
			process = task.Process.AppendJSON(nil)
		}
		env := &engine.TaskEnvelope{ID: id, Name: task.Name, Process: process, Goal: task.Case.Goal.Conditions}
		for _, it := range task.Case.InitialData {
			env.Items = append(env.Items, engine.EnvelopeItem{Name: it.Name, Props: it.Props})
		}
		data, err := json.Marshal(engine.JournalRecord{Event: engine.EventAccepted, TaskID: id, Seq: seq, Task: env})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	put := func(t *testing.T, s store.Store, id string, data []byte) {
		t.Helper()
		if _, err := s.Put(engine.JournalKey(id), data); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("truncated record", func(t *testing.T) {
		s := store.NewMemory(store.Options{})
		put(t, s, "T-ok", accepted(t, "T-ok", 1, nil))
		put(t, s, "T-cut", accepted(t, "T-cut", 2, nil))
		started := []byte(`{"event":"started","taskId":"T-cut","attempt":1}`)
		put(t, s, "T-cut", started[:len(started)/2])
		env := newEnv(t, func(opts *core.Options) { opts.Store = s })
		if _, err := env.Engine.Recover(); err == nil || !strings.Contains(err.Error(), "journal of task T-cut version 2 corrupt") {
			t.Fatalf("Recover = %v, want an error naming version 2 of T-cut", err)
		}
	})

	t.Run("corrupt process", func(t *testing.T) {
		s := store.NewMemory(store.Options{})
		ids := []string{"T-a", "T-bad", "T-b"}
		for i, id := range ids {
			var process []byte
			if id == "T-bad" {
				process = []byte(`{"name":"broken","activities":[{"id":"A1","kind":"Sideways"}]}`)
			}
			put(t, s, id, accepted(t, id, int64(i+1), process))
		}
		env := newEnv(t, func(opts *core.Options) { opts.Store = s })
		report, err := env.Engine.Recover()
		if err != nil || len(report.Requeued) != len(ids) {
			t.Fatalf("Recover = %+v, %v; want all %d tasks requeued", report, err, len(ids))
		}
		for _, id := range ids {
			st := waitTerminal(t, env.Engine, id)
			switch {
			case id == "T-bad" && (st.Status != engine.StatusFailed || !strings.Contains(st.Error, "journaled process of task T-bad corrupt")):
				t.Errorf("task %s ended %s (%q), want failed on its journaled process", id, st.Status, st.Error)
			case id != "T-bad" && st.Status != engine.StatusCompleted:
				t.Errorf("task %s ended %s (%q), want completed", id, st.Status, st.Error)
			}
		}
	})
}

// TestRecoverHonoursRetention restores five finished tasks on an engine that
// retains two: as after five finishes, the oldest three answer ErrEvicted and
// stay reserved, the newest two answer, and a second replay restores none of
// them again.
func TestRecoverHonoursRetention(t *testing.T) {
	shared := store.NewMemory(store.Options{})
	fence1 := store.NewFenced(shared)
	env1 := newEnv(t, func(opts *core.Options) { opts.Workers = 1; opts.Store = fence1 })
	ids := []string{"K1", "K2", "K3", "K4", "K5"}
	for _, id := range ids {
		if _, err := env1.Engine.Submit(engine.Submission{Task: forkTask(t, id), Priority: engine.PriorityNormal}); err != nil {
			t.Fatal(err)
		}
	}
	waitTerminal(t, env1.Engine, "K5") // one worker: K5 finishes last
	fence1.Fence()
	env1.Close()

	env2 := newEnv(t, func(opts *core.Options) {
		opts.Workers = 1
		opts.RetainFinished = 2
		opts.Store = store.NewFenced(shared)
	})
	for range 2 {
		if _, err := env2.Engine.Recover(); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids[:3] {
			if _, err := env2.Engine.Task(id); !errors.Is(err, engine.ErrEvicted) {
				t.Errorf("task %s err = %v, want ErrEvicted", id, err)
			}
		}
		for _, id := range ids[3:] {
			if st, err := env2.Engine.Task(id); err != nil || st.Status != engine.StatusCompleted {
				t.Errorf("task %s = %+v, %v", id, st, err)
			}
		}
	}
	if _, err := env2.Engine.Submit(engine.Submission{Task: forkTask(t, "K1"), Priority: engine.PriorityNormal}); !errors.Is(err, engine.ErrDuplicate) {
		t.Errorf("resubmit evicted err = %v, want ErrDuplicate", err)
	}
}
