package engine_test

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coordination"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/store"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// fig10Activities is how many activities one Figure-10 enactment executes
// under the default resolution schedule: POD, P3DR, then three refinement
// passes of POR, a three-way FORK and PSF.
const fig10Activities = 17

// fenceAfter is a store handle that lets a fixed number of mutations through
// and then fences itself: a kill -9 right after the k-th write reached the
// store. Mutations are serialized, so no write slips in between the k-th and
// the fence.
type fenceAfter struct {
	*store.Fenced
	k int // fence after this many mutations; 0 = never

	mu  sync.Mutex
	n   int
	cut chan struct{} // closed when the fence drops
}

func newFenceAfter(backend store.Store, k int) *fenceAfter {
	return &fenceAfter{Fenced: store.NewFenced(backend), k: k, cut: make(chan struct{})}
}

// Kind reports a durable backend: the shared memory is the crash image, so
// a write that returned has survived the crash, as on file:. The engine
// therefore hands terminal commits off as it does on a file store.
func (f *fenceAfter) Kind() string { return "file" }

func (f *fenceAfter) mutate(write func() (int, error)) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ver, err := write()
	if err == nil {
		if f.n++; f.n == f.k {
			f.Fence()
			close(f.cut)
		}
	}
	return ver, err
}

func (f *fenceAfter) Put(key string, value []byte) (int, error) {
	return f.mutate(func() (int, error) { return f.Fenced.Put(key, value) })
}

func (f *fenceAfter) PutAsync(key string, value []byte) (int, error) {
	return f.mutate(func() (int, error) { return f.Fenced.PutAsync(key, value) })
}

func (f *fenceAfter) Replace(key string, value []byte) (int, error) {
	return f.mutate(func() (int, error) { return f.Fenced.Replace(key, value) })
}

func (f *fenceAfter) Delete(key string) error {
	_, err := f.mutate(func() (int, error) { return 0, f.Fenced.Delete(key) })
	return err
}

func (f *fenceAfter) mutations() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// TestCrashAtEveryJournalWrite enumerates the crash points of the durable
// write path: three Figure-10 tasks with checkpointing on run against a
// store that dies right after its k-th mutation, for every k there is, and a
// second environment recovers what the first left. Whatever k, every task
// acknowledged before the crash finishes exactly once, nothing a checkpoint
// covers is enacted again, a checkpoint that reached the store is used, the
// tenant is charged once, and every journal folds to one terminal snapshot.
// Before that it pins what the path costs: at most 14 store mutations per
// task — accepted, started, eleven checkpoints, the terminal snapshot — and
// that the two workers hand terminal commits off, so the crash points fall
// on that path too.
func TestCrashAtEveryJournalWrite(t *testing.T) {
	ids := []string{"T-a", "T-b", "T-c"}
	reliable := grid.DefaultSyntheticConfig()
	reliable.FailureRate = 0 // no retries: activity executions are exact
	// life starts an environment over handle and counts activity executions;
	// no activity runs before ready closes.
	life := func(t *testing.T, handle store.Store, calls *atomic.Int64, ready <-chan struct{}) *core.Environment {
		resolve := virolab.ResolutionHook(nil)
		return newEnv(t, func(opts *core.Options) {
			opts.GridConfig = &reliable
			opts.Workers = 2
			opts.Checkpoint = true
			opts.Store = handle
			opts.PostProcess = func(act *workflow.Activity, produced []*workflow.DataItem, visit int) {
				<-ready
				calls.Add(1)
				resolve(act, produced, visit)
			}
		})
	}
	// submit sends the three tasks and returns the acknowledged ones.
	submit := func(env *core.Environment) (acked []string) {
		for _, id := range ids {
			task := virolab.Task()
			task.ID = id
			if _, err := env.Engine.Submit(engine.Submission{Task: task, Priority: engine.PriorityNormal}); err == nil {
				acked = append(acked, id)
			}
		}
		return acked
	}

	// The uninterrupted run holds the first activities until all three tasks
	// are queued, so the first worker to finish finds T-c waiting and hands
	// its commit off.
	var calls atomic.Int64
	whole := newFenceAfter(store.NewMemory(store.Options{}), 0)
	queued := make(chan struct{})
	env := life(t, whole, &calls, queued)
	acked := submit(env)
	close(queued)
	unheld := queued
	for _, id := range acked {
		if st := waitTerminal(t, env.Engine, id); st.Status != engine.StatusCompleted {
			t.Fatalf("uninterrupted task %s = %+v", id, st)
		}
	}
	handoffs := env.Telemetry.Counter("engine.journal.handoffs").Value()
	env.Close()
	if handoffs == 0 {
		t.Fatal("no terminal commit was handed off: the crash points miss the hand-off path")
	}
	total := whole.mutations()
	if total > 14*len(ids) || calls.Load() != int64(fig10Activities*len(ids)) {
		t.Fatalf("%d tasks cost %d store mutations and %d activity executions, want at most %d and exactly %d",
			len(ids), total, calls.Load(), 14*len(ids), fig10Activities*len(ids))
	}

	for k := 1; k <= total; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			shared := store.NewMemory(store.Options{})
			doomed := newFenceAfter(shared, k)
			var calls1, calls2 atomic.Int64
			env1 := life(t, doomed, &calls1, unheld)
			acked := submit(env1)
			select {
			case <-doomed.cut:
			case <-time.After(30 * time.Second):
				t.Fatalf("mutation %d never happened (%d did)", k, doomed.mutations())
			}
			// The doomed life runs on as a zombie whose writes all fail.
			for _, id := range acked {
				waitTerminal(t, env1.Engine, id)
			}
			env1.Close()

			// What the crash left: per journal, is it terminal, and how far
			// does its checkpoint reach.
			journals := shared.Keys(engine.JournalPrefix)
			if len(journals) != len(acked) {
				t.Fatalf("crash image holds journals %v, acknowledged %v", journals, acked)
			}
			var wantCalls int64
			wantResumed := map[string]bool{}
			for _, id := range acked {
				recs, err := engine.ReadJournal(shared, id)
				if err != nil || len(recs) == 0 {
					t.Fatalf("acknowledged task %s has no journal (%v)", id, err)
				}
				if last := recs[len(recs)-1]; last.Event == engine.EventSnapshot {
					continue
				}
				wantCalls += fig10Activities
				if cp, err := coordination.LoadCheckpointVersion(shared, id, 0); err == nil {
					wantCalls -= int64(cp.Executed)
					wantResumed[id] = true
				}
			}

			env2 := life(t, store.NewFenced(shared), &calls2, unheld)
			report, err := env2.Engine.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if report.Total()+report.Terminal != len(acked) {
				t.Fatalf("recovery report %+v does not cover the %d acknowledged tasks once each", report, len(acked))
			}
			if len(report.Resumed) != len(wantResumed) {
				t.Errorf("resumed %v, but the store holds checkpoints of %v", report.Resumed, wantResumed)
			}
			for _, id := range report.Resumed {
				if !wantResumed[id] {
					t.Errorf("task %s resumed without a checkpoint in the store", id)
				}
			}
			reran := map[string]bool{}
			for _, id := range append(append(append([]string(nil), report.Requeued...), report.Resumed...), report.Restarted...) {
				reran[id] = true
			}
			var spent float64
			for _, id := range acked {
				st := waitTerminal(t, env2.Engine, id)
				if st.Status != engine.StatusCompleted {
					t.Errorf("task %s = %+v", id, st)
				}
				if reran[id] {
					if st.Report == nil || st.Report.Executed != fig10Activities {
						t.Fatalf("task %s report = %+v, want %d executed", id, st.Report, fig10Activities)
					}
					spent += st.Report.TotalCost
				} else if st.Attempt != 1 || st.Report != nil {
					t.Errorf("task %s finished before the crash, yet ran again: %+v", id, st)
				}
				recs, err := engine.ReadJournal(shared, id)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) != 1 || recs[0].Event != engine.EventSnapshot || recs[0].Status != engine.StatusCompleted {
					t.Errorf("journal of %s = %+v, want one completed snapshot", id, recs)
				}
			}
			if got := calls2.Load(); got != wantCalls {
				t.Errorf("second-life activity executions = %d, want %d (everything past the checkpoints, nothing before)", got, wantCalls)
			}
			if ts, ok := env2.Engine.Tenant(engine.DefaultTenant); len(reran) > 0 && (!ok || math.Abs(ts.SpentCost-spent) > 1e-9) {
				t.Errorf("tenant spent %v, want one accrual per re-run task = %v", ts.SpentCost, spent)
			}
		})
	}
}
