package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/pdl"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// soakPDL is a minimal one-activity case so each task costs microseconds and
// the soak stays fast even at hundreds of completions.
const soakPDL = `BEGIN, POD(D1, D7 -> D8), END`

func soakTask(id string) (*workflow.Task, error) {
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

// TestEngineSoakFairness keeps three tenants weighted 3:1:1 saturated
// (closed loop, window 8 each) against a 2-worker engine until 300 tasks
// complete, then checks every tenant's completed share lands within ±10%
// of its weight share and that the engine's own tenant books agree.
func TestEngineSoakFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const window, completions = 8, 300
	weights := map[string]int{"alpha": 3, "beta": 1, "gamma": 1}
	tenants := map[string]engine.TenantConfig{}
	totalWeight := 0
	for id, w := range weights {
		tenants[id] = engine.TenantConfig{Weight: w}
		totalWeight += w
	}
	env, err := NewEnvironment(Options{
		Catalog: virolab.Catalog(),
		Workers: 2,
		// Slow each activity enough that service time dominates the loop's
		// refill poll; otherwise the heavy tenant's window drains between
		// polls and fairness is bounded by the loop, not the scheduler.
		PostProcess: func(*workflow.Activity, []*workflow.DataItem, int) {
			time.Sleep(3 * time.Millisecond)
		},
		Tenants: tenants,
		// Retention must outlast the run so no poll loses its record.
		RetainFinished: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	// One goroutine per window slot submits a task, polls it to the end and
	// submits the next. Only the first 300 completions count, so the tail
	// that drains once the target is reached cannot even the shares out.
	var done atomic.Int64
	var mu sync.Mutex
	completed := map[string]int{}
	var wg sync.WaitGroup
	for tenant := range weights {
		for slot := 0; slot < window; slot++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 1; done.Load() < completions; n++ {
					id := fmt.Sprintf("%s-%d-%d", tenant, slot, n)
					task, err := soakTask(id)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := env.Engine.Submit(engine.Submission{Task: task, Priority: engine.PriorityNormal, Tenant: tenant}); err != nil {
						t.Errorf("task %s: %v", id, err)
						return
					}
					st, err := env.Engine.Task(id)
					for ; err == nil && st.Finished.IsZero(); st, err = env.Engine.Task(id) {
						time.Sleep(time.Millisecond)
					}
					if err != nil || st.Status != engine.StatusCompleted {
						t.Errorf("task %s ended %s: %v %s", id, st.Status, err, st.Error)
						return
					}
					if done.Add(1) <= completions {
						mu.Lock()
						completed[tenant]++
						mu.Unlock()
					}
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for tenant, w := range weights {
		share := float64(completed[tenant]) / completions
		want := float64(w) / float64(totalWeight)
		if dev := math.Abs(share-want) / want; dev > 0.10 {
			t.Errorf("fairness violated: tenant %s completed %d of %d (share %.3f, weight share %.3f, deviation %.3f > 0.10)",
				tenant, completed[tenant], completions, share, want, dev)
		}
		st, ok := env.Engine.Tenant(tenant)
		if !ok {
			t.Fatalf("engine lost tenant %s", tenant)
		}
		if st.Completed < int64(completed[tenant]) {
			t.Errorf("engine counts %d completions for %s, the loop saw %d", st.Completed, tenant, completed[tenant])
		}
		if st.Weight != w {
			t.Errorf("engine weight %d for %s, want %d", st.Weight, tenant, w)
		}
	}
}
