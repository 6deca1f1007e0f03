package load

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/workflow"
)

// Target is the system a live run drives: an in-process enactment engine
// (EngineTarget) or gridenv nodes over HTTP (HTTPTarget). RunLive calls it
// from one goroutine.
type Target interface {
	// Submit builds and submits the tenant's n-th task (n counts up from 1
	// per tenant). accepted is false when the target refused the task under
	// back-pressure — a rejection the report counts, not an error.
	Submit(tenant string, n int) (id string, accepted bool, err error)
	// Poll reports whether an accepted task has reached a terminal state,
	// whether it succeeded, and its submission-to-completion latency. A
	// negative latency means the sample is lost: the target evicted the
	// finished record before it was polled.
	Poll(id string) (done, succeeded bool, latency time.Duration, err error)
}

const (
	// pollInterval spaces the completion polls of a live run.
	pollInterval = 2 * time.Millisecond
	// runTimeout aborts a stuck live run.
	runTimeout = 120 * time.Second
)

// RunLive drives target with the spec's arrival pattern and measures
// wall-clock goodput and latency. Closed mode keeps spec.Outstanding tasks
// in flight per tenant until spec.Arrivals tasks have completed; open mode
// submits spec.Arrivals tasks at the spec's Poisson rate and then drains.
// Unlike RunSim, the report depends on real scheduling and service times,
// so it is not byte-reproducible — use it for soak tests with tolerance
// bounds.
func RunLive(target Target, spec Spec) (*Report, error) {
	spec = spec.Defaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	report := &Report{Spec: spec, Tenants: make([]TenantReport, len(spec.Tenants))}
	latencies := make([][]float64, len(spec.Tenants))
	inFlight := make([]int, len(spec.Tenants)) // per-tenant outstanding count
	outstanding := map[string]int{}            // task ID → tenant index
	for i, t := range spec.Tenants {
		report.Tenants[i] = TenantReport{ID: t.ID, Weight: t.Weight}
	}

	submit := func(ti int) error {
		tr := &report.Tenants[ti]
		id, accepted, err := target.Submit(tr.ID, tr.Submitted+1)
		if err != nil {
			return fmt.Errorf("load: submit for tenant %s: %w", tr.ID, err)
		}
		tr.Submitted++
		report.Submitted++
		if accepted {
			tr.Accepted++
			report.Accepted++
			outstanding[id] = ti
			inFlight[ti]++
		} else {
			tr.Rejected++
			report.Rejected++
		}
		return nil
	}

	// reap records the outstanding tasks that have finished.
	reap := func() error {
		for id, ti := range outstanding {
			done, succeeded, latency, err := target.Poll(id)
			if err != nil {
				return fmt.Errorf("load: poll %s: %w", id, err)
			}
			if !done {
				continue
			}
			delete(outstanding, id)
			inFlight[ti]--
			if succeeded {
				report.Tenants[ti].Completed++
				report.Completed++
				if latency >= 0 {
					latencies[ti] = append(latencies[ti], latency.Seconds())
				}
			}
		}
		return nil
	}

	start := time.Now()
	deadline := start.Add(runTimeout)
	// wait lets one poll interval pass and reaps, until the run times out.
	wait := func() error {
		if time.Now().After(deadline) {
			return fmt.Errorf("load: %s-loop run timed out at %d/%d completions with %d tasks outstanding",
				spec.Mode, report.Completed, spec.Arrivals, len(outstanding))
		}
		time.Sleep(pollInterval)
		return reap()
	}
	switch spec.Mode {
	case "closed":
		for {
			// Fill every tenant's window (initially empty; later a
			// completion, rejection or failure shrank it).
			for ti := range spec.Tenants {
				for need := spec.Outstanding - inFlight[ti]; need > 0 && report.Completed < spec.Arrivals; need-- {
					if err := submit(ti); err != nil {
						return nil, err
					}
				}
			}
			if report.Completed >= spec.Arrivals {
				break
			}
			if err := wait(); err != nil {
				return nil, err
			}
		}
	case "open":
		rng := rand.New(rand.NewSource(spec.Seed))
		for i := 0; i < spec.Arrivals; i++ {
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			time.Sleep(time.Duration(-math.Log(u) / spec.RatePerSec * float64(time.Second)))
			if err := submit(i % len(spec.Tenants)); err != nil {
				return nil, err
			}
			if err := reap(); err != nil {
				return nil, err
			}
		}
		for len(outstanding) > 0 {
			if err := wait(); err != nil {
				return nil, err
			}
		}
	}

	report.DurationSec = time.Since(start).Seconds()
	for i := range report.Tenants {
		report.Tenants[i].Latency = latencyStats(latencies[i])
	}
	report.finalize()
	return report, nil
}

// TaskFactory builds the n-th synthetic task for a tenant. IDs must be
// unique across the run.
type TaskFactory func(tenant string, n int) (*workflow.Task, error)

// EngineTarget submits newTask's tasks to an in-process enactment engine at
// normal priority (what an HTTP submission without a priority gets), and
// reads latency off the engine's own submitted/finished timestamps.
func EngineTarget(eng *engine.Engine, newTask TaskFactory) Target {
	return &engineTarget{eng: eng, newTask: newTask}
}

type engineTarget struct {
	eng     *engine.Engine
	newTask TaskFactory
}

func (t *engineTarget) Submit(tenant string, n int) (string, bool, error) {
	task, err := t.newTask(tenant, n)
	if err != nil {
		return "", false, err
	}
	_, err = t.eng.Submit(engine.Submission{Task: task, Priority: engine.PriorityNormal, Tenant: tenant})
	switch {
	case err == nil:
		return task.ID, true, nil
	case errors.Is(err, engine.ErrQueueFull),
		errors.Is(err, engine.ErrTenantQueueFull),
		errors.Is(err, engine.ErrTenantRateLimited):
		return task.ID, false, nil
	}
	return "", false, err
}

func (t *engineTarget) Poll(id string) (done, succeeded bool, latency time.Duration, err error) {
	st, err := t.eng.Task(id)
	if errors.Is(err, engine.ErrEvicted) {
		// Retention dropped the record before we polled it; count the
		// completion but lose the latency sample.
		return true, true, -1, nil
	}
	if err != nil {
		return false, false, 0, err
	}
	switch st.Status {
	case engine.StatusCompleted:
		return true, true, st.Finished.Sub(st.Submitted), nil
	case engine.StatusFailed, engine.StatusCancelled:
		return true, false, 0, nil
	}
	return false, false, 0, nil
}
