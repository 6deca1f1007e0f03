package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pdl"
	"repro/internal/planner"
	"repro/internal/virolab"
)

// planPool is how many GP seeds (1..planPool) make up one pool of cold plans;
// a pool is one sample. One Table-1 GP run costs between 0.6x and 1.4x the
// mean depending on its seed, and a run has time for about a dozen: were every
// run to draw its own seeds, or to stop part-way through a set, no bound
// under 0.25 would hold on any per-plan metric. So every sample plans the
// same cases — the seeds are verified to reach fv = fg = 1 — on a planning
// service of its own, which makes each of them a natural cache miss (the
// seed is part of the canonical key) with no NoCache switch, and --seed
// shuffles only the order they are submitted in.
const planPool = 4

// runPlanCold: closed loop, 2 clients with one plan outstanding each, cold
// plans through planner.Service.Submit/Wait at the Table-1 parameters. The
// clients draw from a pool until it is empty; whole pools run until the
// window is over.
func runPlanCold(cfg Config, traced bool) (*outcome, error) {
	opts := core.Options{Catalog: virolab.Catalog(), Planner: cfg.PlanParams}
	env, setup, err := timeSetups(cfg,
		func(int) (*core.Environment, error) { return core.NewEnvironment(opts) },
		(*core.Environment).Close)
	if err != nil {
		return nil, err
	}
	env.Close() // every pool below plans on an environment of its own
	out := &outcome{setup: setup, layer: metricSet{}, info: map[string]any{}}

	problem := virolab.Problem()
	type planned struct {
		seed int64
		st   planner.PlanStatus
		err  error
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var runMs, waitMs, evals []float64
	var hits, misses int64
	digest := ""
	begin := time.Now()
	end := begin.Add(seconds(cfg.Seconds))
	for pool := 1; pool == 1 || time.Now().Before(end); pool++ {
		env, err := core.NewEnvironment(opts)
		if err != nil {
			return nil, err
		}
		order := rng.Perm(planPool)
		var next atomic.Int64
		done := make([][]planned, clients)
		p0 := readProc()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := next.Add(1) - 1; i < planPool; i = next.Add(1) - 1 {
					params := cfg.PlanParams
					params.Seed = int64(order[i]) + 1
					p := planned{seed: params.Seed}
					p.st, p.err = env.Planner.Submit(context.Background(), planner.PlanSpec{
						ID:      fmt.Sprintf("cold-%d-%d", pool, params.Seed),
						Initial: problem.Initial.Items(),
						Goal:    problem.Goal.Conditions,
						Params:  &params,
					})
					if p.err == nil {
						p.st, p.err = env.Planner.Wait(context.Background(), p.st.ID)
					}
					done[c] = append(done[c], p)
				}
			}(c)
		}
		wg.Wait()
		p1 := readProc()
		smp := sample{}
		smp.proc.add(p0, p1)
		out.proc.add(p0, p1)

		pdls := map[int64]string{}
		for _, p := range slices.Concat(done...) {
			out.attempted++
			switch {
			case p.err != nil:
				out.fail("plan seed %d: %v", p.seed, p.err)
			case p.st.Status != planner.StatusSucceeded:
				out.fail("plan seed %d ended %s: %s", p.seed, p.st.Status, p.st.Error)
			case p.st.CacheHit:
				out.fail("plan seed %d hit the plan cache", p.seed)
			case p.st.Eval.FV < 1 || p.st.Eval.FG < 1:
				out.fail("plan seed %d: fv=%g fg=%g, want 1 and 1", p.seed, p.st.Eval.FV, p.st.Eval.FG)
			default:
				if _, err := pdl.ParseProcess("replay", p.st.PDL); err != nil {
					out.fail("plan seed %d: PDL does not re-parse: %v", p.seed, err)
					continue
				}
				out.completed++
				smp.ops++
				out.latency = append(out.latency, ms(p.st.Finished.Sub(p.st.Submitted)))
				runMs = append(runMs, ms(p.st.Finished.Sub(p.st.Started)))
				waitMs = append(waitMs, ms(p.st.Started.Sub(p.st.Submitted)))
				evals = append(evals, float64(p.st.Evaluations))
				pdls[p.seed] = p.st.PDL
				if traced {
					root := len(out.spans) + 1
					since := func(t time.Time) int64 { return t.Sub(begin).Nanoseconds() }
					id := p.st.ID
					out.spans = append(out.spans,
						span{ID: root, Op: id, Name: "op", StartNs: since(p.st.Submitted), EndNs: since(p.st.Finished)},
						span{ID: root + 1, Parent: root, Op: id, Name: "planner.queue_wait", StartNs: since(p.st.Submitted), EndNs: since(p.st.Started)},
						span{ID: root + 2, Parent: root, Op: id, Name: "planner.run", StartNs: since(p.st.Started), EndNs: since(p.st.Finished)})
				}
			}
		}
		out.samples = append(out.samples, smp)

		// The digest pins seeded bit-identity: sha256 over seed -> PDL of
		// the pool, comparable across commits and seeds; every pool of a
		// run must come to the same one.
		h := sha256.New()
		for seed := int64(1); seed <= planPool; seed++ {
			fmt.Fprintf(h, "%d\n%s\n", seed, pdls[seed])
		}
		if d := hex.EncodeToString(h.Sum(nil)); digest == "" {
			digest = d
		} else if d != digest {
			out.fail("pool %d: plan digest %s differs from the first pool's %s", pool, d, digest)
		}
		stats := env.Planner.Stats()
		hits, misses = hits+stats.CacheHits, misses+stats.CacheMisses
		if pool == 1 {
			runtimeLayer(out.layer, out.proc)
		}
		env.Close()
	}
	out.info["plan_digest"] = digest
	out.info["plans"] = out.completed
	out.info["pools"] = len(out.samples)

	n := float64(max(out.completed, 1))
	out.budget = []budgetRow{{"planner.queue_wait", median(waitMs)}, {"planner.run", median(runMs)}}
	out.layer["planner.cold_plan_ms_p50"] = median(runMs)
	out.layer["planner.queue_wait_ms_p50"] = median(waitMs)
	out.layer["planner.evals_per_plan"] = mean(evals)
	out.layer["planner.allocs_per_plan"] = float64(out.proc.mallocs) / n
	out.layer["planner.alloc_mb_per_plan"] = float64(out.proc.allocBytes) / (1 << 20) / n
	out.layer["planner.cache_hits"] = float64(hits)
	out.layer["planner.cache_misses"] = float64(misses)
	out.layer["client.latency_p95_ms"] = quantile(out.latency, 0.95)
	out.layer["client.latency_p99_ms"] = quantile(out.latency, 0.99)
	out.layer["client.latency_max_ms"] = quantile(out.latency, 1)
	out.layer["client.failed_share"] = float64(out.attempted-out.completed) / float64(max(out.attempted, 1))
	return out, nil
}

// plannerLayer fills the planner.* metrics a task workload can see from the
// planning service's own listing: the re-plans behind replan_mix, split
// into incremental runs and plan-cache hits.
func plannerLayer(m metricSet, plans []planner.PlanStatus) {
	var incMs, hitUs, waitMs, evals []float64
	for _, p := range plans {
		switch {
		case p.Status != planner.StatusSucceeded:
		case p.CacheHit:
			hitUs = append(hitUs, us(p.Finished.Sub(p.Submitted)))
		default:
			waitMs = append(waitMs, ms(p.Started.Sub(p.Submitted)))
			evals = append(evals, float64(p.Evaluations))
			if p.Incremental {
				incMs = append(incMs, ms(p.Finished.Sub(p.Started)))
			}
		}
	}
	m["planner.incremental_ms_p50"] = median(incMs)
	m["planner.cache_hit_us_p50"] = median(hitUs)
	m["planner.queue_wait_ms_p50"] = median(waitMs)
	m["planner.evals_per_plan"] = mean(evals)
}
