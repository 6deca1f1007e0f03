package load

import (
	"math"
	"math/rand"

	"repro/internal/fairq"
	"repro/internal/sim"
)

// simTask is one simulated task flowing through the fair queue.
type simTask struct {
	tenant  int // index into spec.Tenants
	arrival float64
	service float64
}

// RunSim replays the spec's workload against the real fair-queue scheduling
// code (internal/fairq — the same deficit-round-robin queue the enactment
// engine drains) under a virtual clock: Workers simulated servers pull from
// the queue, service times are exponential draws, and every random draw
// comes from the spec's seed. Arrivals and completions are events on a
// sim.Engine, which breaks time ties by insertion order. The returned report
// is a pure function of the spec, so marshaling it yields byte-identical JSON
// run after run.
func RunSim(spec Spec) (*Report, error) {
	spec = spec.Defaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	report := &Report{Spec: spec, Tenants: make([]TenantReport, len(spec.Tenants))}
	latencies := make([][]float64, len(spec.Tenants))
	for i, t := range spec.Tenants {
		report.Tenants[i] = TenantReport{ID: t.ID, Weight: t.Weight}
	}

	weightOf := func(tenant string) int {
		for _, t := range spec.Tenants {
			if t.ID == tenant {
				return t.Weight
			}
		}
		return 1
	}
	fq := fairq.New[simTask](1, weightOf)

	// exp draws an exponential variate with the given mean.
	exp := func(mean float64) float64 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return -mean * math.Log(u)
	}

	// The engine only orders events; every draw comes from rng above.
	eng := sim.NewEngine(spec.Seed)

	// shares resolves the open-loop tenant mix: explicit Share when set,
	// weight-proportional otherwise, then normalized to a CDF.
	cdf := make([]float64, len(spec.Tenants))
	{
		total := 0.0
		for i, t := range spec.Tenants {
			s := t.Share
			if s <= 0 {
				w := t.Weight
				if w <= 0 {
					w = 1
				}
				s = float64(w)
			}
			cdf[i] = s
			total += s
		}
		acc := 0.0
		for i := range cdf {
			acc += cdf[i] / total
			cdf[i] = acc
		}
	}
	pickTenant := func() int {
		u := rng.Float64()
		for i, c := range cdf {
			if u <= c {
				return i
			}
		}
		return len(cdf) - 1
	}

	busy := 0
	var arrive, complete func(t simTask)
	admit := func(t simTask) {
		tr := &report.Tenants[t.tenant]
		tr.Submitted++
		report.Submitted++
		if fq.Len() >= spec.QueueCapacity {
			tr.Rejected++
			report.Rejected++
			return
		}
		tr.Accepted++
		report.Accepted++
		fq.Push(0, spec.Tenants[t.tenant].ID, t)
	}
	dispatch := func() {
		for busy < spec.Workers {
			t, ok := fq.Pop(nil)
			if !ok {
				return
			}
			busy++
			t.service = exp(spec.ServiceMeanSec)
			eng.Schedule(t.service, "complete", func() { complete(t) })
		}
	}
	arrive = func(t simTask) {
		t.arrival = eng.Now()
		admit(t)
		dispatch()
	}
	complete = func(t simTask) {
		busy--
		report.Completed++
		report.Tenants[t.tenant].Completed++
		latencies[t.tenant] = append(latencies[t.tenant], eng.Now()-t.arrival)
		if spec.Mode == "closed" {
			// The tenant immediately replaces its finished task, keeping
			// its window full until the completion target is reached.
			next := simTask{tenant: t.tenant}
			eng.Schedule(0, "arrive", func() { arrive(next) })
		}
		dispatch()
	}

	target := spec.Arrivals
	switch spec.Mode {
	case "open":
		// All arrivals are pre-drawn, so later completion-time draws cannot
		// perturb the arrival process.
		t := 0.0
		for i := 0; i < target; i++ {
			t += exp(1 / spec.RatePerSec)
			task := simTask{tenant: pickTenant()}
			eng.Schedule(t, "arrive", func() { arrive(task) })
		}
	case "closed":
		for ti := range spec.Tenants {
			for k := 0; k < spec.Outstanding; k++ {
				task := simTask{tenant: ti}
				eng.Schedule(0, "arrive", func() { arrive(task) })
			}
		}
	}

	for report.Completed < target && eng.Step() {
	}

	report.DurationSec = eng.Now()
	for i := range report.Tenants {
		report.Tenants[i].Latency = latencyStats(latencies[i])
	}
	report.finalize()
	return report, nil
}
