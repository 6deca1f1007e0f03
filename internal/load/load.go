// Package load is the deterministic load-generation harness behind
// cmd/gridload. A Spec describes a seeded multi-tenant workload — open-loop
// (Poisson arrivals at a fixed aggregate rate) or closed-loop (a fixed
// number of outstanding tasks per tenant, the saturation shape used for
// fairness assertions) — and RunSim (sim.go) replays it against the real
// fair-queue scheduling code under a virtual clock, producing a Report with
// per-tenant goodput shares, latency statistics, and fairness indices. The
// same seed always yields a byte-identical JSON report. RunCostMix
// (costmix.go) is the cost-aware scheduling scenario on the same clock.
//
// Wall-clock load on the real enactment path is the benchmark client's job
// (benchmark/), not this package's.
package load

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Spec is one workload description. The zero value is not runnable; use
// Defaults or fill the fields and call Validate.
type Spec struct {
	// Seed drives every random draw (arrival spacing, tenant mix, service
	// times). Same seed, same spec → same report, byte for byte.
	Seed int64 `json:"seed"`
	// Mode is "closed" (Outstanding tasks per tenant kept in flight until
	// Arrivals completions — saturates the queue) or "open" (Poisson
	// arrivals at RatePerSec until Arrivals submissions).
	Mode string `json:"mode"`
	// Tenants is the per-tenant mix; at least one is required.
	Tenants []TenantSpec `json:"tenants"`
	// Arrivals is the total task count: submissions generated in open mode,
	// completions targeted in closed mode.
	Arrivals int `json:"arrivals"`
	// RatePerSec is the aggregate open-loop arrival rate.
	RatePerSec float64 `json:"ratePerSec,omitempty"`
	// Outstanding is the closed-loop in-flight window per tenant.
	Outstanding int `json:"outstanding,omitempty"`
	// Workers is the number of simulated servers draining the queue.
	Workers int `json:"workers"`
	// QueueCapacity bounds the simulated admission queue.
	QueueCapacity int `json:"queueCapacity"`
	// ServiceMeanSec is the simulated per-task service time mean
	// (exponentially distributed).
	ServiceMeanSec float64 `json:"serviceMeanSec"`
}

// TenantSpec is one tenant's slice of the workload.
type TenantSpec struct {
	ID string `json:"id"`
	// Weight is the fair-share weight the scheduler grants the tenant.
	Weight int `json:"weight"`
	// Share is the tenant's fraction of open-loop arrivals; 0 means
	// weight-proportional.
	Share float64 `json:"share,omitempty"`
}

// Defaults fills a runnable closed-loop baseline: 4 simulated workers,
// saturation window 8 per tenant, 1000 completions, 50 ms mean service.
func (s Spec) Defaults() Spec {
	if s.Mode == "" {
		s.Mode = "closed"
	}
	if s.Arrivals <= 0 {
		s.Arrivals = 1000
	}
	if s.Workers <= 0 {
		s.Workers = 4
	}
	if s.Outstanding <= 0 {
		s.Outstanding = 8
	}
	if s.RatePerSec <= 0 {
		s.RatePerSec = 100
	}
	if s.ServiceMeanSec <= 0 {
		s.ServiceMeanSec = 0.05
	}
	if s.QueueCapacity <= 0 {
		// Closed loops must never hit the cap (a rejected replacement would
		// shrink the tenant's window for good), so size it to the windows.
		s.QueueCapacity = 256
		if n := len(s.Tenants) * s.Outstanding * 2; n > s.QueueCapacity {
			s.QueueCapacity = n
		}
	}
	return s
}

// Validate rejects specs RunSim cannot run.
func (s Spec) Validate() error {
	if s.Mode != "open" && s.Mode != "closed" {
		return fmt.Errorf("load: mode must be open or closed, got %q", s.Mode)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("load: at least one tenant is required")
	}
	seen := map[string]bool{}
	for _, t := range s.Tenants {
		if t.ID == "" {
			return fmt.Errorf("load: tenant with empty ID")
		}
		if seen[t.ID] {
			return fmt.Errorf("load: duplicate tenant %q", t.ID)
		}
		seen[t.ID] = true
		if t.Weight < 0 || t.Share < 0 {
			return fmt.Errorf("load: tenant %q has negative weight or share", t.ID)
		}
	}
	if s.Arrivals <= 0 {
		return fmt.Errorf("load: arrivals must be positive")
	}
	if s.Mode == "open" && s.RatePerSec <= 0 {
		return fmt.Errorf("load: open mode needs ratePerSec > 0")
	}
	if s.Mode == "closed" && s.Outstanding <= 0 {
		return fmt.Errorf("load: closed mode needs outstanding > 0")
	}
	return nil
}

// ParseTenants parses the -tenants CLI syntax: a comma-separated list of
// id:weight or id:weight:share entries, e.g. "alpha:3,beta:1,gamma:1".
func ParseTenants(s string) ([]TenantSpec, error) {
	var out []TenantSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("load: tenant %q: want id:weight[:share]", part)
		}
		w, err := strconv.Atoi(fields[1])
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("load: tenant %q: bad weight %q", part, fields[1])
		}
		t := TenantSpec{ID: fields[0], Weight: w}
		if len(fields) == 3 {
			sh, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || sh < 0 {
				return nil, fmt.Errorf("load: tenant %q: bad share %q", part, fields[2])
			}
			t.Share = sh
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("load: no tenants in %q", s)
	}
	return out, nil
}

// Report is the harness output: totals, per-tenant goodput and latency, and
// fairness indices over completed work.
type Report struct {
	Spec        Spec    `json:"spec"`
	DurationSec float64 `json:"durationSec"`

	Submitted int `json:"submitted"`
	Accepted  int `json:"accepted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`

	Tenants []TenantReport `json:"tenants"`

	// JainFairnessIndex is Jain's index over per-tenant weight-normalized
	// goodput (completed/weight): 1.0 is perfectly weight-proportional,
	// 1/n is maximally unfair.
	JainFairnessIndex float64 `json:"jainFairnessIndex"`
	// MaxWeightDeviation is the worst relative deviation of any tenant's
	// goodput share from its weight share.
	MaxWeightDeviation float64 `json:"maxWeightDeviation"`
}

// TenantReport is one tenant's slice of the outcome.
type TenantReport struct {
	ID        string `json:"id"`
	Weight    int    `json:"weight"`
	Submitted int    `json:"submitted"`
	Accepted  int    `json:"accepted"`
	Rejected  int    `json:"rejected"`
	Completed int    `json:"completed"`

	// GoodputShare is completed / total completed; WeightShare is
	// weight / total weight; Deviation is their relative difference.
	GoodputShare float64 `json:"goodputShare"`
	WeightShare  float64 `json:"weightShare"`
	Deviation    float64 `json:"deviation"`

	Latency LatencyStats `json:"latency"`
}

// LatencyStats summarizes per-task sojourn times (submission to completion)
// in seconds.
type LatencyStats struct {
	Count   int     `json:"count"`
	MeanSec float64 `json:"meanSec"`
	P50Sec  float64 `json:"p50Sec"`
	P95Sec  float64 `json:"p95Sec"`
	P99Sec  float64 `json:"p99Sec"`
	MaxSec  float64 `json:"maxSec"`
}

// latencyStats computes nearest-rank percentiles; mutates (sorts) samples.
func latencyStats(samples []float64) LatencyStats {
	s := LatencyStats{Count: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sort.Float64s(samples)
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	rank := func(p float64) float64 {
		i := int(p*float64(len(samples))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(samples) {
			i = len(samples) - 1
		}
		return samples[i]
	}
	s.MeanSec = sum / float64(len(samples))
	s.P50Sec = rank(0.50)
	s.P95Sec = rank(0.95)
	s.P99Sec = rank(0.99)
	s.MaxSec = samples[len(samples)-1]
	return s
}

// finalize fills the derived fields (shares, deviations, fairness indices)
// from the per-tenant raw counts already present.
func (r *Report) finalize() {
	totalWeight, totalCompleted := 0, 0
	for _, t := range r.Tenants {
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		totalWeight += w
		totalCompleted += t.Completed
	}
	sumX, sumX2 := 0.0, 0.0
	for i := range r.Tenants {
		t := &r.Tenants[i]
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		t.WeightShare = float64(w) / float64(totalWeight)
		if totalCompleted > 0 {
			t.GoodputShare = float64(t.Completed) / float64(totalCompleted)
		}
		t.Deviation = (t.GoodputShare - t.WeightShare) / t.WeightShare
		x := float64(t.Completed) / float64(w)
		sumX += x
		sumX2 += x * x
		dev := t.Deviation
		if dev < 0 {
			dev = -dev
		}
		if dev > r.MaxWeightDeviation {
			r.MaxWeightDeviation = dev
		}
	}
	if sumX2 > 0 {
		n := float64(len(r.Tenants))
		r.JainFairnessIndex = (sumX * sumX) / (n * sumX2)
	}
}
