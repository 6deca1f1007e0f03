package planner

// The plan cache generalizes the per-run fitness cache one level up: where
// the Evaluator memoizes tree → fitness within a run, the PlanCache
// memoizes case → finished plan across runs. A "case" is canonicalized so
// that requests differing only in the order of their goal conditions,
// initial data items, or constraints share one entry, while any change to
// the constraint set — or to a result-affecting GP parameter — keys a
// fresh plan.

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"sync"

	"repro/internal/workflow"
)

// CanonicalKey derives the plan-cache key from a case description: the
// sorted goal set, sorted initial data items (rendered with sorted
// properties), sorted constraints, sorted excluded services, and the
// result-affecting GP parameters. The failed plan of an incremental re-plan
// is deliberately excluded — it is a hint that changes how fast a plan is
// found, and a cached plan for the same case is exactly the answer a re-plan
// wants when it is still executable.
// EvalWorkers is also excluded: the planned result is bit-identical at any
// worker count.
// The hashed text spells each list and parameter as fmt's %q, %d, %g and %t.
func CanonicalKey(initial []*workflow.DataItem, goal, constraints, excluded []string, p Params) string {
	var b, item []byte
	var sorted []string
	section := func(name string, vals []string) {
		sorted = append(sorted[:0], vals...)
		slices.Sort(sorted)
		b = append(strconv.AppendInt(append(append(b, name...), '/'), int64(len(sorted)), 10), '\n')
		for _, v := range sorted {
			b = append(strconv.AppendQuote(b, v), '\n')
		}
	}
	items := make([]string, 0, len(initial))
	for _, it := range initial {
		if it != nil {
			item = it.Append(item[:0])
			items = append(items, string(item))
		}
	}
	section("initial", items)
	section("goal", goal)
	section("constraints", constraints)
	section("excluded", excluded)
	ints := func(vs ...int64) {
		for _, v := range vs {
			b = strconv.AppendInt(append(b, '/'), v, 10)
		}
	}
	floats := func(vs ...float64) {
		for _, v := range vs {
			b = strconv.AppendFloat(append(b, '/'), v, 'g', -1, 64)
		}
	}
	b = append(b, "params"...)
	ints(int64(p.PopulationSize), int64(p.Generations))
	floats(p.CrossoverRate, p.MutationRate)
	ints(int64(p.Smax))
	floats(p.WV, p.WG, p.WR)
	b = append(append(b, '/'), p.Selection.String()...)
	ints(int64(p.Elites), int64(p.MaxLoopUnroll), int64(p.MaxFlows))
	b = strconv.AppendBool(append(b, '/'), p.StopOnPerfect)
	ints(p.Seed)
	floats(p.MaxCost, p.MaxTime)
	sum := sha256.Sum256(append(b, '\n'))
	return string(hex.AppendEncode(append(b[:0], "case:"...), sum[:]))
}

// PlanResult is a finished plan as the cache stores it: the formatted PDL,
// the validated process description it formats, the canonical tree
// rendering, its evaluation, and the services the plan uses (the
// invalidation index). Process is shared by every hit: read it, never
// change it.
type PlanResult struct {
	PDL      string
	Process  *workflow.ProcessDescription
	Tree     string
	Eval     Evaluation
	Services []string
}

// PlanCache is a bounded, invalidatable case → plan memo shared by all
// workers of a planning service. All methods are goroutine-safe.
type PlanCache struct {
	mu      sync.Mutex
	limit   int
	entries map[string]PlanResult
	order   []string // insertion order for oldest-half trims
	// uses counts the cached plans that use each service, so the invalidation
	// of a service no cached plan uses — every Figure-3 re-plan after the
	// first for the same dead service — does not scan the entries.
	uses map[string]int

	hits          int64
	misses        int64
	invalidations int64
}

// NewPlanCache builds a cache bounded to limit entries; past it the oldest
// half is dropped (same policy as the fitness cache).
func NewPlanCache(limit int) *PlanCache {
	return &PlanCache{limit: limit, entries: make(map[string]PlanResult), uses: make(map[string]int)}
}

// count adds delta to the use count of each distinct service of r.
func (c *PlanCache) count(r PlanResult, delta int) {
	for i, svc := range r.Services {
		if !slices.Contains(r.Services[:i], svc) {
			c.uses[svc] += delta
		}
	}
}

// Get looks the key up, counting the hit or miss.
func (c *PlanCache) Get(key string) (PlanResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return r, ok
}

// Put stores a finished plan, trimming the oldest half when full.
func (c *PlanCache) Put(key string, r PlanResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.count(old, -1)
	} else {
		c.order = append(c.order, key)
	}
	c.entries[key] = r
	c.count(r, +1)
	if len(c.entries) <= c.limit {
		return
	}
	keep := c.order[len(c.order)/2:]
	for _, k := range c.order[:len(c.order)/2] {
		c.count(c.entries[k], -1)
		delete(c.entries, k)
	}
	c.order = append([]string(nil), keep...)
}

// InvalidateService drops every cached plan that uses the named service
// and returns how many were dropped — the hook the planning agent calls
// when brokerage verifies a service is non-executable (Figure 3), so stale
// plans never short-circuit a re-plan onto a dead service.
func (c *PlanCache) InvalidateService(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.uses[name] == 0 {
		return 0
	}
	dropped := 0
	for key, r := range c.entries {
		if slices.Contains(r.Services, name) {
			c.count(r, -1)
			delete(c.entries, key)
			dropped++
		}
	}
	if dropped > 0 {
		c.invalidations += int64(dropped)
		keep := c.order[:0]
		for _, k := range c.order {
			if _, ok := c.entries[k]; ok {
				keep = append(keep, k)
			}
		}
		c.order = keep
	}
	return dropped
}

// Len reports the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Counters reports lifetime hits, misses, and invalidated entries.
func (c *PlanCache) Counters() (hits, misses, invalidations int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.invalidations
}
