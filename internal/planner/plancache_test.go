package planner

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/virolab"
	"repro/internal/workflow"
)

// caseInputs is one randomizable case description for the key-invariance
// property test.
func caseInputs() ([]*workflow.DataItem, []string, []string, []string) {
	initial := []*workflow.DataItem{
		workflow.NewDataItem("D1", "POD-Parameter"),
		workflow.NewDataItem("D2", "P3DR-Parameter"),
		workflow.NewDataItem("D5", "POR-Parameter"),
		workflow.NewDataItem("D7", "2D Image"),
	}
	goal := []string{
		`G.Classification = "Resolution File"`,
		`G.value > 8`,
	}
	constraints := []string{`C.cost < 100`, `C.time < 50`}
	excluded := []string{"POR", "PSF"}
	return initial, goal, constraints, excluded
}

// TestCanonicalKeyOrderInvariant is the cache-key property test: any
// permutation of the goal conditions, initial data items, constraints, or
// excluded services keys the same cache entry.
func TestCanonicalKeyOrderInvariant(t *testing.T) {
	p := DefaultParams()
	initial, goal, constraints, excluded := caseInputs()
	want := CanonicalKey(initial, goal, constraints, excluded, p)

	rng := rand.New(rand.NewSource(42))
	shuffle := func(n int, swap func(i, j int)) { rng.Shuffle(n, swap) }
	for trial := 0; trial < 50; trial++ {
		si, sg, sc, sx := caseInputs()
		shuffle(len(si), func(i, j int) { si[i], si[j] = si[j], si[i] })
		shuffle(len(sg), func(i, j int) { sg[i], sg[j] = sg[j], sg[i] })
		shuffle(len(sc), func(i, j int) { sc[i], sc[j] = sc[j], sc[i] })
		shuffle(len(sx), func(i, j int) { sx[i], sx[j] = sx[j], sx[i] })
		if got := CanonicalKey(si, sg, sc, sx, p); got != want {
			t.Fatalf("trial %d: permuted case keyed %s, want %s", trial, got, want)
		}
	}
}

// TestCanonicalKeyDistinguishesCases checks every semantic change to the
// case — or to a result-affecting parameter — produces a distinct key,
// while the execution-only EvalWorkers knob does not.
func TestCanonicalKeyDistinguishesCases(t *testing.T) {
	p := DefaultParams()
	initial, goal, constraints, excluded := caseInputs()
	base := CanonicalKey(initial, goal, constraints, excluded, p)

	variants := map[string]string{
		"dropped constraint": CanonicalKey(initial, goal, constraints[:1], excluded, p),
		"extra constraint":   CanonicalKey(initial, goal, append([]string{`C.mem < 4`}, constraints...), excluded, p),
		"different goal":     CanonicalKey(initial, []string{`G.Classification = "3D Model"`}, constraints, excluded, p),
		"fewer data items":   CanonicalKey(initial[:2], goal, constraints, excluded, p),
		"different excluded": CanonicalKey(initial, goal, constraints, []string{"POD"}, p),
		"no excluded":        CanonicalKey(initial, goal, constraints, nil, p),
	}
	seen := map[string]string{base: "base"}
	for name, key := range variants {
		if prev, dup := seen[key]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[key] = name
	}

	// Result-affecting parameters key fresh plans.
	seeded := p
	seeded.Seed = 99
	if CanonicalKey(initial, goal, constraints, excluded, seeded) == base {
		t.Error("changed Seed did not change the key")
	}
	bigger := p
	bigger.PopulationSize *= 2
	if CanonicalKey(initial, goal, constraints, excluded, bigger) == base {
		t.Error("changed PopulationSize did not change the key")
	}

	// EvalWorkers is execution-only: the planned result is bit-identical at
	// any worker count, so it must share the entry.
	par := p
	par.EvalWorkers = 8
	if CanonicalKey(initial, goal, constraints, excluded, par) != base {
		t.Error("EvalWorkers leaked into the cache key")
	}
}

// TestCanonicalKeyDigest pins the bytes the key hashes: the Figure-3 re-plan
// case, and a constrained case whose budget and deadline are not integers.
// A key that changes strands every plan cached under the old one.
func TestCanonicalKeyDigest(t *testing.T) {
	problem := virolab.Problem()
	replan := CanonicalKey(problem.Initial.Items(), problem.Goal.Conditions, nil, []string{"P3DR"}, DefaultParams().Incremental())
	if want := "case:d799f17990fae191a7c8ec72ee7eb862990ae4c253fd2c126628370a234cc60b"; replan != want {
		t.Errorf("re-plan key = %s, want %s", replan, want)
	}
	p := DefaultParams()
	p.MaxCost, p.MaxTime = 12.5, 1e21
	initial, goal, constraints, excluded := caseInputs()
	if got, want := CanonicalKey(initial, goal, constraints, excluded, p), "case:59e096f48d02f5ad304036fe695fc2b5ae2222d651b8a37d87073c03c8c95a6b"; got != want {
		t.Errorf("constrained key = %s, want %s", got, want)
	}
}

func planFor(services ...string) PlanResult {
	return PlanResult{PDL: "BEGIN, X, END", Services: services}
}

func TestPlanCacheHitMissCounters(t *testing.T) {
	c := NewPlanCache(planCacheSize)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", planFor("POD"))
	if r, ok := c.Get("a"); !ok || r.PDL == "" {
		t.Fatalf("cached entry lost: %v %v", r, ok)
	}
	hits, misses, _ := c.Counters()
	if hits != 1 || misses != 1 {
		t.Errorf("counters = %d hits %d misses, want 1/1", hits, misses)
	}
}

func TestPlanCacheBounded(t *testing.T) {
	c := NewPlanCache(8)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%03d", i), planFor("POD"))
	}
	if n := c.Len(); n > 8 {
		t.Fatalf("cache grew to %d entries past its limit of 8", n)
	}
	// The most recent entry survives the oldest-half trims.
	if _, ok := c.Get("k099"); !ok {
		t.Error("most recent entry evicted")
	}
}

func TestPlanCacheInvalidateService(t *testing.T) {
	c := NewPlanCache(planCacheSize)
	c.Put("uses-pod", planFor("POD", "PSF"))
	c.Put("uses-p3dr", planFor("P3DR", "PSF"))
	c.Put("uses-both", planFor("POD", "P3DR"))

	if n := c.InvalidateService("POD"); n != 2 {
		t.Fatalf("invalidated %d plans, want 2", n)
	}
	if _, ok := c.Get("uses-p3dr"); !ok {
		t.Error("unrelated plan dropped")
	}
	if _, ok := c.Get("uses-pod"); ok {
		t.Error("stale plan survived invalidation")
	}
	if n := c.InvalidateService("GHOST"); n != 0 {
		t.Errorf("ghost service invalidated %d plans", n)
	}
	if n := c.InvalidateService("P3DR"); n != 1 {
		t.Errorf("invalidated %d plans, want the 1 left", n)
	}
	if c.Len() != 0 {
		t.Errorf("cache not empty after invalidating every service: %d", c.Len())
	}
	_, _, invalidations := c.Counters()
	if invalidations != 3 {
		t.Errorf("invalidation counter = %d, want 3", invalidations)
	}
}

// TestPlanCacheUseCounts holds the per-service use counts to the entries
// through every path that adds or drops one: overwrite, trim, invalidation.
func TestPlanCacheUseCounts(t *testing.T) {
	c := NewPlanCache(8)
	check := func(when string) {
		t.Helper()
		want := map[string]int{}
		for _, r := range c.entries {
			seen := map[string]bool{}
			for _, svc := range r.Services {
				if !seen[svc] {
					seen[svc] = true
					want[svc]++
				}
			}
		}
		for svc, n := range c.uses {
			if n != want[svc] {
				t.Fatalf("%s: uses[%s] = %d, entries say %d", when, svc, n, want[svc])
			}
			delete(want, svc)
		}
		if len(want) != 0 {
			t.Fatalf("%s: services without a count: %v", when, want)
		}
	}
	c.Put("a", planFor("POD", "P3DR", "P3DR", "PSF")) // a leaf list repeats services
	c.Put("a", planFor("POD", "POR"))                 // overwrite
	check("overwrite")
	for i := 0; i < 30; i++ { // several oldest-half trims
		c.Put(fmt.Sprintf("k%02d", i), planFor("POD", []string{"P3DR", "POR", "PSF"}[i%3]))
	}
	check("trim")
	if n := c.InvalidateService("POR"); n == 0 {
		t.Fatal("no POR plan left to invalidate")
	}
	check("invalidate")
	if n := c.InvalidateService("POR"); n != 0 {
		t.Fatalf("second invalidation dropped %d plans", n)
	}
}
