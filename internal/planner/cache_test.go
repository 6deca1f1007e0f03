package planner

import (
	"context"
	"testing"

	"repro/internal/plantree"
)

// seqOfSize returns a distinct tree per n (a sequence of n POD activities),
// so each has a unique cache key.
func seqOfSize(n int) *plantree.Node {
	children := make([]*plantree.Node, n)
	for i := range children {
		children[i] = plantree.Activity("POD")
	}
	return plantree.Seq(children...)
}

// TestEvaluateCacheTrimKeepsRecent pins the eviction policy on the Evaluate
// path: overflowing the cache drops the oldest half, so a recently scored
// tree is still a hit afterwards. The old behavior wiped the whole map,
// turning every post-overflow lookup into a recomputation.
func TestEvaluateCacheTrimKeepsRecent(t *testing.T) {
	ev := mustEvaluator(t, DefaultParams())
	ev.cacheLimit = 4

	for i := 1; i <= 5; i++ {
		ev.Evaluate(seqOfSize(i))
	}
	if ev.Evaluations != 5 {
		t.Fatalf("Evaluations = %d after 5 distinct trees, want 5", ev.Evaluations)
	}
	if len(ev.cache) > ev.cacheLimit {
		t.Fatalf("cache size %d exceeds limit %d after trim", len(ev.cache), ev.cacheLimit)
	}
	if len(ev.cache) != len(ev.order) {
		t.Fatalf("cache size %d != order length %d", len(ev.cache), len(ev.order))
	}

	// The newest tree survived the trim; the oldest was evicted.
	ev.Evaluate(seqOfSize(5))
	if ev.Evaluations != 5 {
		t.Errorf("recent tree recomputed: Evaluations = %d, want 5", ev.Evaluations)
	}
	ev.Evaluate(seqOfSize(1))
	if ev.Evaluations != 6 {
		t.Errorf("evicted tree not recomputed: Evaluations = %d, want 6", ev.Evaluations)
	}
}

// TestEvaluateAllCacheTrimKeepsWorkingSet is the generation-scale regression
// for the same bug on the batch path: once the cache outgrows the limit
// mid-generation, re-scoring the very same population must be free — the
// current working set survives the trim. Before the fix the overflow wiped
// the map mid-batch, so the repeat call re-evaluated most of the population.
func TestEvaluateAllCacheTrimKeepsWorkingSet(t *testing.T) {
	gp, err := New(testProblem(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	gp.eval.cacheLimit = 16

	pop := func(lo, hi int) []member {
		var out []member
		for i := lo; i <= hi; i++ {
			out = append(out, member{genes: plantree.AppendGenes(nil, seqOfSize(i), gp.services, nil)})
		}
		return out
	}

	gp.evaluateAll(context.Background(), pop(1, 10))
	if gp.eval.Evaluations != 10 {
		t.Fatalf("Evaluations = %d after first generation, want 10", gp.eval.Evaluations)
	}

	// The second generation pushes the cache past the limit (20 distinct
	// trees against a limit of 16), forcing a trim mid-batch.
	second := pop(11, 20)
	gp.evaluateAll(context.Background(), second)
	if gp.eval.Evaluations != 20 {
		t.Fatalf("Evaluations = %d after second generation, want 20", gp.eval.Evaluations)
	}
	if len(gp.eval.cache) > gp.eval.cacheLimit {
		t.Fatalf("cache size %d exceeds limit %d", len(gp.eval.cache), gp.eval.cacheLimit)
	}

	// Re-scoring the identical population: every tree was added after the
	// trim, so the repeat must be all cache hits.
	gp.evaluateAll(context.Background(), second)
	if gp.eval.Evaluations != 20 {
		t.Errorf("repeat evaluateAll recomputed trees: Evaluations = %d, want 20", gp.eval.Evaluations)
	}
}
