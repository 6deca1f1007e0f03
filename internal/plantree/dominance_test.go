package plantree_test

import (
	"testing"

	"repro/internal/plantree"
	"repro/internal/virolab"
)

// TestFromProcessFigure10 parses the case study's own process description
// (Figure 10, read from the Figure 13 instances): its loop is found by
// dominance, which must agree with the set fixpoint on every pair, and the
// parse allocates the tree it returns and one table of dominators, not a set
// per activity.
func TestFromProcessFigure10(t *testing.T) {
	p := virolab.Process()
	if d := plantree.DominanceDiff(p); d != "" {
		t.Fatal(d)
	}
	tree, err := plantree.FromProcess(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := "(seq POD P3DR (iter POR (conc P3DR P3DR P3DR) PSF))"; tree.String() != want { // Figure 11
		t.Errorf("FromProcess(Figure 10) = %s, want %s", tree, want)
	}
	const budget = 43 // 42 measured (156 with a set of dominators per activity)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := plantree.FromProcess(p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("FromProcess(Figure 10): %v allocations", allocs)
	if allocs > budget {
		t.Errorf("FromProcess(Figure 10) allocates %v times, budget %d", allocs, budget)
	}
}
