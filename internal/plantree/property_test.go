package plantree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Normalize is idempotent and preserves the leaf sequence.
func TestQuickNormalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64, sizeRaw uint8) bool {
		local := rand.New(rand.NewSource(seed))
		size := 1 + int(sizeRaw)%30
		tree := Random(local, services, size)
		leavesBefore := tree.Services()
		once := tree.Clone().Normalize()
		twice := once.Clone().Normalize()
		if !once.Equal(twice) {
			return false
		}
		leavesAfter := once.Services()
		if len(leavesBefore) != len(leavesAfter) {
			return false
		}
		for i := range leavesBefore {
			if leavesBefore[i] != leavesAfter[i] {
				return false
			}
		}
		return once.Size() <= tree.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: Clone produces an equal tree whose mutation does not affect the
// original.
func TestQuickCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		tree := Random(local, services, 20)
		clone := tree.Clone()
		if !tree.Equal(clone) {
			return false
		}
		for _, leaf := range clone.Leaves() {
			leaf.Service = "MUTATED"
		}
		for _, leaf := range tree.Leaves() {
			if leaf.Service == "MUTATED" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: a random tree's genome lists its nodes in pre-order, each with
// its subtree's size and child count, and builds the tree back; its genome
// names every service by its index in the name table.
func TestQuickGenesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		tree := Random(local, services, 25)
		var srcs []*Node
		genes := AppendGenes(nil, tree, services, &srcs)
		nodes := preorder(tree)
		if len(genes) != len(nodes) || !Tree(genes, services, srcs).Equal(tree) {
			return false
		}
		for i, g := range genes {
			n := nodes[i]
			if srcs[g.Src] != n || g.Kind != n.Kind || int(g.Kids) != len(n.Children) || int(g.Size) != n.Size() {
				return false
			}
			if n.Kind == KindActivity && services[g.Name] != n.Service {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: ToProcess output always validates and has exactly one Begin and
// one End, with flow-control pairing counts matching the tree's controller
// census.
func TestQuickToProcessStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		tree := Random(local, services, 20)
		p, err := ToProcess("q", tree)
		if err != nil {
			return false
		}
		if p.Validate() != nil {
			return false
		}
		// Count controllers that actually emit pairs (>= 2 children for
		// conc/sel; iter always emits).
		forks, sels, iters := 0, 0, 0
		for _, n := range preorder(tree) {
			switch n.Kind {
			case KindConcurrent:
				if len(n.Children) > 1 {
					forks++
				}
			case KindSelective:
				if len(n.Children) > 1 {
					sels++
				}
			case KindIterative:
				iters++
			}
		}
		join := 0
		choice := 0
		merge := 0
		for _, a := range p.Activities {
			switch a.Kind.String() {
			case "Join":
				join++
			case "Choice":
				choice++
			case "Merge":
				merge++
			}
		}
		return join == forks && choice == sels+iters && merge == sels+iters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Error(err)
	}
}
