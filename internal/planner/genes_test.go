package planner

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/plantree"
	"repro/internal/virolab"
)

// ---------------------------------------------------------------------------
// The oracle: the pointer-tree operators the genome operators replaced, kept
// as they were (a heap node per tree node, subtrees swapped and replaced by
// overwriting nodes), so the genomes have something independent to be
// compared against, tree for tree and draw for draw.

// preorder lists the tree's nodes in pre-order.
func preorder(n *plantree.Node) []*plantree.Node {
	out := []*plantree.Node{n}
	for _, c := range n.Children {
		out = append(out, preorder(c)...)
	}
	return out
}

var oracleControllers = []plantree.Kind{plantree.KindSequential, plantree.KindConcurrent, plantree.KindSelective, plantree.KindIterative}

func oracleRandom(rng *rand.Rand, services []string, maxSize int) *plantree.Node {
	return oracleRandomWithSize(rng, services, 1+rng.Intn(max(maxSize, 1)))
}

func oracleRandomWithSize(rng *rand.Rand, services []string, size int) *plantree.Node {
	if size <= 1 {
		return plantree.Activity(services[rng.Intn(len(services))])
	}
	node := &plantree.Node{Kind: oracleControllers[rng.Intn(len(oracleControllers))]}
	budget := size - 1
	k := 1 + rng.Intn(min(budget, 4))
	parts := [4]int{1, 1, 1, 1}
	for extra := budget - k; extra > 0; extra-- {
		parts[rng.Intn(k)]++
	}
	for _, p := range parts[:k] {
		node.Children = append(node.Children, oracleRandomWithSize(rng, services, p))
	}
	return node
}

// oracleCrossover swaps the contents of a random node of each tree.
func oracleCrossover(rng *rand.Rand, a, b *plantree.Node, smax int) bool {
	aSize, bSize := a.Size(), b.Size()
	x, y := preorder(a)[rng.Intn(aSize)], preorder(b)[rng.Intn(bSize)]
	xSize, ySize := x.Size(), y.Size()
	if aSize-xSize+ySize > smax || bSize-ySize+xSize > smax {
		return false
	}
	*x, *y = *y, *x
	return true
}

// oracleMutate overwrites each selected node of the pre-order list it took
// first, so a node under one already replaced is still visited: detached, it
// draws and counts but no longer reaches the tree. It returns the mutations
// and how many of them were detached.
func oracleMutate(rng *rand.Rand, tree *plantree.Node, services []string, rate float64, smax int) (applied, detached int) {
	if rate <= 0 {
		return 0, 0
	}
	for _, n := range preorder(tree) {
		if rng.Float64() >= rate {
			continue
		}
		budget := smax - (tree.Size() - n.Size())
		if budget < 1 {
			continue
		}
		if !slices.Contains(preorder(tree), n) {
			detached++
		}
		*n = *oracleRandom(rng, services, budget)
		applied++
	}
	return applied, detached
}

// genesOracle runs the genome operators, in a workspace's slab as the GP
// does, and the pointer oracle side by side from one seed each, failing at
// the first tree or draw they disagree on.
type genesOracle struct {
	t         testing.TB
	services  []string
	smax      int
	rng, orng *rand.Rand
	ws        workspace
}

func newGenesOracle(t testing.TB, services []string, seed int64, smax int) *genesOracle {
	return &genesOracle{t: t, services: services, smax: smax,
		rng: rand.New(rand.NewSource(seed)), orng: rand.New(rand.NewSource(seed))}
}

// same checks that the genome encodes want and that both streams are at the
// same draw.
func (o *genesOracle) same(op string, got []plantree.Gene, want *plantree.Node) {
	o.t.Helper()
	if tree := plantree.Tree(got, o.services, o.ws.srcs); !tree.Equal(want) {
		o.t.Fatalf("%s: genes %s, oracle %s", op, tree, want)
	}
	if resized := append([]plantree.Gene(nil), got...); resize(resized, 0) != len(got) || fmt.Sprint(resized) != fmt.Sprint(got) {
		o.t.Fatalf("%s: the genome's sizes are stale: %v", op, got)
	}
	if g, w := o.rng.Int63(), o.orng.Int63(); g != w {
		o.t.Fatalf("%s of %s left the random streams apart", op, want)
	}
}

func (o *genesOracle) random() ([]plantree.Gene, *plantree.Node) {
	g := o.ws.put(plantree.AppendRandom(nil, o.rng, len(o.services), o.smax))
	want := oracleRandom(o.orng, o.services, o.smax)
	o.same("Random", g, want)
	return g, want
}

// mutate mutates a copy and returns how many mutations were detached.
func (o *genesOracle) mutate(g []plantree.Gene, want *plantree.Node, rate float64) int {
	o.t.Helper()
	want = want.Clone()
	m, k := o.ws.mutate(o.rng, o.ws.put(g), len(o.services), rate, o.smax)
	ok, detached := oracleMutate(o.orng, want, o.services, rate, o.smax)
	if k != ok {
		o.t.Fatalf("Mutate at %g: %d mutations on the genes, %d on the oracle", rate, k, ok)
	}
	o.same(fmt.Sprintf("Mutate at %g", rate), m, want)
	return detached
}

// crossover crosses copies of the two and returns how the draws fell: at a
// root, and between subtrees of one size.
func (o *genesOracle) crossover(a, b []plantree.Gene, wa, wb *plantree.Node) (root, equal bool) {
	o.t.Helper()
	ca, cb, wa, wb := o.ws.put(a), o.ws.put(b), wa.Clone(), wb.Clone()
	state := o.rng.Int63()
	o.orng.Int63()
	peek := rand.New(rand.NewSource(state))
	o.rng.Seed(state)
	o.orng.Seed(state)
	x, y := peek.Intn(len(a)), peek.Intn(len(b))
	if gs, os := o.ws.crossover(o.rng, &ca, &cb, o.smax), oracleCrossover(o.orng, wa, wb, o.smax); gs != os {
		o.t.Fatalf("Crossover of %s and %s: swapped %v on the genes, %v on the oracle", wa, wb, gs, os)
	} else if !gs {
		return false, false
	}
	o.same("Crossover", ca, wa)
	o.same("Crossover (mate)", cb, wb)
	return x == 0 || y == 0, a[x].Size == b[y].Size
}

// TestGenesMatchPointerOracle is the differential behind the golden plans:
// generating, copying, mutating and crossing genomes gives the trees the
// pointer operators give and draws exactly what they draw, on both catalogs;
// a tree read into genes (Name, Inputs, Outputs, Condition, a bare leaf)
// builds back; and the exported wrappers agree with the oracle too. Rate 0.3
// reaches the case where a replaced ancestor leaves later entries detached.
func TestGenesMatchPointerOracle(t *testing.T) {
	const smax = 40
	for _, services := range [][]string{virolab.Problem().Catalog.Names(), crossServices} {
		o := newGenesOracle(t, services, 24, smax)
		var prev []plantree.Gene
		var prevW *plantree.Node
		roots, equals, detached := 0, 0, 0
		for i := 0; i < 300; i++ {
			if i%50 == 0 {
				o.ws.slab, prev = o.ws.slab[:0], nil
			}
			g, want := o.random()
			o.same("copy", o.ws.put(g), want)
			for _, rate := range []float64{0.001, 0.05, 0.3} {
				detached += o.mutate(g, want, rate)
			}
			if prev != nil {
				root, equal := o.crossover(g, prev, want, prevW)
				roots, equals = roots+btoi(root), equals+btoi(equal)
			}
			prev, prevW = g, want

			// The exported wrappers, on heap trees.
			h, oh := want.Clone(), want.Clone()
			k := Mutate(o.rng, h, services, 0.3, smax)
			if ok, _ := oracleMutate(o.orng, oh, services, 0.3, smax); k != ok {
				t.Fatalf("Mutate of %s: %d mutations, oracle %d", want, k, ok)
			}
			o.same("Mutate (wrapper)", plantree.AppendGenes(nil, h, services, &o.ws.srcs), oh)
			c, oc := want.Clone(), want.Clone()
			if s, os := Crossover(o.rng, h, c, smax), oracleCrossover(o.orng, oh, oc, smax); s != os {
				t.Fatalf("Crossover of %s and %s: %v, oracle %v", h, c, s, os)
			}
			o.same("Crossover (wrapper)", plantree.AppendGenes(nil, h, services, &o.ws.srcs), oh)
			o.same("Crossover (wrapper mate)", plantree.AppendGenes(nil, c, services, &o.ws.srcs), oc)
		}
		if roots == 0 || equals == 0 || detached == 0 {
			t.Errorf("%v: %d crossovers at a root, %d of equal sizes, %d detached mutations: a case went untested",
				services, roots, equals, detached)
		}
	}

	// A plan read in with its payload, and a bare leaf.
	seed, err := plantree.FromProcess(virolab.Process())
	if err != nil {
		t.Fatal(err)
	}
	names := virolab.Problem().Catalog.Names()
	var srcs []*plantree.Node
	g := plantree.AppendGenes(nil, seed, names, &srcs)
	if back := plantree.Tree(g, names, srcs); !back.Equal(seed) {
		t.Fatalf("round trip: %s, want %s", back, seed)
	}
	for i := range g {
		if leaf := srcs[g[i].Src]; g[i].Kind == plantree.KindActivity && leaf.Name != "" && len(leaf.Inputs) > 0 {
			g[i].Bare = true
			want := *leaf
			want.Name = ""
			if got := *plantree.Tree(g[i:i+1], names, srcs); !got.Equal(&want) {
				t.Errorf("bare leaf: %+v, want %+v", got, want)
			}
			return
		}
	}
	t.Error("the Figure-10 plan has no named activity with inputs: the bare case went untested")
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FuzzGenesMatchPointerOracle drives the same differential from a fuzzed
// seed, mutation rate and Smax over the cross catalog, whose NOSUCH leaf the
// kernel does not know. Explore with `go test -fuzz=FuzzGenesMatchPointerOracle
// ./internal/planner`.
func FuzzGenesMatchPointerOracle(f *testing.F) {
	for _, c := range []struct {
		seed int64
		rate float64
		smax uint8
	}{{1, 0.001, 40}, {2, 0.05, 40}, {3, 0.3, 40}, {4, 0.6, 40}, {5, 1, 8}, {6, 0.5, 1}, {7, 0.2, 255}} {
		f.Add(c.seed, c.rate, c.smax)
	}
	f.Fuzz(func(t *testing.T, seed int64, rate float64, smaxRaw uint8) {
		smax := 1 + int(smaxRaw)
		o := newGenesOracle(t, crossServices, seed, smax)
		a, wa := o.random()
		b, wb := o.random()
		o.mutate(a, wa, rate)
		o.mutate(b, wb, rate)
		o.crossover(a, b, wa, wb)
	})
}
