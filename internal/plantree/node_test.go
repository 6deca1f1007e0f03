package plantree

import (
	"math/rand"
	"strings"
	"testing"
)

var services = []string{"POD", "P3DR", "POR", "PSF"}

// fig11 builds the plan tree of Figure 11: the tree corresponding to the 3D
// reconstruction process description.
func fig11() *Node {
	return Seq(
		Activity("POD"),
		Activity("P3DR"),
		Iter(
			Activity("POR"),
			Conc(Activity("P3DR"), Activity("P3DR"), Activity("P3DR")),
			Activity("PSF"),
		),
	)
}

func TestSizeDepthLeaves(t *testing.T) {
	tr := fig11()
	if got := tr.Size(); got != 10 {
		t.Errorf("Size = %d, want 10", got)
	}
	if got := tr.Depth(); got != 4 {
		t.Errorf("Depth = %d, want 4", got)
	}
	leaves := tr.Services()
	want := []string{"POD", "P3DR", "POR", "P3DR", "P3DR", "P3DR", "PSF"}
	if len(leaves) != len(want) {
		t.Fatalf("Services = %v, want %v", leaves, want)
	}
	for i := range want {
		if leaves[i] != want[i] {
			t.Fatalf("Services = %v, want %v", leaves, want)
		}
	}
	var nilNode *Node
	if nilNode.Size() != 0 || nilNode.Depth() != 0 {
		t.Error("nil node size/depth should be 0")
	}
	if Activity("X").Depth() != 1 {
		t.Error("single node depth should be 1")
	}
}

func TestCloneEqual(t *testing.T) {
	tr := fig11()
	cl := tr.Clone()
	if !tr.Equal(cl) {
		t.Fatal("clone not equal to original")
	}
	cl.Children[0].Service = "MUTATED"
	if tr.Equal(cl) {
		t.Fatal("Equal missed a mutation")
	}
	if tr.Children[0].Service == "MUTATED" {
		t.Fatal("Clone is shallow")
	}
	if !(*Node)(nil).Equal(nil) {
		t.Error("nil.Equal(nil) should be true")
	}
	if tr.Equal(nil) {
		t.Error("tree.Equal(nil) should be false")
	}
	if Seq(Activity("A")).Equal(Conc(Activity("A"))) {
		t.Error("different kinds should not be equal")
	}
	a := Activity("A")
	b := Activity("A")
	b.Condition = "x.y = 1"
	if a.Equal(b) {
		t.Error("different conditions should not be equal")
	}
}

func TestValidate(t *testing.T) {
	if err := fig11().Validate(40); err != nil {
		t.Errorf("fig11: %v", err)
	}
	if err := fig11().Validate(5); err == nil {
		t.Error("Smax=5 should reject the 9-node tree")
	}
	if err := (&Node{Kind: KindActivity, Service: "A", Children: []*Node{Activity("B")}}).Validate(0); err == nil {
		t.Error("activity with children should be invalid")
	}
	if err := Activity("").Validate(0); err == nil {
		t.Error("activity with empty service should be invalid")
	}
	if err := Seq().Validate(0); err == nil {
		t.Error("empty controller should be invalid")
	}
	if err := (*Node)(nil).Validate(0); err == nil {
		t.Error("nil tree should be invalid")
	}
}

func TestString(t *testing.T) {
	got := fig11().String()
	want := "(seq POD P3DR (iter POR (conc P3DR P3DR P3DR) PSF))"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if (*Node)(nil).String() != "()" {
		t.Error("nil String mismatch")
	}
	for _, k := range []Kind{KindActivity, KindSequential, KindConcurrent, KindSelective, KindIterative, Kind(9)} {
		if k.String() == "" {
			t.Errorf("Kind(%d).String() empty", k)
		}
	}
	if KindActivity.IsController() || !KindIterative.IsController() {
		t.Error("IsController mismatch")
	}
}

// preorder lists the tree's nodes in pre-order.
func preorder(n *Node) []*Node {
	var out []*Node
	n.walk(func(node, _ *Node, _ int) { out = append(out, node) })
	return out
}

// TestGenesPreorder pins the genome's layout on Figure 11: pre-order genes
// with their subtree sizes and child counts, each pointing at its source
// node. A gene resolves its service through the name table, or through its
// first source node when the table lacks it; a bare gene drops the source's
// Name and keeps its Inputs, Outputs and Condition.
func TestGenesPreorder(t *testing.T) {
	tr := annotated()
	var srcs []*Node
	names := []string{"PSF", "POD", "P3DR"} // unsorted, and POR is missing
	genes := AppendGenes(nil, tr, names, &srcs)
	// Pre-order: root, POD, P3DR, iter, POR, conc, P3DR x3, PSF.
	want := []Gene{
		{Kind: KindSequential, Kids: 3, Size: 10},
		{Kind: KindActivity, Name: 1, Size: 1}, {Kind: KindActivity, Name: 2, Size: 1},
		{Kind: KindIterative, Kids: 3, Size: 7},
		{Kind: KindActivity, Name: 3 + 4, Size: 1},
		{Kind: KindConcurrent, Kids: 3, Size: 4},
		{Kind: KindActivity, Name: 2, Size: 1}, {Kind: KindActivity, Name: 2, Size: 1}, {Kind: KindActivity, Name: 2, Size: 1},
		{Kind: KindActivity, Name: 0, Size: 1},
	}
	nodes := preorder(tr)
	if len(genes) != len(want) || len(srcs) != len(nodes) {
		t.Fatalf("%d genes and %d sources for %d nodes", len(genes), len(srcs), len(nodes))
	}
	for i, g := range genes {
		want[i].Src = int32(i)
		if g != want[i] || srcs[i] != nodes[i] {
			t.Errorf("gene %d = %+v, want %+v", i, g, want[i])
		}
	}
	if got := genes[4].Service(names, srcs); got != "POR" {
		t.Errorf("POR's gene reads service %q", got)
	}
	if back := Tree(genes, names, srcs); !back.Equal(tr) {
		t.Fatalf("round trip: %s, want %s", back, tr)
	}

	// The first activity's service replaced: a bare gene naming PSF.
	genes[1].Name, genes[1].Bare = 0, true
	back := Tree(genes, names, srcs)
	first := back.Children[0]
	if first.Service != "PSF" || first.Name != "" || !equalStrings(first.Inputs, tr.Children[0].Inputs) ||
		!equalStrings(first.Outputs, tr.Children[0].Outputs) || back.Children[2].Condition != tr.Children[2].Condition {
		t.Errorf("bare leaf: %+v; loop condition %q", first, back.Children[2].Condition)
	}

	// Without a source table every name outside the table is len(names).
	for i, g := range AppendGenes(nil, tr, names, nil) {
		if g.Src != -1 || (i == 4 && g.Name != 3) {
			t.Errorf("gene %d without sources = %+v", i, g)
		}
	}
}

func TestNormalize(t *testing.T) {
	// seq(seq(A,B),C) flattens to seq(A,B,C).
	tr := Seq(Seq(Activity("A"), Activity("B")), Activity("C"))
	n := tr.Normalize()
	if n.String() != "(seq A B C)" {
		t.Errorf("Normalize = %s", n)
	}
	// Single-child controllers collapse (except iterative).
	if got := Conc(Activity("A")).Normalize().String(); got != "A" {
		t.Errorf("conc(A) normalized to %s", got)
	}
	if got := Sel(Activity("A")).Normalize().String(); got != "A" {
		t.Errorf("sel(A) normalized to %s", got)
	}
	if got := Iter(Activity("A")).Normalize().String(); got != "(iter A)" {
		t.Errorf("iter(A) normalized to %s", got)
	}
	// Conditioned children must not be flattened away.
	cond := Seq(Activity("A"))
	cond.Condition = "x.v = 1"
	if got := Sel(cond, Activity("B")).Normalize(); len(got.Children) != 2 {
		t.Errorf("conditioned child lost: %s", got)
	}
	// Activities are untouched.
	if got := Activity("A").Normalize().String(); got != "A" {
		t.Errorf("activity normalized to %s", got)
	}
}

func TestRandomRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		maxSize := 1 + rng.Intn(40)
		tr := Random(rng, services, maxSize)
		if err := tr.Validate(maxSize); err != nil {
			t.Fatalf("random tree invalid (maxSize=%d): %v\n%s", maxSize, err, tr)
		}
		for _, leaf := range tr.Leaves() {
			found := false
			for _, s := range services {
				if leaf.Service == s {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("leaf service %q not in service set", leaf.Service)
			}
		}
	}
}

func TestRandomCoversAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[Kind]bool{}
	for i := 0; i < 200; i++ {
		tr := Random(rng, services, 20)
		tr.walk(func(n, _ *Node, _ int) { seen[n.Kind] = true })
	}
	for _, k := range []Kind{KindActivity, KindSequential, KindConcurrent, KindSelective, KindIterative} {
		if !seen[k] {
			t.Errorf("random generation never produced %v nodes", k)
		}
	}
}

func TestRandomPanicsOnEmptyServices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Random(rand.New(rand.NewSource(1)), nil, 10)
}

func TestRandomMinSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := Random(rng, services, 0) // clamped to 1
	if tr.Size() != 1 || tr.Kind != KindActivity {
		t.Errorf("maxSize 0 tree = %s", tr)
	}
}

func TestStringContainsAllLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		tr := Random(rng, services, 15)
		s := tr.String()
		for _, svc := range tr.Services() {
			if !strings.Contains(s, svc) {
				t.Fatalf("String %q missing leaf %q", s, svc)
			}
		}
	}
}

// annotated is fig11 with every optional field set somewhere: Clone copies
// Name, Condition, Inputs and Outputs besides the structure.
func annotated() *Node {
	tr := fig11()
	tr.Children[0].Name = "A1"
	tr.Children[0].Inputs = []string{"D1", "D7"}
	tr.Children[0].Outputs = []string{"D8"}
	tr.Children[2].Condition = "D12.Value > 8"
	tr.Children[2].Children[2].Outputs = []string{"D12"}
	return tr
}

func TestCloneRoundTripsEveryField(t *testing.T) {
	tr := annotated()
	cl := tr.Clone()
	if !cl.Equal(tr) {
		t.Fatalf("clone %s differs from %s", cl, tr)
	}
	cl.Children[0].Inputs[0] = "MUTATED"
	cl.Children[2].Condition = ""
	if !tr.Equal(annotated()) {
		t.Error("editing a clone's Inputs/Condition reached the source")
	}
}

// TestCloneSlabIsolation pins what the shared backing arrays of Clone must
// not leak: in-place edits to one clone may not reach the source, nor a
// sibling clone of it. The tree a genome builds, whose nodes and child lists
// share two arrays the same way, is held to the same.
func TestCloneSlabIsolation(t *testing.T) {
	t.Run("Node.Clone", func(t *testing.T) { testCloneIsolation(t, (*Node).Clone) })
	t.Run("Tree", func(t *testing.T) {
		testCloneIsolation(t, func(n *Node) *Node {
			var srcs []*Node
			return Tree(AppendGenes(nil, n, nil, &srcs), nil, srcs)
		})
	})
}

func testCloneIsolation(t *testing.T, clone func(*Node) *Node) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		src := Random(rng, services, 30)
		want := src.String()
		check := func(op string) {
			t.Helper()
			if got := src.String(); got != want {
				t.Fatalf("%s on a clone changed the source:\n got %s\nwant %s", op, got, want)
			}
		}

		// Appending to a child list must reallocate it, not overwrite the
		// next list in the slab.
		a := clone(src)
		for _, n := range preorder(a) {
			if n.Kind.IsController() {
				n.Children = append(n.Children, Activity("EXTRA"))
			}
		}
		check("append")
		if got, want := a.Size(), 2*src.Size()-len(src.Leaves()); got != want {
			t.Fatalf("appending one child per controller: size %d, want %d: %s", got, want, a)
		}

		// The crossover's content swap between nodes of two clones.
		b, c := clone(src), clone(src)
		x, y := preorder(b)[rng.Intn(b.Size())], preorder(c)[rng.Intn(c.Size())]
		xs, ys := x.String(), y.String()
		*x, *y = *y, *x
		check("swap")
		if x.String() != ys || y.String() != xs {
			t.Fatalf("swap: got %s and %s, want %s and %s", x, y, ys, xs)
		}
		if b.Size()+c.Size() != 2*src.Size() {
			t.Fatalf("swap lost nodes: %s / %s from %s", b, c, src)
		}

		// Normalize rewrites child lists in place.
		d := clone(src).Normalize()
		check("Normalize")
		if !equalStrings(d.Services(), src.Services()) {
			t.Fatalf("Normalize of a clone changed the leaves: %s from %s", d, src)
		}
	}
}

// TestCloneAndStringAllocations gates the planner's two per-individual costs
// outside the fitness kernel: a clone is the two slabs plus one slice per
// non-empty Inputs/Outputs, a rendering is the builder's buffer.
func TestCloneAndStringAllocations(t *testing.T) {
	plain, notes := fig11(), annotated()
	var sink *Node
	if got := testing.AllocsPerRun(100, func() { sink = plain.Clone() }); got > 2 {
		t.Errorf("Clone of %s: %v allocations, want <= 2", plain, got)
	}
	if got := testing.AllocsPerRun(100, func() { sink = notes.Clone() }); got > 2+3 {
		t.Errorf("Clone with 3 non-empty Inputs/Outputs: %v allocations, want <= 5", got)
	}
	_ = sink
	var s string
	if got := testing.AllocsPerRun(100, func() { s = plain.String() }); got > 2 {
		t.Errorf("String of %s: %v allocations, want <= 2", plain, got)
	}
	_ = s
}
