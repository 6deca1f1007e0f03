package plantree

import (
	"math/rand"
	"slices"
)

// Gene is one node of a plan tree in its flat form. A genome is a tree's
// genes in pre-order: a node's subtree is the Size genes from it, its
// children's subtrees following it one after another. A gene holds no
// pointer, so copying or splicing a genome copies bytes and the collector
// never scans one.
type Gene struct {
	Kind Kind
	// Bare drops the source node's Name: the activity's service was replaced.
	Bare bool
	// Name is an activity's service: its index in the genome's name table
	// when the table has it, else the table's length plus the index, in the
	// source table, of the first node that runs it.
	Name int32
	Kids int32 // number of children
	Size int32 // number of nodes in the subtree
	// Src is the index, in the source table, of the node the gene was read
	// from, whose Name, Inputs, Outputs and Condition it keeps; -1 for a
	// generated node.
	Src int32
}

// AppendGenes appends the genome of the tree at n to dst, resolving service
// names against names. Each node is appended to *srcs, which the genes' Src
// index; with srcs nil no node is recorded, Src is -1 and every name outside
// names is len(names).
func AppendGenes(dst []Gene, n *Node, names []string, srcs *[]*Node) []Gene {
	at := len(dst)
	g := Gene{Kind: n.Kind, Kids: int32(len(n.Children)), Src: -1}
	if srcs != nil {
		g.Src = int32(len(*srcs))
		*srcs = append(*srcs, n)
	}
	if n.Kind == KindActivity {
		g.Name = nameIndex(n.Service, names, srcs)
	}
	dst = append(dst, g)
	for _, c := range n.Children {
		dst = AppendGenes(dst, c, names, srcs)
	}
	dst[at].Size = int32(len(dst) - at)
	return dst
}

// nameIndex is the Name of an activity running service.
func nameIndex(service string, names []string, srcs *[]*Node) int32 {
	if i := slices.Index(names, service); i >= 0 {
		return int32(i)
	}
	if srcs == nil {
		return int32(len(names))
	}
	first := slices.IndexFunc(*srcs, func(n *Node) bool { return n.Kind == KindActivity && n.Service == service })
	return int32(len(names) + first)
}

// Service returns the service of an activity gene.
func (g Gene) Service(names []string, srcs []*Node) string {
	if int(g.Name) < len(names) {
		return names[g.Name]
	}
	return srcs[int(g.Name)-len(names)].Service
}

// Tree builds the tree a genome encodes in two allocations, one per
// non-empty Inputs or Outputs besides, as Clone does: the copy shares
// nothing with the source nodes. Each child list is capped at its length.
func Tree(genes []Gene, names []string, srcs []*Node) *Node {
	s := slabs{nodes: make([]Node, len(genes)), links: make([]*Node, len(genes)-1)}
	return s.tree(genes, names, srcs)
}

// Clone returns a deep copy of the tree. The copy's nodes share one backing
// array and its child lists another, so a tree costs two allocations, not
// two per node; each child list is capped at its own length, so appending
// to one reallocates it instead of running into its neighbour.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	nodes, links := 0, 0
	n.count(&nodes, &links)
	s := slabs{nodes: make([]Node, nodes), links: make([]*Node, links)}
	return s.clone(n)
}

// slabs hands out the nodes and child lists of a tree from the front of two
// arrays sized to it.
type slabs struct {
	nodes []Node
	links []*Node
}

func (s *slabs) node() *Node {
	n := &s.nodes[0]
	s.nodes = s.nodes[1:]
	return n
}

func (s *slabs) children(k int) []*Node {
	out := s.links[:k:k]
	s.links = s.links[k:]
	return out
}

func (s *slabs) clone(n *Node) *Node {
	if n == nil {
		return nil
	}
	m := s.node()
	*m = *n
	m.Inputs, m.Outputs, m.Children = slices.Clone(n.Inputs), slices.Clone(n.Outputs), nil
	if len(n.Children) > 0 {
		m.Children = s.children(len(n.Children))
		for i, ch := range n.Children {
			m.Children[i] = s.clone(ch)
		}
	}
	return m
}

// tree builds the subtree of genes[0].
func (s *slabs) tree(genes []Gene, names []string, srcs []*Node) *Node {
	g, n := genes[0], s.node()
	if g.Src >= 0 {
		src := srcs[g.Src]
		*n = Node{Service: src.Service, Name: src.Name, Condition: src.Condition, Cond: src.Cond,
			Inputs: slices.Clone(src.Inputs), Outputs: slices.Clone(src.Outputs)}
	}
	n.Kind = g.Kind
	if g.Kind == KindActivity {
		n.Service = g.Service(names, srcs)
	}
	if g.Bare {
		n.Name = ""
	}
	if g.Kids > 0 {
		n.Children = s.children(int(g.Kids))
		rest := genes[1:]
		for i := range n.Children {
			n.Children[i] = s.tree(rest, names, srcs)
			rest = rest[rest[0].Size:]
		}
	}
	return n
}

// count adds the subtree's nodes and child links to the totals.
func (n *Node) count(nodes, links *int) {
	*nodes++
	*links += len(n.Children)
	for _, c := range n.Children {
		if c != nil {
			c.count(nodes, links)
		}
	}
}

// controllerKinds are the kinds random generation draws internal nodes from
// (Section 3.4.2: "randomly selected from four controller nodes").
var controllerKinds = []Kind{KindSequential, KindConcurrent, KindSelective, KindIterative}

// Random generates a random plan tree with size at most maxSize, whose
// terminals are drawn uniformly from services. It follows the paper's
// two-step initialization: first an arbitrary tree structure of bounded size,
// then instantiation of every node. maxSize must be >= 1, services non-empty.
func Random(rng *rand.Rand, services []string, maxSize int) *Node {
	return Tree(AppendRandom(nil, rng, len(services), maxSize), services, nil)
}

// AppendRandom appends the genome of a random tree to dst, drawing what
// Random draws: activities name one of services names.
func AppendRandom(dst []Gene, rng *rand.Rand, services, maxSize int) []Gene {
	if services == 0 {
		panic("plantree: Random with empty service set")
	}
	if maxSize < 1 {
		maxSize = 1
	}
	target := 1 + rng.Intn(maxSize)
	return appendRandomWithSize(dst, rng, services, target)
}

// appendRandomWithSize appends a tree of exactly size nodes when size >= 1.
func appendRandomWithSize(dst []Gene, rng *rand.Rand, services, size int) []Gene {
	if size <= 1 {
		return append(dst, Gene{Kind: KindActivity, Name: int32(rng.Intn(services)), Size: 1, Src: -1})
	}
	kind := controllerKinds[rng.Intn(len(controllerKinds))]
	budget := size - 1 // nodes available for children subtrees
	k := 1 + rng.Intn(min(budget, 4))
	// Split budget into k parts, each >= 1.
	parts := [4]int{1, 1, 1, 1}
	for extra := budget - k; extra > 0; extra-- {
		parts[rng.Intn(k)]++
	}
	dst = append(dst, Gene{Kind: kind, Kids: int32(k), Size: int32(size), Src: -1})
	for _, p := range parts[:k] {
		dst = appendRandomWithSize(dst, rng, services, p)
	}
	return dst
}
