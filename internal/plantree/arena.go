package plantree

import "math/rand"

// slabChunk is the number of elements a slab grows by: 1 024 nodes are 128 KB,
// a Table-1 generation fills at most eight, an incremental re-plan one.
const slabChunk = 1024

// slab hands out runs of T from chunks that are never moved or shrunk, so
// pointers into them stay valid until reset lets them be handed out again.
type slab[T any] struct {
	free   []T   // the unused tail of the chunk being filled
	chunks [][]T // every chunk; chunks[:next] have been opened since reset
	next   int
}

// take returns n consecutive elements capped at n, so appending to them never
// runs into the next taker's. The caller overwrites all of them: they are dirty.
func (s *slab[T]) take(n int) []T {
	for len(s.free) < n {
		if s.next == len(s.chunks) {
			s.chunks = append(s.chunks, make([]T, max(n, slabChunk)))
		}
		s.free = s.chunks[s.next]
		s.next++
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// Arena is the memory a population of plan trees lives in: a slab of nodes
// and one of child links. Trees built in it are ordinary trees, edited in
// place, until Reset; after it every pointer into the arena is dead. A nil
// *Arena is the heap: each node and child list is an allocation of its own.
type Arena struct {
	nodes slab[Node]
	links slab[*Node]
}

// Reset makes the arena's memory available again, in O(1); the chunks stay.
func (a *Arena) Reset() {
	a.nodes.free, a.nodes.next = nil, 0
	a.links.free, a.links.next = nil, 0
}

func (a *Arena) node() *Node {
	if a == nil {
		return new(Node)
	}
	return &a.nodes.take(1)[0]
}

func (a *Arena) children(k int) []*Node {
	if a == nil {
		return make([]*Node, k)
	}
	return a.links.take(k)
}

// Clone copies the tree into the arena. The copy shares the source's Inputs
// and Outputs, which no genetic operator writes; Node.Clone copies them too.
func (a *Arena) Clone(n *Node) *Node { return a.clone(n, false) }

func (a *Arena) clone(n *Node, deep bool) *Node {
	if n == nil {
		return nil
	}
	m := a.node()
	*m = *n
	m.Children = nil
	if deep {
		m.Inputs = append([]string(nil), n.Inputs...)
		m.Outputs = append([]string(nil), n.Outputs...)
	}
	if len(n.Children) > 0 {
		m.Children = a.children(len(n.Children))
		for i, ch := range n.Children {
			m.Children[i] = a.clone(ch, deep)
		}
	}
	return m
}

// Clone returns a deep copy of the tree. The copy's nodes share one backing
// array and its child lists another, so a tree costs two allocations, not
// two per node; each child list is capped at its own length, so appending
// to one reallocates it instead of running into its neighbour.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	var once Arena // sized to the tree
	nodes, links := 0, 0
	n.count(&nodes, &links)
	once.nodes.free, once.links.free = make([]Node, nodes), make([]*Node, links)
	return once.clone(n, true)
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
	return (*Arena)(nil).Random(rng, services, maxSize)
}

// Random is the package's Random building in the arena: same draws, same tree.
func (a *Arena) Random(rng *rand.Rand, services []string, maxSize int) *Node {
	if len(services) == 0 {
		panic("plantree: Random with empty service set")
	}
	if maxSize < 1 {
		maxSize = 1
	}
	target := 1 + rng.Intn(maxSize)
	return a.randomWithSize(rng, services, target)
}

// randomWithSize builds a tree of exactly size nodes when size >= 1.
func (a *Arena) randomWithSize(rng *rand.Rand, services []string, size int) *Node {
	node := a.node()
	if size <= 1 {
		*node = Node{Kind: KindActivity, Service: services[rng.Intn(len(services))]}
		return node
	}
	kind := controllerKinds[rng.Intn(len(controllerKinds))]
	budget := size - 1 // nodes available for children subtrees
	k := 1 + rng.Intn(min(budget, 4))
	// Split budget into k parts, each >= 1.
	parts := [4]int{1, 1, 1, 1}
	for extra := budget - k; extra > 0; extra-- {
		parts[rng.Intn(k)]++
	}
	*node = Node{Kind: kind, Children: a.children(k)}
	for i := range node.Children {
		node.Children[i] = a.randomWithSize(rng, services, parts[i])
	}
	return node
}
