// Package plantree implements the plan-tree representation of Section 3.4.1:
// the nonlinear encoding the genetic planner evolves. A plan tree consists
// of terminal nodes (end-user activities) and controller nodes (sequential,
// concurrent, selective, iterative), and converts to and from the
// process-description graph form (Figures 4-7, 10-11).
package plantree

import (
	"fmt"
	"strings"

	"repro/internal/expr"
)

// Kind classifies plan-tree nodes.
type Kind int8

// Node kinds. KindActivity is the terminal kind; the other four are the
// controller kinds of the paper.
const (
	KindActivity Kind = iota
	KindSequential
	KindConcurrent
	KindSelective
	KindIterative
)

// String returns the lowercase spelling used in the figures.
func (k Kind) String() string {
	switch k {
	case KindActivity:
		return "activity"
	case KindSequential:
		return "seq"
	case KindConcurrent:
		return "conc"
	case KindSelective:
		return "sel"
	case KindIterative:
		return "iter"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsController reports whether k is one of the four controller kinds.
func (k Kind) IsController() bool { return k != KindActivity }

// Node is one node of a plan tree.
type Node struct {
	Kind Kind

	// Service names the end-user service for terminal nodes.
	Service string

	// Name optionally labels the activity distinctly from its service (the
	// P3DR1..P3DR4 of Figure 10 all run service P3DR). Empty means the
	// activity is labelled by its service name.
	Name string

	// Inputs and Outputs optionally bind case-level data names to the
	// activity (the Input/Output Data Sets of Figure 13); conditions that
	// reference data by name (Cons1's D12) rely on output bindings.
	Inputs  []string
	Outputs []string

	// Children are the ordered child nodes of a controller node; terminal
	// nodes have none. For a sequential node the order is the execution
	// order (leftmost first).
	Children []*Node

	// Condition optionally carries a condition-expression source: on an
	// iterative node it is the loop-continue condition; on a child of a
	// selective node it guards that alternative.
	Condition string

	// Cond is Condition parsed, when whoever set Condition parsed it (the
	// PDL parser and FromProcess do); nil leaves the parse to the process
	// description ToProcess builds. Equal and String ignore it.
	Cond expr.Node
}

// Activity returns a terminal node for the named service.
func Activity(service string) *Node { return &Node{Kind: KindActivity, Service: service} }

// Seq returns a sequential controller over the children.
func Seq(children ...*Node) *Node { return &Node{Kind: KindSequential, Children: children} }

// Size returns the number of nodes in the tree (Section 3.4.1's tree size,
// bounded by Smax during evolution).
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	size := 1
	for _, c := range n.Children {
		size += c.Size()
	}
	return size
}

// Depth returns the height of the tree (a single node has depth 1).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Leaves returns the terminal (activity) nodes in left-to-right order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.walk(func(node, _ *Node, _ int) {
		if node.Kind == KindActivity {
			out = append(out, node)
		}
	})
	return out
}

// Services returns the service names of the leaves, left to right.
func (n *Node) Services() []string {
	leaves := n.Leaves()
	out := make([]string, len(leaves))
	for i, l := range leaves {
		out[i] = l.Service
	}
	return out
}

// Equal reports structural equality.
func (n *Node) Equal(m *Node) bool {
	if n == nil || m == nil {
		return n == m
	}
	if n.Kind != m.Kind || n.Service != m.Service || n.Name != m.Name || n.Condition != m.Condition ||
		len(n.Children) != len(m.Children) ||
		!equalStrings(n.Inputs, m.Inputs) || !equalStrings(n.Outputs, m.Outputs) {
		return false
	}
	for i := range n.Children {
		if !n.Children[i].Equal(m.Children[i]) {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// walk visits every node in pre-order with its parent and child index
// (parent nil, idx -1 for the root).
func (n *Node) walk(fn func(node, parent *Node, idx int)) {
	var rec func(node, parent *Node, idx int)
	rec = func(node, parent *Node, idx int) {
		fn(node, parent, idx)
		for i, c := range node.Children {
			rec(c, node, i)
		}
	}
	rec(n, nil, -1)
}

// Validate checks the structural invariants of plan trees: controller nodes
// have at least one child, terminal nodes have a service and no children,
// and the total size does not exceed smax (pass smax <= 0 to skip the size
// check).
func (n *Node) Validate(smax int) error {
	if n == nil {
		return fmt.Errorf("plantree: nil tree")
	}
	if smax > 0 && n.Size() > smax {
		return fmt.Errorf("plantree: size %d exceeds Smax %d", n.Size(), smax)
	}
	var err error
	n.walk(func(node, _ *Node, _ int) {
		if err != nil {
			return
		}
		switch {
		case node.Kind == KindActivity && len(node.Children) > 0:
			err = fmt.Errorf("plantree: activity node %q has children", node.Service)
		case node.Kind == KindActivity && node.Service == "":
			err = fmt.Errorf("plantree: activity node with empty service")
		case node.Kind.IsController() && len(node.Children) == 0:
			err = fmt.Errorf("plantree: %s controller with no children", node.Kind)
		}
	})
	return err
}

// String renders the tree as an s-expression, e.g.
// (seq POD P3DR (iter POR (conc P3DR P3DR P3DR) PSF)).
func (n *Node) String() string {
	if n == nil {
		return "()"
	}
	if n.Kind == KindActivity {
		return n.Service
	}
	var sb strings.Builder
	sb.Grow(n.renderLen())
	n.Render(&sb)
	return sb.String()
}

// renderLen returns the number of bytes Render writes.
func (n *Node) renderLen() int {
	switch {
	case n == nil:
		return len("()")
	case n.Kind == KindActivity:
		return len(n.Service)
	}
	size := len("()") + len(n.Kind.String())
	for _, c := range n.Children {
		size += 1 + c.renderLen()
	}
	return size
}

// Render writes what String returns to sb: one string can hold many trees.
func (n *Node) Render(sb *strings.Builder) {
	switch {
	case n == nil:
		sb.WriteString("()")
	case n.Kind == KindActivity:
		sb.WriteString(n.Service)
	default:
		sb.WriteByte('(')
		sb.WriteString(n.Kind.String())
		for _, c := range n.Children {
			sb.WriteByte(' ')
			c.Render(sb)
		}
		sb.WriteByte(')')
	}
}

// Normalize simplifies the tree without changing its semantics: nested
// sequential nodes are flattened into their sequential parents, and
// single-child sequential/concurrent/selective controllers are replaced by
// their child. It returns the (possibly new) root. Iterative nodes are kept
// even with one child, because iteration changes semantics.
func (n *Node) Normalize() *Node {
	if n == nil || n.Kind == KindActivity {
		return n
	}
	kids := make([]*Node, 0, len(n.Children))
	for _, c := range n.Children {
		c = c.Normalize()
		// An iterative node already executes its children in sequence, so a
		// sequential child under a sequential or iterative parent is
		// redundant structure.
		flattenable := n.Kind == KindSequential || n.Kind == KindIterative
		if flattenable && c.Kind == KindSequential && c.Condition == "" {
			kids = append(kids, c.Children...)
			continue
		}
		kids = append(kids, c)
	}
	n.Children = kids
	if len(kids) == 1 && n.Kind != KindIterative && n.Condition == "" {
		return kids[0]
	}
	return n
}
