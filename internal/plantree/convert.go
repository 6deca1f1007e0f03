package plantree

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/workflow"
)

// builder emits a process description into arrays sized to the tree.
type builder struct {
	p     *workflow.ProcessDescription
	acts  []workflow.Activity // handed out from the front
	names []string            // the activities' bindings, likewise
}

func (b *builder) fresh(name string, kind workflow.Kind, service string) *workflow.Activity {
	a := &b.acts[0]
	b.acts = b.acts[1:]
	*a = workflow.Activity{ID: workflow.ActivityID(len(b.p.Activities) + 1), Name: name, Kind: kind, Service: service}
	return b.p.Add(a)
}

// bind returns a copy of names cut from the bindings array (nil for none).
func (b *builder) bind(names []string) []string {
	if len(names) == 0 {
		return nil
	}
	k := len(names)
	out := b.names[:k:k]
	b.names = b.names[k:]
	copy(out, names)
	return out
}

// falseCond is "false" parsed: the condition ToProcess gives a loop that
// has none.
var falseCond, _ = expr.Parse("false")

// ToProcess converts a plan tree to the equivalent process description,
// applying the correspondences of Figures 4-7:
//
//   - a sequential node becomes a chain of its children;
//   - a concurrent node becomes a Fork/Join pair around its children;
//   - a selective node becomes a Choice/Merge pair around its children;
//   - an iterative node becomes a loop: a Merge heading the body and a
//     Choice at the end with a back transition to the Merge.
//
// Single-child concurrent and selective nodes are inlined (a Fork with one
// branch is not a legal process description). The resulting process always
// validates. A condition the tree carries parsed (Node.Cond) is not parsed
// again.
func ToProcess(name string, root *Node) (*workflow.ProcessDescription, error) {
	if err := root.Validate(0); err != nil {
		return nil, err
	}
	acts, links, names := root.graphSize()
	b := &builder{p: workflow.NewProcess(name), acts: make([]workflow.Activity, acts+2), names: make([]string, names)}
	b.p.Grow(acts+2, links+2)
	begin := b.fresh("BEGIN", workflow.KindBegin, "")
	end := b.fresh("END", workflow.KindEnd, "")
	entry, exit, err := b.emit(root)
	if err != nil {
		return nil, err
	}
	b.p.Connect(begin.ID, entry)
	b.p.Connect(exit, end.ID)
	if err := b.p.Validate(); err != nil {
		return nil, fmt.Errorf("plantree: generated process invalid: %w", err)
	}
	return b.p, nil
}

// graphSize returns the activities, transitions and binding names emit
// makes of the subtree.
func (n *Node) graphSize() (acts, links, names int) {
	k := len(n.Children)
	switch {
	case n.Kind == KindActivity:
		acts, names = 1, len(n.Inputs)+len(n.Outputs)
	case n.Kind == KindSequential:
		links = k - 1
	case n.Kind == KindIterative:
		acts, links = 2, k+2
	case k > 1: // a concurrent or selective pair around its branches
		acts, links = 2, 2*k
	}
	for _, c := range n.Children {
		a, l, m := c.graphSize()
		acts, links, names = acts+a, links+l, names+m
	}
	return acts, links, names
}

// emit writes the subgraph for node n and returns its entry and exit
// activity IDs.
func (b *builder) emit(n *Node) (entry, exit string, err error) {
	switch n.Kind {
	case KindActivity:
		name := n.Name
		if name == "" {
			name = n.Service
		}
		a := b.fresh(name, workflow.KindEndUser, n.Service)
		a.Inputs, a.Outputs = b.bind(n.Inputs), b.bind(n.Outputs)
		return a.ID, a.ID, nil

	case KindSequential:
		var first, last string
		for _, c := range n.Children {
			e, x, err := b.emit(c)
			if err != nil {
				return "", "", err
			}
			if first == "" {
				first = e
			} else {
				b.p.Connect(last, e)
			}
			last = x
		}
		return first, last, nil

	case KindConcurrent:
		if len(n.Children) == 1 {
			return b.emit(n.Children[0])
		}
		fork := b.fresh("FORK", workflow.KindFork, "")
		join := b.fresh("JOIN", workflow.KindJoin, "")
		for _, c := range n.Children {
			e, x, err := b.emit(c)
			if err != nil {
				return "", "", err
			}
			b.p.Connect(fork.ID, e)
			b.p.Connect(x, join.ID)
		}
		return fork.ID, join.ID, nil

	case KindSelective:
		if len(n.Children) == 1 {
			return b.emit(n.Children[0])
		}
		choice := b.fresh("CHOICE", workflow.KindChoice, "")
		merge := b.fresh("MERGE", workflow.KindMerge, "")
		for _, c := range n.Children {
			e, x, err := b.emit(c)
			if err != nil {
				return "", "", err
			}
			// On an iterative child, Condition is its loop condition, not a
			// guard; such an alternative is unguarded unless wrapped in a
			// sequential carrying the guard.
			guard, node := c.Condition, c.Cond
			if c.Kind == KindIterative {
				guard, node = "", nil
			}
			b.p.ConnectParsed(choice.ID, e, guard, node)
			b.p.Connect(x, merge.ID)
		}
		return choice.ID, merge.ID, nil

	case KindIterative:
		merge := b.fresh("MERGE", workflow.KindMerge, "")
		choice := b.fresh("CHOICE", workflow.KindChoice, "")
		var bodyEntry, last string
		for _, c := range n.Children {
			e, x, err := b.emit(c)
			if err != nil {
				return "", "", err
			}
			if bodyEntry == "" {
				bodyEntry = e
			} else {
				b.p.Connect(last, e)
			}
			last = x
		}
		b.p.Connect(merge.ID, bodyEntry)
		b.p.Connect(last, choice.ID)
		// The back transition repeats the loop while the continue condition
		// holds; the forward transition exits. A condition-less iterative
		// node gets the literal "false" so enactment runs the body exactly
		// once instead of looping forever.
		cond, node := n.Condition, n.Cond
		if cond == "" {
			cond, node = "false", falseCond
		}
		b.p.ConnectParsed(choice.ID, merge.ID, cond, node)
		return merge.ID, choice.ID, nil
	}
	return "", "", fmt.Errorf("plantree: unknown node kind %v", n.Kind)
}

// FromProcess converts a well-structured process description back into a
// plan tree, inverting ToProcess. The process must be structured in the
// paper's sense: Fork paired with Join, Choice with Merge, loops formed by a
// Merge header and a Choice with a back transition. Non-structured graphs
// return an error.
func FromProcess(p *workflow.ProcessDescription) (*Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	begin := p.Begin()
	end := p.End()
	pr := &parser{p: p}
	pr.dominators()
	nodes, stop, err := pr.parseSeq(onlySucc(p, begin.ID), end.ID)
	if err != nil {
		return nil, err
	}
	if stop != end.ID {
		return nil, fmt.Errorf("plantree: parse stopped at %s, not END", stop)
	}
	tree := Seq(nodes...)
	return tree.Normalize(), nil
}

type parser struct {
	p     *workflow.ProcessDescription
	steps int
	// By activity position: the immediate dominator (Begin's is itself) and
	// the number in a depth-first postorder from Begin.
	idom, post []int32
}

const maxParseSteps = 1 << 16

func onlySucc(p *workflow.ProcessDescription, id string) string {
	out := p.Out(id)
	if len(out) == 1 {
		return out[0].Dest
	}
	return ""
}

// parseSeq consumes activities from cur until reaching stop (exclusive) and
// returns the parsed nodes plus the ID where parsing stopped.
func (pr *parser) parseSeq(cur, stop string) ([]*Node, string, error) {
	var nodes []*Node
	for cur != stop && cur != "" {
		pr.steps++
		if pr.steps > maxParseSteps {
			return nil, "", fmt.Errorf("plantree: process not structured (parse did not terminate)")
		}
		a := pr.p.Activity(cur)
		if a == nil {
			return nil, "", fmt.Errorf("plantree: dangling activity reference %q", cur)
		}
		switch a.Kind {
		case workflow.KindEndUser:
			node := Activity(a.Service)
			if a.Name != "" && a.Name != a.Service {
				node.Name = a.Name
			}
			node.Inputs = append([]string(nil), a.Inputs...)
			node.Outputs = append([]string(nil), a.Outputs...)
			nodes = append(nodes, node)
			cur = onlySucc(pr.p, cur)

		case workflow.KindFork:
			node, next, err := pr.parseFork(a)
			if err != nil {
				return nil, "", err
			}
			nodes = append(nodes, node)
			cur = next

		case workflow.KindChoice:
			node, next, err := pr.parseChoice(a)
			if err != nil {
				return nil, "", err
			}
			nodes = append(nodes, node)
			cur = next

		case workflow.KindMerge:
			node, next, err := pr.parseLoop(a)
			if err != nil {
				return nil, "", err
			}
			nodes = append(nodes, node)
			cur = next

		case workflow.KindJoin:
			// A Join reached outside parseFork means the graph is not
			// structured (or we've hit the branch stop without knowing it).
			return nil, "", fmt.Errorf("plantree: unmatched Join %s", a.ID)

		default:
			return nil, "", fmt.Errorf("plantree: unexpected %s activity %s", a.Kind, a.ID)
		}
	}
	if cur == "" {
		return nil, "", fmt.Errorf("plantree: flow ended before reaching stop activity")
	}
	return nodes, cur, nil
}

// parseFork parses FORK branches up to the matching JOIN and returns the
// concurrent node and the JOIN's successor.
func (pr *parser) parseFork(fork *workflow.Activity) (*Node, string, error) {
	join, err := pr.findMatching(fork.ID, workflow.KindFork, workflow.KindJoin)
	if err != nil {
		return nil, "", err
	}
	node := &Node{Kind: KindConcurrent}
	for _, t := range pr.p.Out(fork.ID) {
		branch, stopped, err := pr.parseSeq(t.Dest, join)
		if err != nil {
			return nil, "", err
		}
		if stopped != join {
			return nil, "", fmt.Errorf("plantree: fork %s branch does not reach join %s", fork.ID, join)
		}
		node.Children = append(node.Children, seqOrSingle(branch))
	}
	return node, onlySucc(pr.p, join), nil
}

// parseChoice parses a selective block: CHOICE branches converging at the
// matching MERGE.
func (pr *parser) parseChoice(choice *workflow.Activity) (*Node, string, error) {
	merge, err := pr.findMatching(choice.ID, workflow.KindChoice, workflow.KindMerge)
	if err != nil {
		return nil, "", err
	}
	node := &Node{Kind: KindSelective}
	for _, t := range pr.p.Out(choice.ID) {
		if t.Dest == merge {
			continue // an empty alternative (Choice straight to Merge) is skipped
		}
		branch, stopped, err := pr.parseSeq(t.Dest, merge)
		if err != nil {
			return nil, "", err
		}
		if stopped != merge {
			return nil, "", fmt.Errorf("plantree: choice %s branch does not reach merge %s", choice.ID, merge)
		}
		child := seqOrSingle(branch)
		// Guards live on the alternative node; if the alternative is an
		// iterative node its Condition slot is taken by the loop condition,
		// so wrap it.
		if t.Condition != "" {
			if child.Kind == KindIterative || child.Condition != "" {
				child = Seq(child)
			}
			child.Condition, child.Cond = t.Condition, t.CondNode()
		}
		node.Children = append(node.Children, child)
	}
	if len(node.Children) == 0 {
		return nil, "", fmt.Errorf("plantree: choice %s has no non-empty branches", choice.ID)
	}
	return node, onlySucc(pr.p, merge), nil
}

// loopChoice returns the Choice activity that closes the loop headed by
// merge, or nil if merge is not a loop header. A transition Choice -> Merge
// is a loop back edge precisely when the Merge dominates the Choice (every
// path from Begin to the Choice passes through the Merge); this cleanly
// separates loop headers from the Merges that close selective blocks, even
// when selectives and loops nest inside each other.
func (pr *parser) loopChoice(mergeID string) *workflow.Activity {
	for _, t := range pr.p.In(mergeID) {
		src := pr.p.Activity(t.Source)
		if src != nil && src.Kind == workflow.KindChoice && pr.dominates(mergeID, src.ID) {
			return src
		}
	}
	return nil
}

// dominates reports whether every path from Begin to activity b passes
// through activity a (a dominates itself): whether a is on b's chain of
// immediate dominators.
func (pr *parser) dominates(a, b string) bool {
	x, y := int32(pr.p.Pos(a)), int32(pr.p.Pos(b))
	for y != x {
		if pr.idom[y] == y {
			return false // Begin, which nothing else dominates
		}
		y = pr.idom[y]
	}
	return true
}

// dominators computes every activity's immediate dominator by the iteration
// of Cooper, Harvey and Kennedy: in reverse postorder, an activity's is the
// nearest common dominator of its predecessors seen so far, repeated until
// nothing changes. FromProcess validated the process, so Begin reaches
// every activity.
func (pr *parser) dominators() {
	n := len(pr.p.Activities)
	buf := make([]int32, 3*n)
	pr.idom, pr.post = buf[:n], buf[n:2*n]
	for i := range pr.idom {
		pr.idom[i], pr.post[i] = -1, -1
	}
	begin := int32(pr.p.Pos(pr.p.Begin().ID))
	order := pr.postorder(begin, buf[2*n:2*n])
	pr.idom[begin] = begin
	for changed := true; changed; {
		changed = false
		for i := len(order) - 2; i >= 0; i-- { // Begin is last
			v, d := order[i], int32(-1)
			for _, t := range pr.p.In(pr.p.Activities[v].ID) {
				u := int32(pr.p.Pos(t.Source))
				if pr.idom[u] < 0 {
					continue // later in the order: a back edge, on the first pass
				}
				for d >= 0 && u != d {
					for pr.post[u] < pr.post[d] {
						u = pr.idom[u]
					}
					for pr.post[d] < pr.post[u] {
						d = pr.idom[d]
					}
				}
				d = u
			}
			if pr.idom[v] != d {
				pr.idom[v], changed = d, true
			}
		}
	}
}

// postorder appends the activities a depth-first walk from v reaches for the
// first time, each after its successors, numbering them in pr.post.
func (pr *parser) postorder(v int32, order []int32) []int32 {
	pr.post[v] = 0 // on the walk
	for _, t := range pr.p.Out(pr.p.Activities[v].ID) {
		if w := int32(pr.p.Pos(t.Dest)); pr.post[w] < 0 {
			order = pr.postorder(w, order)
		}
	}
	pr.post[v] = int32(len(order))
	return append(order, v)
}

// parseLoop parses an iterative block headed by a MERGE: the body runs until
// a CHOICE with a back transition to the MERGE; the other transition exits.
func (pr *parser) parseLoop(merge *workflow.Activity) (*Node, string, error) {
	backChoice := pr.loopChoice(merge.ID)
	if backChoice == nil {
		return nil, "", fmt.Errorf("plantree: merge %s is not a loop header and not inside a choice", merge.ID)
	}
	body, stopped, err := pr.parseSeq(onlySucc(pr.p, merge.ID), backChoice.ID)
	if err != nil {
		return nil, "", err
	}
	if stopped != backChoice.ID {
		return nil, "", fmt.Errorf("plantree: loop body of %s does not reach its choice", merge.ID)
	}
	if len(body) == 0 {
		return nil, "", fmt.Errorf("plantree: loop at %s has an empty body", merge.ID)
	}
	node := &Node{Kind: KindIterative, Children: []*Node{seqOrSingle(body)}}
	if n := node.Children[0]; n.Kind == KindSequential {
		node.Children = n.Children
	}
	// Exit is the choice successor that is not the back edge; record the
	// back-edge condition as the loop condition.
	exit := ""
	for _, t := range pr.p.Out(backChoice.ID) {
		if t.Dest == merge.ID {
			if t.Condition != "false" { // inverse of the ToProcess sentinel
				node.Condition, node.Cond = t.Condition, t.CondNode()
			}
			continue
		}
		if exit != "" {
			return nil, "", fmt.Errorf("plantree: loop choice %s has multiple exits", backChoice.ID)
		}
		exit = t.Dest
	}
	if exit == "" {
		return nil, "", fmt.Errorf("plantree: loop choice %s has no exit", backChoice.ID)
	}
	// Pick up the constraint attached to the choice (e.g. Cons1).
	if backChoice.Constraint != "" && node.Condition == "" {
		node.Condition, node.Cond = backChoice.Constraint, backChoice.ConstraintNode()
	}
	return node, exit, nil
}

// findMatching walks forward from open's successors to find the matching
// close activity, tracking nesting of open/close kinds along one path.
func (pr *parser) findMatching(openID string, openKind, closeKind workflow.Kind) (string, error) {
	depth := 0
	cur := pr.p.Out(openID)[0].Dest
	for steps := 0; steps < maxParseSteps; steps++ {
		a := pr.p.Activity(cur)
		if a == nil {
			return "", fmt.Errorf("plantree: dangling reference %q while matching %s", cur, openID)
		}
		// A Merge that heads a loop is transparent for matching: jump to
		// the loop's exit so the loop-internal Choice and back edge cannot
		// confuse either Choice/Merge or Fork/Join pairing.
		if a.Kind == workflow.KindMerge {
			if bc := pr.loopChoice(a.ID); bc != nil {
				exit := ""
				for _, t := range pr.p.Out(bc.ID) {
					if t.Dest != a.ID {
						exit = t.Dest
						break
					}
				}
				if exit == "" {
					return "", fmt.Errorf("plantree: loop at %s has no exit", a.ID)
				}
				cur = exit
				continue
			}
		}
		switch a.Kind {
		case openKind:
			depth++
		case closeKind:
			if depth == 0 {
				return a.ID, nil
			}
			depth--
		case workflow.KindEnd:
			return "", fmt.Errorf("plantree: no matching %v for %s", closeKind, openID)
		}
		next := pr.p.Out(cur)
		if len(next) == 0 {
			return "", fmt.Errorf("plantree: no matching %v for %s", closeKind, openID)
		}
		cur = next[0].Dest
	}
	return "", fmt.Errorf("plantree: matching for %s did not terminate", openID)
}

// seqOrSingle wraps nodes in a sequential controller unless there is exactly
// one.
func seqOrSingle(nodes []*Node) *Node {
	if len(nodes) == 1 {
		return nodes[0]
	}
	return Seq(nodes...)
}
