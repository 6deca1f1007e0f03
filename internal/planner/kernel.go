package planner

import (
	"slices"

	"repro/internal/expr"
	"repro/internal/plantree"
	"repro/internal/workflow"
)

// kernel is a planning problem compiled for the validity simulation of
// Section 3.4.4. Everything the simulation re-decides per activity per flow
// is fixed once the catalog is known, so it is decided here, once:
//
//   - services are small integers;
//   - every data item a flow can ever hold is one of a finite set of kinds —
//     each initial item, then each (service, output) pair — and a kind fixes
//     the item's properties, so the state of a flow is a count per kind;
//   - a condition that references only its own formal is a list of kinds.
//
// A condition that references another formal or a named case item keeps its
// parsed expression and is evaluated on every kind, through the scratch
// (scratch.Lookup). The kernel is immutable after compile; all mutable state
// lives in a per-worker scratch.
type kernel struct {
	names []string // by service index: the catalog's names, sorted
	svcs  []kernelService

	// items holds one representative data item per kind. The initial items
	// are kinds 0..initial-1, in the sorted-name order of State.Items(), one
	// of each in every flow's initial state. A named reference (D1.Size) can
	// only resolve to one of them: generated item names contain dots, which
	// the condition grammar's identifiers cannot.
	items   []*workflow.DataItem
	initial int

	goals []kernelCond // bound to the formal G

	unroll int // Params.MaxLoopUnroll
}

type kernelService struct {
	inputs  []kernelCond
	formals []string // distinct formal names of the inputs
	needEnv bool     // some input condition is evaluated through the scratch
	outKind int32    // outputs are kinds outKind..outKind+nOut-1
	nOut    int32
	cost    float64
	time    float64
}

// kernelCond is one compiled condition.
type kernelCond struct {
	formal int32     // index of the formal it binds, in the owner's formals
	kinds  []int32   // the kinds an item bound to the formal may have
	node   expr.Node // still to evaluate on a candidate; nil: kinds decide
}

var goalFormals = []string{"G"}

// compileKernel compiles a validated problem.
func compileKernel(problem *workflow.Problem, params Params) (*kernel, error) {
	k := &kernel{unroll: params.MaxLoopUnroll}
	k.items = problem.Initial.Items()
	k.initial = len(k.items)
	services := problem.Catalog.Services()
	for _, svc := range services {
		ks := kernelService{outKind: int32(len(k.items)), nOut: int32(len(svc.Outputs)), cost: svc.Cost, time: svc.BaseTime}
		k.items = append(k.items, svc.Produce(nil, 0)...)
		k.names = append(k.names, svc.Name)
		k.svcs = append(k.svcs, ks)
	}
	// Candidates span every kind, so they are listed after the kinds are known.
	for si, svc := range services {
		ks := &k.svcs[si]
		for i := range svc.Inputs {
			in := &svc.Inputs[i]
			node, err := expr.Parse(in.Condition)
			if err != nil {
				return nil, err
			}
			formal := -1
			for fi, f := range ks.formals {
				if f == in.Name {
					formal = fi
				}
			}
			if formal < 0 {
				formal = len(ks.formals)
				ks.formals = append(ks.formals, in.Name)
			}
			c := k.compileCond(node, in.Name, int32(formal))
			ks.needEnv = ks.needEnv || c.node != nil
			ks.inputs = append(ks.inputs, c)
		}
	}
	for _, g := range problem.Goal.Conditions {
		node, err := expr.Parse(g)
		if err != nil {
			return nil, err
		}
		k.goals = append(k.goals, k.compileCond(node, goalFormals[0], 0))
	}
	return k, nil
}

// compileCond lists the kinds that satisfy node when its value depends only on
// the item bound to formal, which is the case when formal is the only object
// it references: the formal shadows any case item of the same name. Any other
// condition keeps node, and every kind is a candidate for it.
func (k *kernel) compileCond(node expr.Node, formal string, idx int32) kernelCond {
	c := kernelCond{formal: idx}
	for _, r := range node.Refs(nil) {
		if r.Obj != formal {
			c.node = node
		}
	}
	bound := map[string]*workflow.DataItem{}
	var env expr.Env = workflow.Binding{Formals: bound}
	for kind, it := range k.items {
		bound[formal] = it
		if c.node != nil || node.Eval(env) {
			c.kinds = append(c.kinds, int32(kind))
		}
	}
	return c
}

// flatNode is one plan-tree node in a scratch.
type flatNode struct {
	kind  plantree.Kind
	svc   int32 // activity: service index, -1 when the catalog has none
	first int32 // the children are kids[first:first+nkids]
	nkids int32
	point int32 // index into odo/domain of the node's flow decision, or -1
}

// class is a set of flows that agree on every decision they have reached so
// far, and the one state they share. Its flows are flows[lo:lo+n]; its counts
// and bind memo are its row of the scratch's state. It holds no pointer, so
// the walk's writes to it need no GC write barrier.
type class struct {
	lo, n           int32
	produced        int32 // items added so far: the state's version
	valid, executed int
	cost            float64 // nominal resource cost of valid activities
	time            float64 // nominal run time of valid activities
	goal            float64 // goals met by the final state
}

// scratch is the mutable state of one evaluation worker: the tree flattened
// to integer arrays (and, for a tree given as nodes, its genome), the flows'
// digits, and the classes the flows fall into as the tree is walked. Its
// slices are reused across evaluations, so a warm evaluation allocates
// nothing. A scratch belongs to one goroutine at a time.
type scratch struct {
	k *kernel

	// The tree in pre-order.
	genes []plantree.Gene
	nodes []flatNode
	kids  []int32

	// One digit per decision point, in pre-order; flows are enumerated in
	// lexicographic order of odo, last digit fastest. Flow f's digit at
	// point p is digits[p*len(owner)+f].
	odo    []int32
	domain []int32
	digits []int32

	// A class's row of state is its count by kind (the items of that kind
	// available), then its memo by service (bindOK, produced+1 at its last
	// failure, or 0). Inputs are never consumed, so the state only grows: once
	// a service binds it always does, and a failure stands until an item is
	// added. Classes never merge: there are at most as many as flows.
	classes []class
	state   []int32
	flows   []int32 // each class's flows, contiguous
	act     []int32 // the classes a node runs on: a stack of sets
	owner   []int32 // by flow: its class once the walk is done
	tally   []int32 // split's counting sort: by key, then by flow
	sorted  []int32
	block   []int32 // digits, flows, sorted, owner, tally and state

	// The binding under test, for conditions evaluated through Lookup:
	// bound[f] is the kind formals[f] is bound to, or -1.
	formals []string
	bound   []int32
}

const bindOK = -1

// flatten replaces the scratch's tree with the genome's: node i is gene i,
// and a node's children are the subtrees that follow it.
func (sc *scratch) flatten(genes []plantree.Gene) {
	sc.nodes, sc.kids, sc.odo, sc.domain = sc.nodes[:0], sc.kids[:0], sc.odo[:0], sc.domain[:0]
	for i, g := range genes {
		fn := flatNode{kind: g.Kind, svc: -1, first: int32(len(sc.kids)), nkids: g.Kids, point: -1}
		domain := 0
		switch g.Kind {
		case plantree.KindActivity:
			if int(g.Name) < len(sc.k.svcs) {
				fn.svc = g.Name
			}
		case plantree.KindSelective:
			if g.Kids > 1 {
				domain = int(g.Kids)
			}
		case plantree.KindIterative:
			if sc.k.unroll > 1 {
				domain = sc.k.unroll
			}
		case plantree.KindConcurrent:
			// Concurrent children may run in any order; enumerating the forward
			// and reverse orders catches most order dependencies.
			if g.Kids > 1 {
				domain = 2
			}
		}
		if domain > 0 {
			fn.point = int32(len(sc.odo))
			sc.odo = append(sc.odo, 0)
			sc.domain = append(sc.domain, int32(domain))
		}
		sc.nodes = append(sc.nodes, fn)
		for c := int32(i + 1); len(sc.kids) < int(fn.first+fn.nkids); c += genes[c].Size {
			sc.kids = append(sc.kids, c)
		}
	}
}

// simulate replaces the scratch's tree with the genome's and simulates its
// first maxFlows flows in one walk: one class holding them all starts from
// the initial state, and the walk splits it where their decisions differ.
// Then owner maps each flow to its class, and each class has its goal.
func (sc *scratch) simulate(genes []plantree.Gene, maxFlows int) {
	sc.flatten(genes)
	flows, keys := 1, int32(1)
	for _, d := range sc.domain {
		flows, keys = min(flows*int(d), maxFlows), max(keys, d)
	}
	// The per-flow arrays, the tally and the classes' state are cut from one
	// block, so a scratch grows one buffer for them.
	width := len(sc.k.items) + len(sc.k.svcs)
	b := slices.Grow(sc.block[:0], flows*(len(sc.odo)+3+width)+int(keys))
	sc.block = b
	cut := func(n int) []int32 {
		s := b[:n:n]
		b = b[n:cap(b)]
		return s
	}
	sc.digits, sc.flows, sc.sorted, sc.owner = cut(flows*len(sc.odo)), cut(flows), cut(flows), cut(flows)
	sc.tally, sc.state = cut(int(keys)), b[:0]
	for f := range flows {
		for p, d := range sc.odo {
			sc.digits[p*flows+f] = d
		}
		sc.flows[f] = int32(f)
		for p := len(sc.odo) - 1; p >= 0; p-- { // the odometer's next reading
			if sc.odo[p]++; sc.odo[p] < sc.domain[p] {
				break
			}
			sc.odo[p] = 0
		}
	}

	sc.classes = append(slices.Grow(sc.classes[:0], flows), class{n: int32(flows)})
	sc.state = sc.state[:width]
	clear(sc.state)
	for kind := range sc.k.initial {
		sc.state[kind] = 1
	}
	sc.act = append(sc.act[:0], 0)
	sc.run(0, 0)
	for c := range sc.classes {
		cl := &sc.classes[c]
		count, _ := sc.row(int32(c))
		cl.goal = sc.goalsMet(count)
		for _, f := range sc.flows[cl.lo:][:cl.n] {
			sc.owner[f] = int32(c)
		}
	}
}

// row returns class c's counts and memo.
func (sc *scratch) row(c int32) (count, memo []int32) {
	kinds := len(sc.k.items)
	width := kinds + len(sc.k.svcs)
	r := sc.state[int(c)*width:][:width]
	return r[:kinds], r[kinds:]
}

// digit returns class c's decision at point: all of its flows agree on it
// once the node that reads it has split the class.
func (sc *scratch) digit(c, point int32) int32 {
	return sc.digits[int(point)*len(sc.owner)+int(sc.flows[sc.classes[c].lo])]
}

// split splits each class of act[lo:] by its flows' keys at point, a key
// being a digit less base, keys-1 at most: the flows of the lowest key keep
// the class, and those of each other key become a new class with a copy of
// its state, added to the set. It returns the set's new end.
func (sc *scratch) split(lo int, point, base, keys int32) int {
	width := len(sc.k.items) + len(sc.k.svcs)
	digits := sc.digits[int(point)*len(sc.owner):][:len(sc.owner)]
	key := func(f int32) int32 { return min(digits[f]-base, keys-1) }
	for _, c := range sc.act[lo:] {
		flo := sc.classes[c].lo
		fl := sc.flows[flo:][:sc.classes[c].n]
		if first := key(fl[0]); !slices.ContainsFunc(fl[1:], func(f int32) bool { return key(f) != first }) {
			continue // the flows agree: the class passes through
		}
		// A counting sort by key; tally[k] ends as the end of key k's flows.
		tally := sc.tally[:keys]
		clear(tally)
		for _, f := range fl {
			tally[key(f)]++
		}
		sum := int32(0)
		for k, t := range tally {
			tally[k], sum = sum, sum+t
		}
		sorted := sc.sorted[:len(fl)]
		for _, f := range fl {
			k := key(f)
			sorted[tally[k]] = f
			tally[k]++
		}
		copy(fl, sorted)
		start := int32(0)
		for _, end := range tally {
			if end == start {
				continue
			}
			if start == 0 {
				sc.classes[c].n = end
			} else {
				cl := sc.classes[c]
				cl.lo, cl.n = flo+start, end-start
				sc.act = append(sc.act, int32(len(sc.classes)))
				sc.classes = append(sc.classes, cl)
				sc.state = append(sc.state, sc.state[int(c)*width:][:width]...)
			}
			start = end
		}
	}
	return len(sc.act)
}

// runAll runs nodes in order on the classes act[lo:].
func (sc *scratch) runAll(nodes []int32, lo int) {
	for _, i := range nodes {
		sc.run(i, lo)
	}
}

// run executes node i on the set of classes act[lo:], which is the top of
// the act stack: activities apply their service's pre- and postconditions to
// each class's state (invalid activities count against fv and leave the
// state unchanged), and a decision splits the classes whose flows differ on
// it. The classes split off join the set.
func (sc *scratch) run(i int32, lo int) {
	n := &sc.nodes[i]
	kids := sc.kids[n.first:][:n.nkids]
	switch n.kind {
	case plantree.KindActivity:
		for _, c := range sc.act[lo:] {
			cl := &sc.classes[c]
			cl.executed++
			if n.svc < 0 {
				continue // unknown service: invalid activity
			}
			s := &sc.k.svcs[n.svc]
			count, memo := sc.row(c)
			if m := &memo[n.svc]; *m != bindOK {
				if *m == cl.produced+1 {
					continue // failed on this very state
				}
				if s.needEnv {
					sc.setFormals(s.formals)
				}
				if !sc.bind(s, count, 0) {
					*m = cl.produced + 1
					continue
				}
				*m = bindOK
			}
			cl.valid++
			cl.cost += s.cost
			cl.time += s.time
			for o := s.outKind; o < s.outKind+s.nOut; o++ {
				count[o]++
			}
			cl.produced += s.nOut
		}

	case plantree.KindSequential:
		sc.runAll(kids, lo)

	case plantree.KindConcurrent, plantree.KindSelective:
		if n.point < 0 { // at most one child: nothing to decide
			sc.runAll(kids, lo)
			return
		}
		domain := sc.domain[n.point]
		end := sc.split(lo, n.point, 0, domain)
		for d := range domain {
			// The classes that take branch d go on top of the stack.
			top, mark := len(sc.act), int32(len(sc.classes))
			for _, c := range sc.act[lo:end] {
				if sc.digit(c, n.point) == d {
					sc.act = append(sc.act, c)
				}
			}
			if len(sc.act) == top {
				continue
			}
			switch {
			case n.kind == plantree.KindSelective:
				sc.run(kids[d], top)
			case d == 0: // children left to right
				sc.runAll(kids, top)
			default: // right to left
				for c := len(kids) - 1; c >= 0; c-- {
					sc.run(kids[c], top)
				}
			}
			// The group is in the set below; the classes the branch made are not.
			sc.act = sc.act[:top]
			for c := mark; c < int32(len(sc.classes)); c++ {
				sc.act = append(sc.act, c)
			}
		}

	case plantree.KindIterative:
		// Decision d means d+1 iterations: every class walks the body, then
		// the classes whose count is reached move below the set that goes on.
		for iter := int32(0); ; iter++ {
			sc.runAll(kids, lo)
			if n.point < 0 {
				return
			}
			sc.split(lo, n.point, iter, 2)
			for j := lo; j < len(sc.act); j++ {
				if sc.digit(sc.act[j], n.point) == iter {
					sc.act[lo], sc.act[j] = sc.act[j], sc.act[lo]
					lo++
				}
			}
			if lo == len(sc.act) {
				return
			}
		}
	}
}

// setFormals points Lookup at the formals of the service or goal about to be
// checked, all unbound.
func (sc *scratch) setFormals(formals []string) {
	sc.formals = formals
	sc.bound = sc.bound[:0]
	for range formals {
		sc.bound = append(sc.bound, -1)
	}
}

// bind decides, from input i on, whether Service.BindItems would find an
// injective assignment of the items count holds to the service's inputs.
// Items of one kind are interchangeable, so it tries each candidate kind with
// an item left and takes one. It leaves count and bound as it found them.
func (sc *scratch) bind(s *kernelService, count []int32, i int) bool {
	if i == len(s.inputs) {
		return true
	}
	c := &s.inputs[i]
	for _, kind := range c.kinds {
		if count[kind] == 0 {
			continue
		}
		if s.needEnv {
			sc.bound[c.formal] = kind
		}
		ok := c.node == nil || c.node.Eval(sc)
		if ok {
			count[kind]--
			ok = sc.bind(s, count, i+1)
			count[kind]++
		}
		if s.needEnv {
			sc.bound[c.formal] = -1
		}
		if ok {
			return true
		}
	}
	return false
}

// goalsMet evaluates Equation 2 on a final state: a goal condition is met if
// some item, bound to the formal G, satisfies it.
func (sc *scratch) goalsMet(count []int32) float64 {
	met := 0
	sc.setFormals(goalFormals)
	for gi := range sc.k.goals {
		g := &sc.k.goals[gi]
		for _, kind := range g.kinds {
			sc.bound[0] = kind
			if count[kind] > 0 && (g.node == nil || g.node.Eval(sc)) {
				met++
				break
			}
		}
	}
	return float64(met) / float64(len(sc.k.goals))
}

// Lookup implements expr.Env over the counts for the conditions kinds do not
// decide: a bound formal shadows the case items, as in workflow.Binding.
func (sc *scratch) Lookup(obj, prop string) (expr.Value, bool) {
	for f, name := range sc.formals {
		if name == obj && sc.bound[f] >= 0 {
			return sc.k.items[sc.bound[f]].Prop(prop)
		}
	}
	for _, it := range sc.k.items[:sc.k.initial] {
		if it.Name == obj {
			return it.Prop(prop)
		}
	}
	return expr.Value{}, false
}
