package planner

import (
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
	services map[string]int32 // service name -> index into svcs
	svcs     []kernelService

	// items holds one representative data item per kind. The initial items
	// are kinds 0..initial-1, in the sorted-name order of State.Items(), one
	// of each in every flow's initial state. A named reference (D1.Size) can
	// only resolve to one of them: generated item names contain dots, which
	// the condition grammar's identifiers cannot.
	items   []*workflow.DataItem
	initial int

	goals []kernelCond // bound to the formal G

	unroll int  // Params.MaxLoopUnroll
	strict bool // Params.StrictConcurrency
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
	k := &kernel{
		services: make(map[string]int32, problem.Catalog.Len()),
		unroll:   params.MaxLoopUnroll,
		strict:   params.StrictConcurrency,
	}
	k.items = problem.Initial.Items()
	k.initial = len(k.items)
	services := problem.Catalog.Services()
	for _, svc := range services {
		ks := kernelService{outKind: int32(len(k.items)), nOut: int32(len(svc.Outputs)), cost: svc.Cost, time: svc.BaseTime}
		k.items = append(k.items, svc.Produce(nil, 0)...)
		k.services[svc.Name] = int32(len(k.svcs))
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

// scratch is the mutable state of one evaluation worker: the tree flattened
// to integer arrays, the flow odometer, and the simulated item state. Its
// slices are reused across evaluations, so a warm evaluation allocates
// nothing. A scratch belongs to one goroutine at a time.
type scratch struct {
	k *kernel

	// The tree in pre-order.
	nodes []flatNode
	kids  []int32

	// One digit per decision point, in pre-order; flows are enumerated in
	// lexicographic order of odo, last digit fastest.
	odo    []int32
	domain []int32

	// One flow. Inputs are never consumed, so the state only grows: once a
	// service binds it always does, and a failure stands until an item is added.
	count    []int32 // by kind: the items of that kind available
	produced int32   // items added so far: the state's version
	memo     []int32 // by service: bindOK, produced+1 at its last failure, or 0
	valid    int
	executed int
	cost     float64 // nominal resource cost of valid activities
	time     float64 // nominal run time of valid activities

	// The binding under test, for conditions evaluated through Lookup:
	// bound[f] is the kind formals[f] is bound to, or -1.
	formals []string
	bound   []int32
}

const bindOK = -1

func newScratch(k *kernel) *scratch {
	block := make([]int32, len(k.items)+len(k.svcs))
	sc := &scratch{k: k, count: block[:len(k.items)], memo: block[len(k.items):]}
	for kind := range k.initial {
		sc.count[kind] = 1
	}
	return sc
}

// flatten appends the subtree at n and returns its index.
func (sc *scratch) flatten(n *plantree.Node) int32 {
	fn := flatNode{kind: n.Kind, svc: -1, first: int32(len(sc.kids)), nkids: int32(len(n.Children)), point: -1}
	domain := 0
	switch n.Kind {
	case plantree.KindActivity:
		if id, ok := sc.k.services[n.Service]; ok {
			fn.svc = id
		}
	case plantree.KindSelective:
		if len(n.Children) > 1 {
			domain = len(n.Children)
		}
	case plantree.KindIterative:
		if sc.k.unroll > 1 {
			domain = sc.k.unroll
		}
	case plantree.KindConcurrent:
		// Concurrent children may run in any order; enumerating the forward
		// and reverse orders catches most order dependencies.
		if sc.k.strict && len(n.Children) > 1 {
			domain = 2
		}
	}
	if domain > 0 {
		fn.point = int32(len(sc.odo))
		sc.odo = append(sc.odo, 0)
		sc.domain = append(sc.domain, int32(domain))
	}
	i := int32(len(sc.nodes))
	sc.nodes = append(sc.nodes, fn)
	for range n.Children {
		sc.kids = append(sc.kids, 0)
	}
	for c, ch := range n.Children {
		sc.kids[int(fn.first)+c] = sc.flatten(ch)
	}
	return i
}

// load replaces the scratch's tree with tree and returns its size.
func (sc *scratch) load(tree *plantree.Node) int {
	sc.nodes, sc.kids, sc.odo, sc.domain = sc.nodes[:0], sc.kids[:0], sc.odo[:0], sc.domain[:0]
	sc.flatten(tree)
	return len(sc.nodes)
}

// nextFlow increments the odometer; it reports false on wrap-around.
func (sc *scratch) nextFlow() bool {
	for i := len(sc.odo) - 1; i >= 0; i-- {
		sc.odo[i]++
		if sc.odo[i] < sc.domain[i] {
			return true
		}
		sc.odo[i] = 0
	}
	return false
}

// runFlow simulates the flow the odometer selects, from the initial state.
func (sc *scratch) runFlow() {
	clear(sc.count[sc.k.initial:])
	clear(sc.memo)
	sc.produced, sc.valid, sc.executed, sc.cost, sc.time = 0, 0, 0, 0, 0
	sc.run(0)
}

// decision returns the flow choice at n, 0 where there is none to make.
func (sc *scratch) decision(n *flatNode) int32 {
	if n.point >= 0 {
		return sc.odo[n.point]
	}
	return 0
}

// run executes node i: activities apply their service's pre- and
// postconditions to the state; invalid activities count against fv and leave
// the state unchanged.
func (sc *scratch) run(i int32) {
	n := &sc.nodes[i]
	kids := sc.kids[n.first:][:n.nkids]
	switch n.kind {
	case plantree.KindActivity:
		sc.executed++
		if n.svc < 0 {
			return // unknown service: invalid activity
		}
		s, memo := &sc.k.svcs[n.svc], &sc.memo[n.svc]
		if *memo != bindOK {
			if *memo == sc.produced+1 {
				return // failed on this very state
			}
			if s.needEnv {
				sc.setFormals(s.formals)
			}
			if !sc.bind(s, 0) {
				*memo = sc.produced + 1
				return
			}
			*memo = bindOK
		}
		sc.valid++
		sc.cost += s.cost
		sc.time += s.time
		for o := s.outKind; o < s.outKind+s.nOut; o++ {
			sc.count[o]++
		}
		sc.produced += s.nOut

	case plantree.KindSequential:
		for _, c := range kids {
			sc.run(c)
		}

	case plantree.KindConcurrent:
		// Decision 0 runs the children left to right, decision 1 right to
		// left (StrictConcurrency); without strict mode only order 0 exists.
		if sc.decision(n) == 1 {
			for c := len(kids) - 1; c >= 0; c-- {
				sc.run(kids[c])
			}
			return
		}
		for _, c := range kids {
			sc.run(c)
		}

	case plantree.KindSelective:
		if len(kids) > 0 {
			sc.run(kids[sc.decision(n)])
		}

	case plantree.KindIterative:
		iters := sc.decision(n) + 1 // decision d means d+1 iterations
		for ; iters > 0; iters-- {
			for _, c := range kids {
				sc.run(c)
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
// injective assignment of state items to the service's inputs. Items of one
// kind are interchangeable, so it tries each candidate kind with an item left
// and takes one. It leaves count and bound as it found them.
func (sc *scratch) bind(s *kernelService, i int) bool {
	if i == len(s.inputs) {
		return true
	}
	c := &s.inputs[i]
	count := sc.count // a local: sc.count is reloaded after every call
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
			ok = sc.bind(s, i+1)
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

// goalsMet evaluates Equation 2 on the flow's final state: a goal condition
// is met if some item, bound to the formal G, satisfies it.
func (sc *scratch) goalsMet() float64 {
	met := 0
	sc.setFormals(goalFormals)
	for gi := range sc.k.goals {
		g := &sc.k.goals[gi]
		for _, kind := range g.kinds {
			sc.bound[0] = kind
			if sc.count[kind] > 0 && (g.node == nil || g.node.Eval(sc)) {
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
