package planner

import (
	"repro/internal/plantree"
	"repro/internal/workflow"
)

// Evaluation is the fitness breakdown of one plan (Section 3.4.4).
type Evaluation struct {
	Fitness float64 // f  = wv*fv + wg*fg + wr*fr     (Equation 4)
	FV      float64 // fv = valid / executed          (Equation 1)
	FG      float64 // fg = goals met / goals, flow-averaged (Equation 2)
	FR      float64 // fr = 1 - size/Smax             (Equation 3)
	Size    int
	Flows   int // number of execution flows enumerated

	// Cost and Time are the flow-averaged nominal resource cost and run
	// time of the plan's valid activities, the quantities the MaxCost /
	// MaxTime constraint caps compare against.
	Cost float64
	Time float64
}

// defaultCacheLimit bounds the evaluation cache across long sweeps; past it,
// the oldest half of the entries is evicted.
const defaultCacheLimit = 1 << 17

// Evaluator scores plan trees against a planning problem. It compiles the
// problem into a kernel once and caches per-tree results (selection
// duplicates individuals heavily).
type Evaluator struct {
	params Params
	kernel *kernel
	// sc is Evaluate's simulation scratch; a GP run evaluates in its
	// workspace's scratches instead.
	sc    *scratch
	cache map[string]Evaluation
	// order lists the cached keys in insertion order, so trimming can evict
	// the oldest half instead of wiping the whole cache (a full wipe forces
	// the next generation to re-evaluate its entire population).
	order      []string
	cacheLimit int

	// Evaluations counts cache-missing evaluations performed.
	Evaluations int
}

// NewEvaluator builds an evaluator for the problem.
func NewEvaluator(problem *workflow.Problem, params Params) (*Evaluator, error) {
	if err := problem.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	k, err := compileKernel(problem, params)
	if err != nil {
		return nil, err
	}
	return &Evaluator{
		params:     params,
		kernel:     k,
		cache:      make(map[string]Evaluation),
		cacheLimit: defaultCacheLimit,
	}, nil
}

// scratch returns Evaluate's scratch, built on first use.
func (ev *Evaluator) scratch() *scratch {
	if ev.sc == nil {
		ev.sc = &scratch{k: ev.kernel}
	}
	return ev.sc
}

// Evaluate scores the tree, cached by its String.
func (ev *Evaluator) Evaluate(tree *plantree.Node) Evaluation {
	key := tree.String()
	if e, ok := ev.cache[key]; ok {
		return e
	}
	e := ev.evaluateOnly(tree, ev.scratch())
	ev.Evaluations++
	ev.cacheAdd(key, e)
	return e
}

// cacheAdd stores one result and trims the cache if it outgrew the limit.
func (ev *Evaluator) cacheAdd(key string, e Evaluation) {
	if _, dup := ev.cache[key]; !dup {
		ev.order = append(ev.order, key)
	}
	ev.cache[key] = e
	ev.trimCache()
}

// trimCache evicts the oldest half of the cache once it exceeds the limit,
// keeping the entries most likely to repeat (selection duplicates recent
// individuals, not ancient ones).
func (ev *Evaluator) trimCache() {
	if len(ev.cache) <= ev.cacheLimit {
		return
	}
	drop := len(ev.order) / 2
	for _, k := range ev.order[:drop] {
		delete(ev.cache, k)
	}
	n := copy(ev.order, ev.order[drop:])
	ev.order = ev.order[:n]
}

// evaluateOnly is evaluateGenes of the tree's genome, built in sc.
func (ev *Evaluator) evaluateOnly(tree *plantree.Node, sc *scratch) Evaluation {
	sc.genes = plantree.AppendGenes(sc.genes[:0], tree, ev.kernel.names, nil)
	return ev.evaluateGenes(sc.genes, sc)
}

// evaluateGenes computes the fitness without touching the cache or the
// evaluation counter: it enumerates the tree's execution flows, at most
// MaxFlows of them, simulates them on sc in one walk of the tree, and sums
// their results in flow order. It is safe to call from multiple goroutines
// concurrently, each with its own scratch (the kernel and params are
// read-only).
func (ev *Evaluator) evaluateGenes(genes []plantree.Gene, sc *scratch) Evaluation {
	sc.simulate(genes, ev.params.MaxFlows)
	size := len(genes)
	fr := 1 - float64(size)/float64(ev.params.Smax)
	if fr < 0 {
		fr = 0
	}

	totalValid, totalExecuted := 0, 0
	goalSum, costSum, timeSum := 0.0, 0.0, 0.0
	flows := len(sc.owner)
	for _, c := range sc.owner {
		cl := &sc.classes[c]
		totalValid += cl.valid
		totalExecuted += cl.executed
		goalSum += cl.goal
		costSum += cl.cost
		timeSum += cl.time
	}

	fv := 1.0
	if totalExecuted > 0 {
		fv = float64(totalValid) / float64(totalExecuted)
	}
	fg := goalSum / float64(flows)
	cost := costSum / float64(flows)
	nomTime := timeSum / float64(flows)
	// Budget/deadline constraints scale only the resource-preference slice
	// (wr*fr) of the fitness: over-cap plans lose preference proportionally
	// to how far they overshoot, but the validity and goal terms are never
	// discounted — a constraint must steer the search among enactable plans,
	// not make an invalid plan outrank a valid one.
	penalty := 1.0
	if ev.params.MaxCost > 0 && cost > ev.params.MaxCost {
		penalty *= ev.params.MaxCost / cost
	}
	if ev.params.MaxTime > 0 && nomTime > ev.params.MaxTime {
		penalty *= ev.params.MaxTime / nomTime
	}
	f := ev.params.WV*fv + ev.params.WG*fg + ev.params.WR*fr*penalty
	return Evaluation{Fitness: f, FV: fv, FG: fg, FR: fr, Size: size, Flows: flows, Cost: cost, Time: nomTime}
}
