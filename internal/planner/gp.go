package planner

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/plantree"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// Individual is one member of the GP population.
type Individual struct {
	Tree *plantree.Node
	Eval Evaluation
}

// GenStats summarizes one generation for the experiment harness.
type GenStats struct {
	Generation  int
	BestFitness float64
	MeanFitness float64
	BestFV      float64
	BestFG      float64
	BestSize    int
}

// Result is the outcome of one GP run.
type Result struct {
	Best        Individual
	History     []GenStats
	Evaluations int // fitness evaluations actually computed (cache misses)

	// Stopped is set when StopOnPerfect ended the run before the full
	// generation budget; History then ends at the stopping generation.
	Stopped bool
}

// GP is the genetic planner. Create with New, run with RunContext.
type GP struct {
	problem  *workflow.Problem
	params   Params
	rng      *rand.Rand
	eval     *Evaluator
	services []string
	seeds    []*plantree.Node
	// A re-plan's failed plan, the services it may not use and the full
	// catalog: RunContext seeds its neighborhood first (see neighborhood).
	failed   *plantree.Node
	excluded map[string]bool
	catalog  *workflow.Catalog
	ws       *workspace
	tel      *telemetry.Registry
	trace    *telemetry.TaskTrace
	traceCtx telemetry.SpanContext
}

// SetTelemetry wires a metrics registry: Run then counts generations,
// evaluations, and size-limit rejections, and gauges the latest best/mean
// fitness (see OBSERVABILITY.md). Call before Run; nil is a no-op.
func (gp *GP) SetTelemetry(r *telemetry.Registry) { gp.tel = r }

// SetTrace attaches a per-plan span trace: RunContext then records one
// "gp-generation" span per generation with the best/mean fitness and the
// evaluation count so far. Call before Run; nil is a no-op.
func (gp *GP) SetTrace(t *telemetry.TaskTrace) { gp.trace = t }

// SetTraceContext parents the gp-generation spans under the given span
// (typically the planner service's "plan" span), so GP progress nests
// correctly in the task's distributed trace. Call before Run.
func (gp *GP) SetTraceContext(sc telemetry.SpanContext) { gp.traceCtx = sc }

// Seed injects existing plan trees into the initial population (plan reuse:
// re-planning "adapts an existing process description to new conditions").
// Seeds larger than Smax or structurally invalid are ignored. Call before
// Run. The trees are kept, not copied, and must not be modified until Run
// returns (Run never writes to them: the population is built from copies).
func (gp *GP) Seed(trees ...*plantree.Node) {
	for _, t := range trees {
		if t == nil || t.Validate(gp.params.Smax) != nil {
			continue
		}
		gp.seeds = append(gp.seeds, t)
	}
}

// workspace is the memory a GP run works in, kept from one run to the next by
// its owner (a planning-service worker; a standalone GP has its own): the
// population lives in two arenas that swap roles every generation, the
// per-generation lists are reused, and so are the evaluation workers'
// scratches. Nothing a run returns points into it.
type workspace struct {
	// retain is the PopulationSize x Smax up to which a run's memory is kept
	// for the next run; a larger run's goes back to the collector with it.
	retain  int
	arenas  [2]plantree.Arena
	pops    [2][]Individual
	nodes   []plantree.Located  // Mutate's pre-order list
	keys    []string            // the population's cache keys, cut from one string
	keyLen  int                 // that string's length last generation, this one's first guess
	seen    map[string]struct{} // the generation's cache misses
	missed  []int
	results []Evaluation
	scratch []*scratch // by evaluation worker
}

func newWorkspace(retain int) *workspace {
	return &workspace{retain: retain, seen: make(map[string]struct{})}
}

// New builds a GP planner for the problem.
func New(problem *workflow.Problem, params Params) (*GP, error) {
	ev, err := NewEvaluator(problem, params)
	if err != nil {
		return nil, err
	}
	return &GP{
		problem:  problem,
		params:   params,
		rng:      rand.New(rand.NewSource(params.Seed)),
		eval:     ev,
		services: problem.Catalog.Names(),
		ws:       newWorkspace(params.PopulationSize * params.Smax),
	}, nil
}

// RunContext executes the procedure of Section 3.4.6: initialize, then for
// each generation evaluate, select, cross over, and mutate; finally return
// the highest-fitness plan seen in the last evaluated population. The
// context is checked between generations (and inside the evaluation
// fan-out), so a cancelled plan stops within one generation's work.
func (gp *GP) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// However the last run ended (cancelled, failed), this one starts empty.
	ws := gp.ws
	for i := range ws.pops {
		ws.arenas[i].Reset()
		ws.pops[i] = slices.Grow(ws.pops[i][:0], gp.params.PopulationSize)[:gp.params.PopulationSize]
	}
	if gp.params.PopulationSize*gp.params.Smax > ws.retain {
		// Larger than the runs the workspace is kept for: what this one grows
		// goes back to the collector with it.
		defer func() { *ws = *newWorkspace(ws.retain) }()
	}
	pop, arena := ws.pops[0], &ws.arenas[0]
	seeded := gp.neighborhood(arena, pop)
	for i := seeded; i < len(pop); i++ {
		if j := i - seeded; j < len(gp.seeds) {
			pop[i] = Individual{Tree: arena.Clone(gp.seeds[j])}
			continue
		}
		pop[i] = Individual{Tree: arena.Random(gp.rng, gp.services, gp.params.Smax)}
	}

	res := &Result{}
	for gen := 0; gen <= gp.params.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		genStart := time.Now()
		gp.evaluateAll(ctx, pop)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stats := summarize(gen, pop)
		res.History = append(res.History, stats)
		if tel := gp.tel; tel != nil {
			tel.Counter("planner.generations").Inc()
			tel.Gauge("planner.last.best_fitness").Set(stats.BestFitness)
			tel.Gauge("planner.last.mean_fitness").Set(stats.MeanFitness)
			tel.Histogram("planner.generation.best_fitness",
				[]float64{0.2, 0.4, 0.6, 0.8, 0.9, 1}).Observe(stats.BestFitness)
		}
		if gp.trace != nil {
			gp.trace.SpanUnder(gp.traceCtx, "gp-generation", fmt.Sprintf("gen-%d", gen),
				fmt.Sprintf("best=%.4f mean=%.4f size=%d evals=%d in %s",
					stats.BestFitness, stats.MeanFitness, stats.BestSize,
					gp.eval.Evaluations, time.Since(genStart).Round(time.Microsecond)))
		}
		if gp.params.StopOnPerfect && stats.BestFV >= 1 && stats.BestFG >= 1 {
			res.Stopped = gen < gp.params.Generations
			break
		}
		if gen == gp.params.Generations {
			break
		}
		// The next generation is built in the idle arena, elites included.
		next, arena := ws.pops[(gen+1)%2], &ws.arenas[(gen+1)%2]
		arena.Reset()
		elites := gp.takeElites(arena, pop)
		gp.selectPop(arena, pop, next)
		gp.crossoverPop(next)
		gp.mutatePop(arena, next)
		// Elites overwrite the tail slots, untouched by the operators.
		for i, e := range elites {
			next[len(next)-1-i] = e
		}
		pop = next
	}

	best := pop[0]
	for _, ind := range pop[1:] {
		if ind.Eval.Fitness > best.Eval.Fitness {
			best = ind
		}
	}
	best.Tree = best.Tree.Clone()
	res.Best = best
	res.Evaluations = gp.eval.Evaluations
	if tel := gp.tel; tel != nil {
		tel.Counter("planner.runs").Inc()
		tel.Counter("planner.evaluations").Add(int64(res.Evaluations))
	}
	return res, nil
}

// takeElites copies the top-k individuals of the evaluated population.
func (gp *GP) takeElites(arena *plantree.Arena, pop []Individual) []Individual {
	k := gp.params.Elites
	if k <= 0 {
		return nil
	}
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return pop[idx[a]].Eval.Fitness > pop[idx[b]].Eval.Fitness
	})
	elites := make([]Individual, 0, k)
	for _, i := range idx[:k] {
		elites = append(elites, Individual{Tree: arena.Clone(pop[i].Tree), Eval: pop[i].Eval})
	}
	return elites
}

// evaluateAll scores the population, computing each distinct tree once and
// fanning the cache misses out over the available cores, one simulation
// scratch per worker. Results are independent of evaluation order, so
// parallelism does not affect determinism.
func (gp *GP) evaluateAll(ctx context.Context, pop []Individual) {
	// One string holds the generation's keys, so keying the population costs
	// one allocation and a cache hit none (a key cut before the builder regrows
	// keeps the old buffer). missed lists each distinct uncached tree once.
	ws := gp.ws
	var all strings.Builder
	all.Grow(ws.keyLen)
	keys, missed := ws.keys[:0], ws.missed[:0]
	clear(ws.seen)
	for i := range pop {
		start := all.Len()
		pop[i].Tree.Render(&all)
		k := all.String()[start:] // String does not copy
		keys = append(keys, k)
		if _, ok := gp.eval.cache[k]; ok {
			continue
		}
		if _, ok := ws.seen[k]; !ok {
			ws.seen[k] = struct{}{}
			missed = append(missed, i)
		}
	}
	ws.keys, ws.missed, ws.keyLen = keys, missed, all.Len()

	ws.results = slices.Grow(ws.results[:0], len(missed))
	results := ws.results[:len(missed)]
	workers := gp.evalWorkers(len(missed))
	// Worker w simulates on the workspace's scratch w, bound to this plan's
	// kernel: a scratch's buffers do not depend on the kernel.
	for len(ws.scratch) < workers {
		ws.scratch = append(ws.scratch, new(scratch))
	}
	for _, sc := range ws.scratch {
		sc.k = gp.eval.kernel
	}
	if workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			sc := ws.scratch[w]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= len(missed) {
						return
					}
					results[i] = gp.eval.evaluateOnly(pop[missed[i]].Tree, sc)
				}
			}()
		}
		wg.Wait()
	} else {
		sc := ws.scratch[0]
		for i, m := range missed {
			if ctx.Err() != nil {
				break
			}
			results[i] = gp.eval.evaluateOnly(pop[m].Tree, sc)
		}
	}
	if ctx.Err() != nil {
		// Cancelled mid-generation: results are partial; the caller returns
		// ctx.Err() before reading them, so skip the cache fill entirely.
		return
	}
	gp.eval.Evaluations += len(missed)
	for i, m := range missed {
		gp.eval.cacheAdd(keys[m], results[i])
	}
	for i := range pop {
		e, ok := gp.eval.cache[keys[i]]
		if !ok {
			// Only possible right after a cache trim evicted a prior hit.
			e = gp.eval.Evaluate(pop[i].Tree)
		}
		pop[i].Eval = e
	}
}

// evalWorkers sizes the evaluation pool: the explicit Params.EvalWorkers
// if set, otherwise GOMAXPROCS, clamped to the number of cache misses.
func (gp *GP) evalWorkers(n int) int {
	w := gp.params.EvalWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return max(w, 1)
}

func summarize(gen int, pop []Individual) GenStats {
	best := pop[0]
	sum := 0.0
	for _, ind := range pop {
		sum += ind.Eval.Fitness
		if ind.Eval.Fitness > best.Eval.Fitness {
			best = ind
		}
	}
	return GenStats{
		Generation:  gen,
		BestFitness: best.Eval.Fitness,
		MeanFitness: sum / float64(len(pop)),
		BestFV:      best.Eval.FV,
		BestFG:      best.Eval.FG,
		BestSize:    best.Eval.Size,
	}
}

// selectPop forms the next generation (Section 3.4.5) in next and the arena.
func (gp *GP) selectPop(arena *plantree.Arena, pop, next []Individual) {
	switch gp.params.Selection {
	case SelectRoulette:
		total := 0.0
		for _, ind := range pop {
			total += ind.Eval.Fitness
		}
		for i := range next {
			pick := pop[len(pop)-1]
			if total > 0 {
				r := gp.rng.Float64() * total
				acc := 0.0
				for _, ind := range pop {
					acc += ind.Eval.Fitness
					if acc >= r {
						pick = ind
						break
					}
				}
			} else {
				pick = pop[gp.rng.Intn(len(pop))]
			}
			next[i] = Individual{Tree: arena.Clone(pick.Tree), Eval: pick.Eval}
		}
	default: // tournament
		k := gp.params.TournamentSize
		for i := range next {
			winner := pop[gp.rng.Intn(len(pop))]
			for j := 1; j < k; j++ {
				challenger := pop[gp.rng.Intn(len(pop))]
				if challenger.Eval.Fitness > winner.Eval.Fitness {
					winner = challenger
				}
			}
			next[i] = Individual{Tree: arena.Clone(winner.Tree), Eval: winner.Eval}
		}
	}
}

func (gp *GP) crossoverPop(pop []Individual) {
	for i := 0; i+1 < len(pop); i += 2 {
		if gp.rng.Float64() >= gp.params.CrossoverRate {
			continue
		}
		if !Crossover(gp.rng, pop[i].Tree, pop[i+1].Tree, gp.params.Smax) {
			gp.tel.Counter("planner.crossover.size_rejections").Inc()
		}
	}
}

func (gp *GP) mutatePop(arena *plantree.Arena, pop []Individual) {
	ws := gp.ws
	for i := range pop {
		ws.nodes = pop[i].Tree.AppendNodes(ws.nodes[:0])
		mutate(gp.rng, arena, ws.nodes, gp.services, gp.params.MutationRate, gp.params.Smax)
	}
}

// Crossover performs the subtree exchange of Figure 8 on two trees in
// place: a random node is chosen in each parent and the subtrees rooted
// there are swapped. If either offspring would exceed smax the crossover
// fails and both parents are left unchanged. It reports whether the swap
// happened.
//
// If a chosen node is a root, the root's content is swapped in place (the
// caller keeps stable tree pointers).
func Crossover(rng *rand.Rand, a, b *plantree.Node, smax int) bool {
	aSize, bSize := a.Size(), b.Size()
	x, y := a.At(rng.Intn(aSize)).Node, b.At(rng.Intn(bSize)).Node
	xSize, ySize := x.Size(), y.Size()
	if aSize-xSize+ySize > smax || bSize-ySize+xSize > smax {
		return false
	}
	swapContent(x, y)
	return true
}

// swapContent exchanges the payload of two nodes (kind, service, children,
// condition), which swaps the subtrees while keeping the two node addresses
// stable — this uniformly handles root selection.
func swapContent(x, y *plantree.Node) {
	*x, *y = *y, *x
}

// Mutate performs the mutation of Figure 9 in place: every node is selected
// with probability rate; a selected node's subtree is replaced by a freshly
// generated random tree. A replacement that would push the tree past smax
// is skipped. It returns the number of mutations applied.
func Mutate(rng *rand.Rand, tree *plantree.Node, services []string, rate float64, smax int) int {
	return mutate(rng, nil, tree.Nodes(), services, rate, smax)
}

// mutate is Mutate with its memory named: nodes is the tree's pre-order list,
// collected first (mutating while walking would visit fresh nodes), and the
// fresh subtrees are built in the arena (nil is the heap).
func mutate(rng *rand.Rand, arena *plantree.Arena, nodes []plantree.Located, services []string, rate float64, smax int) int {
	if rate <= 0 {
		return 0
	}
	tree, applied := nodes[0].Node, 0
	for _, loc := range nodes {
		if rng.Float64() >= rate {
			continue
		}
		budget := smax - (tree.Size() - loc.Node.Size())
		if budget < 1 {
			continue
		}
		*loc.Node = *arena.Random(rng, services, budget)
		applied++
	}
	return applied
}

// serviceSignature renders a service's pre/postconditions order-invariantly
// so drop-in replacements (same contract, different provider) compare equal.
func serviceSignature(s *workflow.Service) string {
	ins := make([]string, len(s.Inputs))
	for i := range s.Inputs {
		ins[i] = s.Inputs[i].Name + ":" + s.Inputs[i].Condition
	}
	sort.Strings(ins)
	outs := make([]string, len(s.Outputs))
	for i, out := range s.Outputs {
		props := make([]string, 0, len(out.Props))
		for k, v := range out.Props {
			props = append(props, k+"="+v.Str())
		}
		sort.Strings(props)
		outs[i] = out.Name + "{" + strings.Join(props, ",") + "}"
	}
	sort.Strings(outs)
	return strings.Join(ins, ";") + "|" + strings.Join(outs, ";")
}

// neighborhood seeds the head of pop, in the arena, from the failed plan of
// an incremental re-plan (Figure 3): the failed tree with excluded leaves
// rewritten — preferring a drop-in replacement with the same
// pre/postconditions (the paper's "adapt an existing process description to
// new conditions"), falling back to a random usable service — then mutated
// variants of it, half a population in all, keeping those that validate
// against Smax. It returns how many it placed: none without a failed plan or
// when the adapted tree does not validate.
func (gp *GP) neighborhood(arena *plantree.Arena, pop []Individual) int {
	if gp.failed == nil {
		return 0
	}
	// The rng is derived from (not equal to) the run seed so seeding does not
	// replay the same stream the evolution uses.
	rng := rand.New(rand.NewSource(gp.params.Seed ^ 0x5eedf00d))
	usable, smax, ws := gp.services, gp.params.Smax, gp.ws
	// One replacement per excluded service, so every leaf that ran it is
	// rewritten coherently.
	replacement := map[string]string{}
	replaceFor := func(name string) string {
		if r, ok := replacement[name]; ok {
			return r
		}
		r := ""
		if dead := gp.catalog.Get(name); dead != nil {
			want := serviceSignature(dead)
			for _, cand := range usable {
				if svc := gp.catalog.Get(cand); svc != nil && serviceSignature(svc) == want {
					r = cand
					break
				}
			}
		}
		if r == "" {
			r = usable[rng.Intn(len(usable))]
		}
		replacement[name] = r
		return r
	}
	base := arena.Clone(gp.failed)
	ws.nodes = base.AppendNodes(ws.nodes[:0])
	for _, loc := range ws.nodes {
		if leaf := loc.Node; leaf.Kind == plantree.KindActivity && gp.excluded[leaf.Service] {
			leaf.Service, leaf.Name = replaceFor(leaf.Service), ""
		}
	}
	if base.Validate(smax) != nil {
		return 0
	}
	pop[0] = Individual{Tree: base}
	// The variants explore around the adapted plan at a heavier mutation
	// rate than evolution uses, so the seeded population is diverse enough
	// to escape a locally-broken structure.
	const neighborRate = 0.15
	n := 1
	for made := 1; made < len(pop)/2; made++ {
		m := arena.Clone(base)
		ws.nodes = m.AppendNodes(ws.nodes[:0])
		mutate(rng, arena, ws.nodes, usable, neighborRate, smax)
		if m.Validate(smax) == nil {
			pop[n] = Individual{Tree: m}
			n++
		}
	}
	return n
}

// RunManyContext performs n independent GP runs with seeds seed, seed+1,
// ... (the paper's 10-run protocol) through an ephemeral planning service,
// so independent runs execute across the service worker pool, and returns
// the per-run results in run order. Plan caching is disabled: every run is a
// cold plan.
func RunManyContext(ctx context.Context, problem *workflow.Problem, params Params, n int) ([]*Result, error) {
	if n < 1 {
		return nil, fmt.Errorf("planner: RunMany with n=%d", n)
	}
	if err := problem.Validate(); err != nil {
		return nil, err
	}
	svc, err := NewService(ServiceConfig{Catalog: problem.Catalog, Params: params})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	// At most runWindow runs are in the service at once — its queue holds
	// 256 and it forgets all but the last 1 024 finished plans — so run i is
	// submitted only once run i-runWindow has been collected.
	const runWindow = 256
	ids := make([]string, n)
	results := make([]*Result, n)
	collect := func(i int) error {
		st, err := svc.Wait(ctx, ids[i])
		if err != nil {
			return err
		}
		if st.Status != StatusSucceeded || st.Result == nil {
			return fmt.Errorf("planner: run %d %s: %s", i, st.Status, st.Error)
		}
		results[i] = st.Result
		return nil
	}
	for i := range ids {
		if i >= runWindow {
			if err := collect(i - runWindow); err != nil {
				return nil, err
			}
		}
		p := params
		p.Seed = params.Seed + int64(i)
		st, err := svc.Submit(ctx, PlanSpec{
			ID:       fmt.Sprintf("run-%d", i),
			Initial:  problem.Initial.Items(),
			Goal:     problem.Goal.Conditions,
			Params:   &p,
			NoCache:  true,
			TreeOnly: true,
		})
		if err != nil {
			return nil, err
		}
		ids[i] = st.ID
	}
	for i := max(0, n-runWindow); i < n; i++ {
		if err := collect(i); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Summary aggregates the best solutions of multiple runs: the averages
// reported in Table 2.
type Summary struct {
	Runs            int
	AvgFitness      float64
	AvgValidity     float64 // fv
	AvgGoalFitness  float64 // fg
	AvgSize         float64
	MinFitness      float64
	MaxFitness      float64
	PerfectValidity int // runs reaching fv = 1
	PerfectGoal     int // runs reaching fg = 1
}

// Summarize computes the Table 2 aggregate over run results.
func Summarize(results []*Result) Summary {
	s := Summary{Runs: len(results)}
	if len(results) == 0 {
		return s
	}
	fits := make([]float64, len(results))
	for i, r := range results {
		e := r.Best.Eval
		fits[i] = e.Fitness
		s.AvgFitness += e.Fitness
		s.AvgValidity += e.FV
		s.AvgGoalFitness += e.FG
		s.AvgSize += float64(e.Size)
		if e.FV >= 1 {
			s.PerfectValidity++
		}
		if e.FG >= 1 {
			s.PerfectGoal++
		}
	}
	n := float64(len(results))
	s.AvgFitness /= n
	s.AvgValidity /= n
	s.AvgGoalFitness /= n
	s.AvgSize /= n
	sort.Float64s(fits)
	s.MinFitness = fits[0]
	s.MaxFitness = fits[len(fits)-1]
	return s
}
