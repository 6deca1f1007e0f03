package planner

import (
	"context"
	"encoding/binary"
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

// Individual is a plan tree and its evaluation: the best of a GP run.
type Individual struct {
	Tree *plantree.Node
	Eval Evaluation
}

// member is one individual of a running population: its genome, a run of the
// slab its generation lives in, and its evaluation.
type member struct {
	genes []plantree.Gene
	eval  Evaluation
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

// workspace is the memory a GP run works in, kept from one run to the next by
// its owner (a planning-service worker; a standalone GP has its own): the
// population's genes live in two slabs that swap roles every generation, the
// per-generation lists are reused, and so are the evaluation workers'
// scratches. Nothing a run returns points into it.
type workspace struct {
	// retain is the PopulationSize x Smax up to which a run's memory is kept
	// for the next run; a larger run's goes back to the collector with it.
	retain int
	// slab holds the genomes of the generation being built, spare those of
	// the one before; the operators append what they splice to slab.
	slab, spare []plantree.Gene
	fresh       []plantree.Gene  // a mutation's random subtree
	srcs        []*plantree.Node // the nodes a failed plan's genes were read from, by Gene.Src
	pops        [2][]member
	keys        []string            // the population's cache keys, cut from one string
	key         []byte              // one key, before it is written to that string
	keyLen      int                 // that string's length last generation, this one's first guess
	seen        map[string]struct{} // the generation's cache misses
	missed      []int
	results     []Evaluation
	scratch     []*scratch // by evaluation worker
}

// since returns the genes appended to the slab from lo on: one genome.
func (ws *workspace) since(lo int) []plantree.Gene { return ws.slab[lo:len(ws.slab):len(ws.slab)] }

// put appends a copy of genes to the slab and returns it.
func (ws *workspace) put(genes []plantree.Gene) []plantree.Gene {
	lo := len(ws.slab)
	ws.slab = append(ws.slab, genes...)
	return ws.since(lo)
}

// splice appends to the slab the genome g with its subtree at x replaced by
// sub, and returns it.
func (ws *workspace) splice(g []plantree.Gene, x int, sub []plantree.Gene) []plantree.Gene {
	lo := len(ws.slab)
	ws.slab = append(append(append(ws.slab, g[:x]...), sub...), g[x+int(g[x].Size):]...)
	out := ws.since(lo)
	resize(out, 0)
	return out
}

// resize recomputes the sizes of the subtree at g[i] from the child counts
// and returns where it ends.
func resize(g []plantree.Gene, i int) int {
	end := i + 1
	for range g[i].Kids {
		end = resize(g, end)
	}
	g[i].Size = int32(end - i)
	return end
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
		services: ev.kernel.names,
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
		ws.pops[i] = slices.Grow(ws.pops[i][:0], gp.params.PopulationSize)[:gp.params.PopulationSize]
	}
	// The selected copies of a generation fill at most PopulationSize x Smax
	// genes; sized so from the start, a slab regrows only for splices.
	genes := gp.params.PopulationSize * gp.params.Smax
	ws.slab, ws.spare, ws.srcs = slices.Grow(ws.slab[:0], genes), slices.Grow(ws.spare[:0], genes), ws.srcs[:0]
	if genes > ws.retain {
		// Larger than the runs the workspace is kept for: what this one grows
		// goes back to the collector with it.
		defer func() { *ws = *newWorkspace(ws.retain) }()
	}
	pop := ws.pops[0]
	seeded := gp.neighborhood(pop)
	for i := seeded; i < len(pop); i++ {
		lo := len(ws.slab)
		ws.slab = plantree.AppendRandom(ws.slab, gp.rng, len(gp.services), gp.params.Smax)
		pop[i] = member{genes: ws.since(lo)}
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
		// The next generation is built in the idle slab, elites included.
		next := ws.pops[(gen+1)%2]
		ws.slab, ws.spare = ws.spare[:0], ws.slab
		elites := gp.takeElites(pop)
		gp.selectPop(pop, next)
		gp.crossoverPop(next)
		gp.mutatePop(next)
		// Elites overwrite the tail slots, untouched by the operators.
		for i, e := range elites {
			next[len(next)-1-i] = e
		}
		pop = next
	}

	best := pop[0]
	for _, m := range pop[1:] {
		if m.eval.Fitness > best.eval.Fitness {
			best = m
		}
	}
	res.Best = Individual{Tree: plantree.Tree(best.genes, gp.services, ws.srcs), Eval: best.eval}
	res.Evaluations = gp.eval.Evaluations
	if tel := gp.tel; tel != nil {
		tel.Counter("planner.runs").Inc()
		tel.Counter("planner.evaluations").Add(int64(res.Evaluations))
	}
	return res, nil
}

// takeElites copies the top-k individuals of the evaluated population.
func (gp *GP) takeElites(pop []member) []member {
	k := gp.params.Elites
	if k <= 0 {
		return nil
	}
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return pop[idx[a]].eval.Fitness > pop[idx[b]].eval.Fitness
	})
	elites := make([]member, 0, k)
	for _, i := range idx[:k] {
		elites = append(elites, member{genes: gp.ws.put(pop[i].genes), eval: pop[i].eval})
	}
	return elites
}

// evaluateAll scores the population, computing each distinct tree once and
// fanning the cache misses out over the available cores, one simulation
// scratch per worker. Results are independent of evaluation order, so
// parallelism does not affect determinism.
func (gp *GP) evaluateAll(ctx context.Context, pop []member) {
	// One string holds the generation's keys, so keying the population costs
	// one allocation and a cache hit none (a key cut before the builder regrows
	// keeps the old buffer). missed lists each distinct uncached tree once.
	ws := gp.ws
	var all strings.Builder
	all.Grow(ws.keyLen)
	keys, missed, key := ws.keys[:0], ws.missed[:0], ws.key
	clear(ws.seen)
	for i := range pop {
		start := all.Len()
		key = appendKey(key[:0], pop[i].genes)
		all.Write(key)            // per key, not per node: each Write is a write barrier while the GC marks
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
	ws.keys, ws.missed, ws.key, ws.keyLen = keys, missed, key, all.Len()

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
					results[i] = gp.eval.evaluateGenes(pop[missed[i]].genes, sc)
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
			results[i] = gp.eval.evaluateGenes(pop[m].genes, sc)
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
			e = gp.eval.evaluateGenes(pop[i].genes, ws.scratch[0])
			gp.eval.Evaluations++
			gp.eval.cacheAdd(keys[i], e)
		}
		pop[i].eval = e
	}
}

// appendKey appends the genome's cache key: per node, its kind byte, then the
// uvarint of an activity's name or a controller's child count. Genomes are
// pre-order, so the key is injective.
func appendKey(dst []byte, genes []plantree.Gene) []byte {
	for _, g := range genes {
		v := g.Kids
		if g.Kind == plantree.KindActivity {
			v = g.Name
		}
		dst = binary.AppendUvarint(append(dst, byte(g.Kind)), uint64(v))
	}
	return dst
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

func summarize(gen int, pop []member) GenStats {
	best := pop[0].eval
	sum := 0.0
	for _, m := range pop {
		sum += m.eval.Fitness
		if m.eval.Fitness > best.Fitness {
			best = m.eval
		}
	}
	return GenStats{
		Generation:  gen,
		BestFitness: best.Fitness,
		MeanFitness: sum / float64(len(pop)),
		BestFV:      best.FV,
		BestFG:      best.FG,
		BestSize:    best.Size,
	}
}

// selectPop forms the next generation (Section 3.4.5) in next and the slab.
func (gp *GP) selectPop(pop, next []member) {
	switch gp.params.Selection {
	case SelectRoulette:
		total := 0.0
		for _, m := range pop {
			total += m.eval.Fitness
		}
		for i := range next {
			pick := &pop[len(pop)-1]
			if total > 0 {
				r := gp.rng.Float64() * total
				acc := 0.0
				for j := range pop {
					acc += pop[j].eval.Fitness
					if acc >= r {
						pick = &pop[j]
						break
					}
				}
			} else {
				pick = &pop[gp.rng.Intn(len(pop))]
			}
			next[i] = member{genes: gp.ws.put(pick.genes), eval: pick.eval}
		}
	default: // binary tournament, as in the paper
		for i := range next {
			winner := &pop[gp.rng.Intn(len(pop))]
			if challenger := &pop[gp.rng.Intn(len(pop))]; challenger.eval.Fitness > winner.eval.Fitness {
				winner = challenger
			}
			next[i] = member{genes: gp.ws.put(winner.genes), eval: winner.eval}
		}
	}
}

func (gp *GP) crossoverPop(pop []member) {
	for i := 0; i+1 < len(pop); i += 2 {
		if gp.rng.Float64() >= gp.params.CrossoverRate {
			continue
		}
		if !gp.ws.crossover(gp.rng, &pop[i].genes, &pop[i+1].genes, gp.params.Smax) {
			gp.tel.Counter("planner.crossover.size_rejections").Inc()
		}
	}
}

func (gp *GP) mutatePop(pop []member) {
	for i := range pop {
		pop[i].genes, _ = gp.ws.mutate(gp.rng, pop[i].genes, len(gp.services), gp.params.MutationRate, gp.params.Smax)
	}
}

// crossover is the subtree exchange of Figure 8 on two genomes: it draws a
// node in each and swaps the subtrees rooted there, unless an offspring
// would exceed smax. Subtrees of one size swap in place; otherwise both
// offspring are spliced into the slab. It reports whether the swap happened.
func (ws *workspace) crossover(rng *rand.Rand, a, b *[]plantree.Gene, smax int) bool {
	ga, gb := *a, *b
	x, y := rng.Intn(len(ga)), rng.Intn(len(gb))
	xs, ys := int(ga[x].Size), int(gb[y].Size)
	if len(ga)-xs+ys > smax || len(gb)-ys+xs > smax {
		return false
	}
	if xs == ys {
		for i := range xs {
			ga[x+i], gb[y+i] = gb[y+i], ga[x+i]
		}
		return true
	}
	*a, *b = ws.splice(ga, x, gb[y:y+ys]), ws.splice(gb, y, ga[x:x+xs])
	return true
}

// mutate is the mutation of Figure 9 on a genome: every node is selected
// with probability rate, in pre-order, and a selected node's subtree is
// replaced by a random tree of at most the size that keeps the tree within
// smax. A node under one replaced before it still draws, counts and is
// sized as it was, but its replacement is dropped. The replacements are
// spliced into the slab; it returns the genome, g itself when none was
// kept, and the number of mutations.
func (ws *workspace) mutate(rng *rand.Rand, g []plantree.Gene, services int, rate float64, smax int) ([]plantree.Gene, int) {
	if rate <= 0 {
		return g, 0
	}
	// out is g with the replacements so far, g[p] is out[p+shift] for every
	// p from dead on, and g[:dead] ends with the last replaced subtree.
	out, shift, dead, applied := g, 0, 0, 0
	for p := range g {
		if rng.Float64() >= rate {
			continue
		}
		size := int(g[p].Size)
		budget := smax - (len(out) - size)
		if budget < 1 {
			continue
		}
		ws.fresh = plantree.AppendRandom(ws.fresh[:0], rng, services, budget)
		applied++
		if p < dead {
			continue
		}
		out = ws.splice(out, p+shift, ws.fresh)
		shift += len(ws.fresh) - size
		dead = p + size
	}
	return out, applied
}

// Crossover performs the subtree exchange of Figure 8 on two trees in
// place: a random node is chosen in each parent and the subtrees rooted
// there are swapped. If either offspring would exceed smax the crossover
// fails and both parents are left unchanged. It reports whether the swap
// happened. The roots keep their addresses.
func Crossover(rng *rand.Rand, a, b *plantree.Node, smax int) bool {
	var ws workspace
	ga := plantree.AppendGenes(nil, a, nil, &ws.srcs)
	gb := plantree.AppendGenes(nil, b, nil, &ws.srcs)
	if !ws.crossover(rng, &ga, &gb, smax) {
		return false
	}
	*a, *b = *plantree.Tree(ga, nil, ws.srcs), *plantree.Tree(gb, nil, ws.srcs)
	return true
}

// Mutate performs the mutation of Figure 9 in place: every node is selected
// with probability rate; a selected node's subtree is replaced by a freshly
// generated random tree. A replacement that would push the tree past smax
// is skipped. It returns the number of mutations applied. The root keeps its
// address.
func Mutate(rng *rand.Rand, tree *plantree.Node, services []string, rate float64, smax int) int {
	var ws workspace
	g, applied := ws.mutate(rng, plantree.AppendGenes(nil, tree, services, &ws.srcs), len(services), rate, smax)
	*tree = *plantree.Tree(g, services, ws.srcs)
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

// neighborhood seeds the head of pop, in the slab, from the failed plan of
// an incremental re-plan (Figure 3): the failed tree with excluded leaves
// rewritten — preferring a drop-in replacement with the same
// pre/postconditions (the paper's "adapt an existing process description to
// new conditions"), falling back to a random usable service — then mutated
// variants of it, half a population in all, keeping those that validate
// against Smax. It returns how many it placed: none without a failed plan or
// when the adapted tree does not validate.
func (gp *GP) neighborhood(pop []member) int {
	if gp.failed == nil {
		return 0
	}
	// The rng is derived from (not equal to) the run seed so seeding does not
	// replay the same stream the evolution uses.
	rng := rand.New(rand.NewSource(gp.params.Seed ^ 0x5eedf00d))
	usable, smax, ws := gp.services, gp.params.Smax, gp.ws
	// One replacement per excluded service, so every leaf that ran it is
	// rewritten coherently.
	replacement := map[string]int32{}
	replaceFor := func(name string) int32 {
		if r, ok := replacement[name]; ok {
			return r
		}
		r := -1
		if dead := gp.catalog.Get(name); dead != nil {
			want := serviceSignature(dead)
			r = slices.IndexFunc(usable, func(cand string) bool {
				svc := gp.catalog.Get(cand)
				return svc != nil && serviceSignature(svc) == want
			})
		}
		if r < 0 {
			r = rng.Intn(len(usable))
		}
		replacement[name] = int32(r)
		return int32(r)
	}
	lo := len(ws.slab)
	ws.slab = plantree.AppendGenes(ws.slab, gp.failed, usable, &ws.srcs)
	base := ws.since(lo)
	for i, g := range base {
		if g.Kind != plantree.KindActivity {
			continue
		}
		if service := g.Service(usable, ws.srcs); gp.excluded[service] {
			base[i].Name, base[i].Bare = replaceFor(service), true
		}
	}
	if !gp.valid(base) {
		return 0
	}
	pop[0] = member{genes: base}
	// The variants explore around the adapted plan at a heavier mutation
	// rate than evolution uses, so the seeded population is diverse enough
	// to escape a locally-broken structure. A variant no mutation reached
	// shares base's genes: the first population is only read.
	const neighborRate = 0.15
	n := 1
	for made := 1; made < len(pop)/2; made++ {
		if m, _ := ws.mutate(rng, base, len(usable), neighborRate, smax); gp.valid(m) {
			pop[n] = member{genes: m}
			n++
		}
	}
	return n
}

// valid reports whether the tree the genome encodes passes Validate(Smax).
func (gp *GP) valid(genes []plantree.Gene) bool {
	if len(genes) > gp.params.Smax {
		return false
	}
	for _, g := range genes {
		if g.Kind == plantree.KindActivity && (g.Kids > 0 || g.Service(gp.services, gp.ws.srcs) == "") ||
			g.Kind != plantree.KindActivity && g.Kids == 0 {
			return false
		}
	}
	return true
}

// RunManyContext performs n independent GP runs with seeds seed, seed+1,
// ... (the paper's 10-run protocol) through an ephemeral planning service,
// so independent runs execute across the service worker pool, and returns
// the per-run results in run order. The runs are TreeOnly, which the plan
// cache never serves or keeps: every run is a cold plan.
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
	// At most queueCapacity runs are in the service at once, fewer than the
	// retainFinished plans it keeps queryable, so run i is submitted only
	// once run i-queueCapacity has been collected.
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
		if i >= queueCapacity {
			if err := collect(i - queueCapacity); err != nil {
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
			TreeOnly: true,
		})
		if err != nil {
			return nil, err
		}
		ids[i] = st.ID
	}
	for i := max(0, n-queueCapacity); i < n; i++ {
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
