// Package planner implements the paper's planning service: the GP-based
// planner of Section 3.4 (tree-encoded plans, subtree crossover and
// mutation, tournament selection, and the three-part fitness of Equations
// 1-4), plus the deterministic baselines it is compared with (forward
// state-space search and random search).
package planner

import "fmt"

// SelectionScheme picks how the next generation is formed.
type SelectionScheme int

// Selection schemes. The paper uses binary tournament; roulette is kept for
// the ablation table (TestAblations).
const (
	SelectTournament SelectionScheme = iota
	SelectRoulette
)

func (s SelectionScheme) String() string {
	switch s {
	case SelectTournament:
		return "tournament"
	case SelectRoulette:
		return "roulette"
	}
	return fmt.Sprintf("SelectionScheme(%d)", int(s))
}

// Params are the GP settings. DefaultParams returns the paper's Table 1.
type Params struct {
	PopulationSize int
	Generations    int
	CrossoverRate  float64
	MutationRate   float64 // per-node probability
	Smax           int     // plan-tree size limit
	WV, WG, WR     float64 // fitness weights (wv + wg + wr = 1)

	// MaxCost and MaxTime fold enactment constraints into the plan fitness
	// (budget- and deadline-constrained re-planning): a plan whose nominal
	// resource cost (sum of service Cost over valid activities) or nominal
	// run time (sum of BaseTime) exceeds the cap has its fitness scaled by
	// cap/actual, so cheaper/shorter plans dominate the population. 0 means
	// unconstrained.
	MaxCost float64
	MaxTime float64

	Selection SelectionScheme

	// Elites preserves the top-k individuals unchanged into the next
	// generation (0 reproduces the paper exactly: selection only, so even
	// the best plan can be destroyed by crossover or mutation).
	// Incremental() sets 1, so a re-plan keeps its adapted failed plan.
	Elites int

	// MaxLoopUnroll bounds how many iterations of an iterative node the
	// fitness simulation enumerates (the paper enumerates "each possible
	// flow"; loops make that unbounded, so we consider 1..MaxLoopUnroll
	// iterations).
	MaxLoopUnroll int
	// MaxFlows caps the number of enumerated execution flows per plan; the
	// enumeration is truncated in lexicographic decision order beyond it.
	MaxFlows int

	Seed int64

	// EvalWorkers caps the fitness-evaluation worker pool used per
	// generation (population members are independent, so they score in
	// parallel). 0 sizes the pool from GOMAXPROCS — or from the planning
	// service's fair share of it when the run goes through planner.Service.
	// Execution-only: the planned result is bit-identical at any worker
	// count, so EvalWorkers is excluded from the plan-cache key.
	EvalWorkers int

	// StopOnPerfect ends a run as soon as the generation's best individual
	// reaches perfect validity and goal fitness (fv = fg = 1) — there is
	// nothing left for later generations to improve except resource cost.
	// Incremental re-planning budgets rely on it.
	StopOnPerfect bool
}

// DefaultParams returns the settings of Table 1: population 200, 20
// generations, crossover 0.7, mutation 0.001, Smax 40, wv 0.2, wg 0.5 (and
// therefore wr 0.3).
func DefaultParams() Params {
	return Params{
		PopulationSize: 200,
		Generations:    20,
		CrossoverRate:  0.7,
		MutationRate:   0.001,
		Smax:           40,
		WV:             0.2,
		WG:             0.5,
		WR:             0.3,
		Selection:      SelectTournament,
		MaxLoopUnroll:  2,
		MaxFlows:       32,
		Seed:           1,
	}
}

// Incremental derives the reduced re-planning budget from p: a quarter of
// the population (floor 16) for a quarter of the generations (floor 3),
// at least one elite slot so the adapted failed plan survives selection,
// and early stop on the first perfect plan. Re-plans seeded from the
// failed plan's neighborhood start close to a solution, so they converge
// in a fraction of the cold-plan budget (the <10%-of-cold target).
func (p Params) Incremental() Params {
	p.PopulationSize = max(16, p.PopulationSize/4)
	p.Generations = max(3, p.Generations/4)
	if p.Elites < 1 || p.Elites >= p.PopulationSize {
		p.Elites = 1
	}
	p.StopOnPerfect = true
	return p
}

// Validate checks the parameters are usable.
func (p Params) Validate() error {
	if p.PopulationSize < 2 {
		return fmt.Errorf("planner: population size %d < 2", p.PopulationSize)
	}
	if p.Generations < 1 {
		return fmt.Errorf("planner: generations %d < 1", p.Generations)
	}
	if p.CrossoverRate < 0 || p.CrossoverRate > 1 {
		return fmt.Errorf("planner: crossover rate %g out of [0,1]", p.CrossoverRate)
	}
	if p.MutationRate < 0 || p.MutationRate > 1 {
		return fmt.Errorf("planner: mutation rate %g out of [0,1]", p.MutationRate)
	}
	if p.Smax < 1 {
		return fmt.Errorf("planner: Smax %d < 1", p.Smax)
	}
	if w := p.WV + p.WG + p.WR; w < 0.999 || w > 1.001 {
		return fmt.Errorf("planner: fitness weights sum to %g, want 1", w)
	}
	if p.Elites < 0 || p.Elites >= p.PopulationSize {
		return fmt.Errorf("planner: elites %d out of [0, population)", p.Elites)
	}
	if p.MaxLoopUnroll < 1 {
		return fmt.Errorf("planner: loop unroll %d < 1", p.MaxLoopUnroll)
	}
	if p.MaxFlows < 1 {
		return fmt.Errorf("planner: max flows %d < 1", p.MaxFlows)
	}
	if p.EvalWorkers < 0 {
		return fmt.Errorf("planner: eval workers %d < 0", p.EvalWorkers)
	}
	if p.MaxCost < 0 || p.MaxTime < 0 {
		return fmt.Errorf("planner: negative constraint caps (maxCost %g, maxTime %g)", p.MaxCost, p.MaxTime)
	}
	return nil
}
