package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/grid"
	"repro/internal/planner"
	"repro/internal/plantree"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// crossProblem is planner/eval_test.go's second catalog (conditions over two
// formals and over a named case item, a two-output and a zero-input
// service), rebuilt here because a test file cannot be imported.
func crossProblem() *workflow.Problem {
	class := func(c string) map[string]expr.Value {
		return map[string]expr.Value{workflow.PropClassification: expr.String(c)}
	}
	return &workflow.Problem{
		Name: "cross",
		Initial: workflow.NewState(
			workflow.NewDataItem("D1", "Join-Parameter").With(workflow.PropSize, expr.Number(4)),
			workflow.NewDataItem("D2", "Raw"),
		),
		Goal: workflow.NewGoal(`G.Classification = "Package"`, `G.Classification = "Whole" and D1.Size > 3`),
		Catalog: workflow.NewCatalog(
			&workflow.Service{Name: "GEN", Cost: 0.5, BaseTime: 7,
				Outputs: []workflow.OutputSpec{{Name: "O", Props: class("Raw")}}},
			&workflow.Service{Name: "SPLIT", Cost: 1.25, BaseTime: 11,
				Inputs: []workflow.ParamSpec{{Name: "A", Condition: `A.Classification = "Raw"`}},
				Outputs: []workflow.OutputSpec{{Name: "L", Props: class("Half")},
					{Name: "R", Props: map[string]expr.Value{
						workflow.PropClassification: expr.String("Half"), workflow.PropCreator: expr.String("Elsewhere")}}}},
			&workflow.Service{Name: "JOIN", Cost: 3.1, BaseTime: 13,
				Inputs: []workflow.ParamSpec{
					{Name: "A", Condition: `A.Classification = "Join-Parameter"`},
					{Name: "B", Condition: `B.Classification = "Half"`},
					{Name: "C", Condition: `C.Classification = "Half" and B.Creator != C.Creator`}},
				Outputs: []workflow.OutputSpec{{Name: "D", Props: class("Whole")}}},
			&workflow.Service{Name: "PACK", Cost: 0.7, BaseTime: 3,
				Inputs:  []workflow.ParamSpec{{Name: "A", Condition: `A.Classification = "Whole" and D1.Size > 0`}},
				Outputs: []workflow.OutputSpec{{Name: "P", Props: class("Package")}}},
		),
	}
}

// coordinatorFlow is the one execution flow of tree the coordinator takes: an
// unguarded Choice takes its first alternative, and a condition-less loop
// runs its body once (which MaxLoopUnroll 1 says on the kernel's side).
func coordinatorFlow(n *plantree.Node) *plantree.Node {
	if n.Kind == plantree.KindSelective && len(n.Children) > 0 {
		return coordinatorFlow(n.Children[0])
	}
	c := *n
	c.Children = make([]*plantree.Node, len(n.Children))
	for i, child := range n.Children {
		c.Children[i] = coordinatorFlow(child)
	}
	return &c
}

// The two known disagreements are both about what a Fork means, and every
// tree of the seeded forest that shows one is pinned here by name, with how
// often the forest holds it — because the kernel belongs to the planner PRs
// (ROADMAP 5b) and the batch rule to none yet. Any other disagreement, or one
// of these going the other way, fails the test.
//
// fork-of-three (kernel fv = 1, coordinator "preconditions unmet"): the
// kernel's strict concurrency runs a Fork's branches in two orders, first to
// last and last to first, and takes a plan that survives both for one whose
// branches are independent. A branch that needs a sibling's output and has
// such a sibling on either side — (conc POD P3DR POD) — survives both, while
// the coordinator dispatches all three against the state before the Fork and
// P3DR finds no orientation file. The coordinator is right (Section 3.1: the
// branches run concurrently).
//
// lock-step (kernel fv < 1, coordinator enacts to goal): the coordinator
// advances the branches of a Fork one activity each per batch and applies a
// batch's outputs before the next, so the second activity of one branch sees
// the first output of its sibling — (conc P3DR (seq POD P3DR PSF)) enacts, PSF
// pairing its branch's model with the sibling's. The kernel, which also runs
// that branch first, calls PSF invalid there. The kernel is right: nothing
// orders the two branches.
type knownCase struct {
	kind  string
	count int
}

var knownForkCases = map[string]map[string]knownCase{
	"virolab": {
		`(conc (sel POD) POD (seq P3DR) (conc POD))`:                       {"fork-of-three", 1},
		`(iter (conc (seq POD P3DR) POD P3DR POD) (iter (sel PSF)))`:       {"fork-of-three", 7},
		`(iter (conc (seq POD P3DR) POD P3DR POD) (iter (sel (sel POR))))`: {"fork-of-three", 1},
		`(iter (seq POD (conc P3DR (iter (sel (iter (seq POD P3DR POR PSF)) (iter POD PSF P3DR)) (seq (conc (seq (seq (sel P3DR) POR))) (conc PSF P3DR))))) (iter PSF))`: {"lock-step", 1},
	},
	"cross": {},
}

// TestKernelAgreesWithCoordinator is the differential test between the two
// evaluators of C1-C8: the planner's compiled kernel, which simulates a
// plan, and the coordinator, which performs it. Over seeded random trees and
// the GP's own best-of-run plans, on both catalogs TestKernelMatchesOracle
// uses: the kernel scores the coordinator's flow fv = 1 and fg = 1 exactly
// when the coordinator enacts plantree.ToProcess(tree) to its goal, on a
// grid that fails nothing. A disagreement is reported with its tree, unless
// it is one of the pinned ones (knownForkCases), which must each show up
// exactly as often as pinned.
func TestKernelAgreesWithCoordinator(t *testing.T) {
	const trees = 400
	for _, c := range []struct {
		name     string
		problem  *workflow.Problem
		services []string
	}{
		{"virolab", virolab.Problem(), virolab.Problem().Catalog.Names()},
		{"cross", crossProblem(), []string{"GEN", "JOIN", "PACK", "SPLIT", "NOSUCH"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := grid.DefaultSyntheticConfig()
			cfg.FailureRate = 0
			env, err := NewEnvironment(Options{Catalog: c.problem.Catalog, GridConfig: &cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			// One flow per order of each Fork's branches, nothing else.
			flow := planner.DefaultParams()
			flow.MaxLoopUnroll, flow.MaxFlows = 1, 1<<16
			kernel, err := planner.NewEvaluator(c.problem, flow)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(20261004))
			forest := make([]*plantree.Node, trees)
			for i := range forest {
				forest[i] = plantree.Random(rng, c.services, planner.DefaultParams().Smax)
			}
			gp := planner.DefaultParams()
			gp.PopulationSize, gp.Generations = 60, 12
			for seed := int64(1); seed <= 8; seed++ {
				gp.Seed = seed
				run, err := planner.New(c.problem, gp)
				if err != nil {
					t.Fatal(err)
				}
				res, err := run.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				forest = append(forest, res.Best.Tree)
				// Random trees seldom enact; the neighbours of a good plan
				// often do, and fail in more interesting ways when not.
				for m := 0; m < 20; m++ {
					mutant := res.Best.Tree.Clone()
					planner.Mutate(rng, mutant, c.services, 0.15, gp.Smax)
					forest = append(forest, mutant)
				}
			}

			agreed, seen := map[bool]int{}, map[string]int{}
			for i, tree := range forest {
				pd, err := plantree.ToProcess(fmt.Sprintf("diff-%d", i), tree)
				if err != nil {
					t.Fatalf("%s: %v", tree, err)
				}
				id := fmt.Sprintf("%s-%d", c.name, i)
				cd := workflow.NewCase(id, c.name)
				cd.AddData(c.problem.Initial.Items()...)
				cd.Goal = c.problem.Goal
				report, err := env.SubmitContext(context.Background(), &workflow.Task{ID: id, Process: pd, Case: cd}, nil)
				enacted := err == nil && report.Completed
				if report != nil && report.Replans != 0 {
					t.Fatalf("%s: re-planned %d times (%v): the tree enacted is no longer the tree scored", tree, report.Replans, err)
				}
				ev := kernel.Evaluate(coordinatorFlow(tree))
				unmet := err != nil && strings.Contains(err.Error(), "preconditions unmet")
				agreed[enacted]++
				if (ev.FV == 1 && ev.FG == 1) == enacted && !(ev.FV == 1 && unmet) {
					continue
				}
				switch k := knownForkCases[c.name][tree.String()]; {
				case k.kind == "fork-of-three" && ev.FV == 1 && unmet, k.kind == "lock-step" && ev.FV < 1 && enacted:
					seen[tree.String()]++
				default:
					t.Errorf("%s\n  kernel fv %.3f fg %.3f over %d flows; coordinator completed=%v err=%v",
						tree, ev.FV, ev.FG, ev.Flows, enacted, err)
				}
			}
			t.Logf("%d trees: %d enacted to goal, %d not; %d of them known disagreements", len(forest), agreed[true], agreed[false], len(seen))
			for tree, k := range knownForkCases[c.name] {
				if seen[tree] != k.count {
					t.Errorf("%s: pinned as disagreeing (%s) %d times in this forest, did %d times", tree, k.kind, k.count, seen[tree])
				}
			}
		})
	}
}
