package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/planner"
	"repro/internal/workflow"
)

// TestOwnCatalogPlansAndEnacts runs a catalog of one's own through the whole
// environment: NewEnvironment, Plan (the GP planning service synthesizes the
// process description from the goal) and SubmitContext (the plan enacts on
// the simulated grid). Nothing in the library is virolab-specific:
//   - quickstart: two services, collect then analyze;
//   - ensemble: a climate-style run whose AGG needs three different member
//     results, the distinct-binding structure that makes PSF need two 3D
//     models, so the plan must simulate three members before it aggregates.
func TestOwnCatalogPlansAndEnacts(t *testing.T) {
	// svc takes inputs A, B, ... of the given classifications and makes one
	// output, the next formal, of class out.
	svc := func(name string, base float64, out string, in ...string) *workflow.Service {
		s := &workflow.Service{Name: name, BaseTime: base, Outputs: []workflow.OutputSpec{{
			Name:  string(rune('A' + len(in))),
			Props: map[string]expr.Value{workflow.PropClassification: expr.String(out)},
		}}}
		for i, class := range in {
			formal := string(rune('A' + i))
			s.Inputs = append(s.Inputs, workflow.ParamSpec{Name: formal, Condition: formal + `.Classification = "` + class + `"`})
		}
		return s
	}
	for _, tc := range []struct {
		name      string
		catalog   *workflow.Catalog
		pop, gens int
		seed      int64
		initial   [][2]string // item name, classification
		goal      string      // the goal item's classification
		feeders   int         // SIMD leaves before AGG in the plan
	}{
		{
			name: "quickstart",
			catalog: workflow.NewCatalog(
				svc("collect", 30, "dataset", "raw"),
				svc("analyze", 60, "report", "dataset")),
			pop: 60, gens: 10, seed: planner.DefaultParams().Seed,
			initial: [][2]string{{"input", "raw"}},
			goal:    "report",
		},
		{
			name: "ensemble",
			catalog: workflow.NewCatalog(
				svc("GEN", 30, "member-config", "base-config"),
				svc("SIMD", 1200, "member-result", "member-config", "forcing-data"),
				svc("AGG", 120, "ensemble-mean", "member-result", "member-result", "member-result"),
				svc("VERIFY", 60, "skill-report", "ensemble-mean", "observations")),
			pop: 200, gens: 25, seed: 4,
			initial: [][2]string{{"cfg", "base-config"}, {"forcing", "forcing-data"}, {"obs", "observations"}},
			goal:    "skill-report",
			feeders: 3,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := planner.DefaultParams()
			params.PopulationSize, params.Generations, params.Seed = tc.pop, tc.gens, tc.seed
			env, err := NewEnvironment(Options{Catalog: tc.catalog, Planner: params})
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			var initial []*workflow.DataItem
			for _, it := range tc.initial {
				initial = append(initial, workflow.NewDataItem(it[0], it[1]))
			}
			goal := workflow.NewGoal(`G.Classification = "` + tc.goal + `"`)
			pd, reply, err := env.Plan(tc.name, &workflow.Problem{
				Name: tc.name, Initial: workflow.NewState(initial...), Goal: goal, Catalog: tc.catalog,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("plan %s (fitness %.3f)", reply.Tree, reply.Eval.Fitness)
			if reply.Eval.FV != 1 || reply.Eval.FG != 1 {
				t.Fatalf("plan %s: fv %v, fg %v; want 1 and 1", reply.Tree, reply.Eval.FV, reply.Eval.FG)
			}
			// The rendering lists leaves in pre-order; no service name
			// contains another.
			if agg := strings.Index(reply.Tree, "AGG"); tc.feeders > 0 && strings.Count(reply.Tree[:max(agg, 0)], "SIMD") != tc.feeders {
				t.Errorf("plan %s: want %d SIMD leaves before AGG", reply.Tree, tc.feeders)
			}

			c := workflow.NewCase(tc.name+"-1", tc.name+" case").AddData(initial...)
			c.Goal = goal
			report, err := env.SubmitContext(context.Background(), &workflow.Task{
				ID: tc.name, Name: tc.name, Process: pd, Case: c,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !report.Completed {
				t.Fatalf("enactment of %s did not complete: %+v", reply.Tree, report)
			}
			found := false
			for _, item := range report.FinalState.Items() {
				found = found || item.Classification() == tc.goal
			}
			if !found {
				t.Errorf("final state %v has no %q item", report.FinalState.Names(), tc.goal)
			}
		})
	}
}
