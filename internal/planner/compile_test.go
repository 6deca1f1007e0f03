package planner

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pdl"
	"repro/internal/plantree"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// processDiff describes the first difference between two process
// descriptions, field by field and in order: activity IDs, names, kinds,
// services and bindings, then transition IDs, ends and conditions, parsed
// and as text. It returns "" when there is none.
func processDiff(got, want *workflow.ProcessDescription) string {
	if got.Name != want.Name {
		return fmt.Sprintf("name %q, want %q", got.Name, want.Name)
	}
	if len(got.Activities) != len(want.Activities) || len(got.Transitions) != len(want.Transitions) {
		return fmt.Sprintf("%d activities and %d transitions, want %d and %d",
			len(got.Activities), len(got.Transitions), len(want.Activities), len(want.Transitions))
	}
	for i, a := range got.Activities {
		b := want.Activities[i]
		if a.ID != b.ID || a.Name != b.Name || a.Kind != b.Kind || a.Service != b.Service ||
			!slices.Equal(a.Inputs, b.Inputs) || !slices.Equal(a.Outputs, b.Outputs) || a.Constraint != b.Constraint {
			return fmt.Sprintf("activity %d: %+v, want %+v", i, *a, *b)
		}
	}
	for i, t := range got.Transitions {
		u := want.Transitions[i]
		if t.ID != u.ID || t.Source != u.Source || t.Dest != u.Dest || t.Condition != u.Condition {
			return fmt.Sprintf("transition %d: %+v, want %+v", i, *t, *u)
		}
		if (t.CondNode() == nil) != (u.CondNode() == nil) ||
			t.CondNode() != nil && t.CondNode().String() != u.CondNode().String() {
			return fmt.Sprintf("transition %s: condition parsed as %v, want %v", t.ID, t.CondNode(), u.CondNode())
		}
	}
	return ""
}

// TestPlanProcessMatchesItsPDL checks the two forms a plan travels in: the
// process a plan carries is the one its PDL parses to, and the PDL, which
// the planner writes with Format from the plan's normalized tree, is what
// FormatProcess writes from the process. It runs over the golden Table-1
// plans, the forty Figure-3 re-plans of TestIncrementalReplanDigest and
// 2 000 random normalized trees.
func TestPlanProcessMatchesItsPDL(t *testing.T) {
	check := func(what string, tree *plantree.Node, pd *workflow.ProcessDescription, text string) {
		t.Helper()
		if err := pd.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		parsed, err := pdl.ParseProcess(pd.Name, text)
		if err != nil {
			t.Fatalf("%s: %v\n%s", what, err, text)
		}
		if diff := processDiff(pd, parsed); diff != "" {
			t.Fatalf("%s: the process differs from its PDL's: %s\n%s", what, diff, text)
		}
		if formatted, err := pdl.Format(tree); err != nil || formatted != text {
			t.Fatalf("%s: Format of %s = (%v)\n%s\nwant\n%s", what, tree, err, formatted, text)
		}
		if formatted, err := pdl.FormatProcess(pd); err != nil || formatted != text {
			t.Fatalf("%s: FormatProcess = (%v)\n%s\nwant\n%s", what, err, formatted, text)
		}
	}
	plan := func(s *Service, spec PlanSpec) {
		t.Helper()
		st, err := s.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = s.Wait(context.Background(), st.ID); err != nil || st.Status != StatusSucceeded {
			t.Fatalf("plan %s: %v %s", st.ID, err, st.Error)
		}
		check(fmt.Sprintf("plan %s %v seed %d", st.ID, spec.Excluded, spec.Params.Seed),
			st.Result.Best.Tree.Normalize(), st.Process, st.PDL)
	}

	problem := virolab.Problem()
	params := DefaultParams()
	params.EvalWorkers = 1
	s := newTestService(t, ServiceConfig{Catalog: virolab.Catalog(), Params: params, workers: 1})
	for seed := int64(1); seed <= 4; seed++ {
		p := params
		p.Seed = seed
		plan(s, PlanSpec{Initial: problem.Initial.Items(), Goal: problem.Goal.Conditions, NoCache: true, Params: &p})
	}
	failed, err := plantree.FromProcess(virolab.Process())
	if err != nil {
		t.Fatal(err)
	}
	for _, excluded := range [][]string{{"POR"}, {"P3DR"}, {"POD"}, {"PSF"}} {
		for seed := int64(1); seed <= 10; seed++ {
			p := params.Incremental()
			p.Seed = seed
			plan(s, PlanSpec{Initial: problem.Initial.Items(), Goal: problem.Goal.Conditions,
				Excluded: excluded, Failed: failed, NoCache: true, Params: &p})
		}
	}

	rng := rand.New(rand.NewSource(38))
	services := []string{"POD", "P3DR", "POR", "PSF"}
	for i := 0; i < 2000; i++ {
		tree := plantree.Random(rng, services, 30).Normalize()
		pd, err := plantree.ToProcess("planned", tree)
		if err != nil {
			t.Fatal(err)
		}
		text, err := pdl.Format(tree)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("random tree %d", i), tree, pd, text)
	}
}
