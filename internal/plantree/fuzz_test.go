// Fuzz bridge between the PDL text form and the plan-tree form. External
// test package: pdl imports plantree for its AST, so an in-package fuzz
// could not call the parser without an import cycle.
package plantree_test

import (
	"testing"
	"unicode/utf8"

	"repro/internal/pdl"
	"repro/internal/plantree"
)

// FuzzPDLPlanTreeRoundTrip parses arbitrary PDL text and, for every accepted
// input, pushes the resulting plan tree through the process-description
// graph and back: FromProcess(ToProcess(tree)) must equal the normalized
// tree, and the parser's dominance on the graph the set fixpoint's. This crosses the package boundary the unit tests exercise only with
// hand-built or Random trees — the fuzzer supplies trees with the parser's
// shapes: named activities, data bindings, guarded alternatives, loop
// conditions. Explore with `go test -fuzz=FuzzPDLPlanTreeRoundTrip
// ./internal/plantree`.
func FuzzPDLPlanTreeRoundTrip(f *testing.F) {
	seeds := []string{
		// The four controller figures (4-7): sequence, concurrency,
		// selection, iteration, in the case study's service vocabulary.
		`BEGIN, POD(D1, D7 -> D8); P3DR(D2, D7, D8 -> D9), END`,
		`BEGIN, {FORK {P3DR1 = P3DR(D2 -> D9)} {P3DR2 = P3DR(D3 -> D10)} JOIN}, END`,
		`BEGIN, {CHOICE {COND D12.Resolution > 10} {PSF(D10, D11 -> D12)} {PA(D9 -> D13)} MERGE}, END`,
		`BEGIN, {ITERATIVE {COND D12.Resolution > 10} {POD(D1 -> D8); PSF(D8 -> D12)}}, END`,
		// Nesting across kinds.
		`BEGIN, A; {FORK {B; {CHOICE {C} {D} MERGE}} {E} JOIN}; F, END`,
		`BEGIN, {ITERATIVE {COND x.v > 0} {{FORK {A} {B} JOIN}}}, END`,
		// The sentinel collision the fuzz body must skip.
		`BEGIN, {ITERATIVE {COND false} {A}}, END`,
		// Broken inputs to steer the mutator.
		`BEGIN, {FORK {A} JOIN}, END`,
		`BEGIN, A = , END`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if !utf8.ValidString(src) || len(src) > 1<<12 {
			return
		}
		tree, err := pdl.Parse(src)
		if err != nil {
			return
		}
		// ToProcess spells an unguarded loop's continue condition as the
		// literal "false" (run the body exactly once) and FromProcess
		// inverts that spelling back to empty — so a tree whose source
		// really wrote `COND false` cannot round-trip. Skip the collision.
		if hasFalseLoop(tree) {
			return
		}
		p, err := plantree.ToProcess("fuzz", tree)
		if err != nil {
			t.Fatalf("parser accepted %q but ToProcess failed: %v", src, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("generated process for %q does not validate: %v", src, err)
		}
		if d := plantree.DominanceDiff(p); d != "" {
			t.Fatalf("graph of %q: %s\n%s", src, d, p)
		}
		back, err := plantree.FromProcess(p)
		if err != nil {
			t.Fatalf("graph of %q does not parse back to a tree: %v\n%s", src, err, p)
		}
		want := tree.Clone().Normalize()
		if !back.Equal(want) {
			t.Fatalf("round trip changed the tree:\n src  %q\n norm %s\n back %s", src, want, back)
		}
	})
}

// hasFalseLoop reports whether the tree has an iterative node whose condition
// is the literal "false".
func hasFalseLoop(n *plantree.Node) bool {
	if n.Kind == plantree.KindIterative && n.Condition == "false" {
		return true
	}
	for _, c := range n.Children {
		if hasFalseLoop(c) {
			return true
		}
	}
	return false
}
