package plantree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workflow"
)

// TestFig4SequentialConversion reproduces Figure 4: a sequence of activities
// maps to a tree with a sequential root.
func TestFig4SequentialConversion(t *testing.T) {
	tr := Seq(Activity("A"), Activity("B"), Activity("C"))
	p, err := ToProcess("fig4", tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.CountKind(workflow.KindEndUser); got != 3 {
		t.Errorf("end-user activities = %d, want 3", got)
	}
	if got := p.CountKind(workflow.KindFork) + p.CountKind(workflow.KindChoice); got != 0 {
		t.Errorf("sequential process has %d fork/choice activities", got)
	}
	back, err := FromProcess(p)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != "(seq A B C)" {
		t.Errorf("round trip = %s", back)
	}
}

// TestFig5ConcurrentConversion reproduces Figure 5: concurrent activities
// map to a Fork/Join pair and back to a concurrent node.
func TestFig5ConcurrentConversion(t *testing.T) {
	tr := Conc(Activity("A"), Activity("B"))
	p, err := ToProcess("fig5", tr)
	if err != nil {
		t.Fatal(err)
	}
	if p.CountKind(workflow.KindFork) != 1 || p.CountKind(workflow.KindJoin) != 1 {
		t.Errorf("want exactly one Fork and one Join:\n%s", p)
	}
	back, err := FromProcess(p)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != "(conc A B)" {
		t.Errorf("round trip = %s", back)
	}
}

// TestFig6SelectiveConversion reproduces Figure 6: selective activities map
// to a Choice/Merge pair.
func TestFig6SelectiveConversion(t *testing.T) {
	a := Activity("A")
	a.Condition = "x.v > 0"
	b := Activity("B")
	b.Condition = "x.v <= 0"
	tr := Sel(a, b)
	p, err := ToProcess("fig6", tr)
	if err != nil {
		t.Fatal(err)
	}
	if p.CountKind(workflow.KindChoice) != 1 || p.CountKind(workflow.KindMerge) != 1 {
		t.Errorf("want exactly one Choice and one Merge:\n%s", p)
	}
	// Conditions must land on the choice's outgoing transitions.
	choiceID := ""
	for _, act := range p.Activities {
		if act.Kind == workflow.KindChoice {
			choiceID = act.ID
		}
	}
	conds := map[string]bool{}
	for _, tr := range p.Out(choiceID) {
		conds[tr.Condition] = true
	}
	if !conds["x.v > 0"] || !conds["x.v <= 0"] {
		t.Errorf("choice conditions = %v", conds)
	}
	back, err := FromProcess(p)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != "(sel A B)" {
		t.Errorf("round trip = %s", back)
	}
	if back.Children[0].Condition != "x.v > 0" {
		t.Errorf("branch condition lost: %q", back.Children[0].Condition)
	}
}

// TestFig7IterativeConversion reproduces Figure 7: a loop maps to a Merge
// header plus a Choice with a back transition, and back to an iterative
// node.
func TestFig7IterativeConversion(t *testing.T) {
	it := Iter(Activity("A"), Activity("B"))
	it.Condition = "r.v > 8"
	p, err := ToProcess("fig7", it)
	if err != nil {
		t.Fatal(err)
	}
	if p.CountKind(workflow.KindChoice) != 1 || p.CountKind(workflow.KindMerge) != 1 {
		t.Errorf("want one Choice and one Merge:\n%s", p)
	}
	back, err := FromProcess(p)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != "(iter A B)" {
		t.Errorf("round trip = %s", back)
	}
	if back.Condition != "r.v > 8" {
		t.Errorf("loop condition lost: %q", back.Condition)
	}
}

// TestFig11RoundTrip converts the Figure 11 plan tree to the Figure 10
// process description and back.
func TestFig11RoundTrip(t *testing.T) {
	tr := fig11()
	p, err := ToProcess("3DSD", tr)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 10: 7 end-user activities and 6 flow-control activities.
	if got := p.CountKind(workflow.KindEndUser); got != 7 {
		t.Errorf("end-user activities = %d, want 7", got)
	}
	flow := 0
	for _, k := range []workflow.Kind{workflow.KindBegin, workflow.KindEnd,
		workflow.KindChoice, workflow.KindFork, workflow.KindJoin, workflow.KindMerge} {
		flow += p.CountKind(k)
	}
	if flow != 6 {
		t.Errorf("flow-control activities = %d, want 6", flow)
	}
	back, err := FromProcess(p)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(tr) {
		t.Errorf("round trip:\n got %s\nwant %s", back, tr)
	}
}

func TestNestedStructuresRoundTrip(t *testing.T) {
	trees := []*Node{
		Seq(Activity("A"), Conc(Seq(Activity("B"), Activity("C")), Activity("D")), Activity("E")),
		Conc(Sel(Activity("A"), Activity("B")), Activity("C")),
		Sel(Iter(Activity("A")), Activity("B")),
		Iter(Conc(Activity("A"), Activity("B"))),
		Iter(Sel(Activity("A"), Activity("B")), Activity("C")),
		Seq(Iter(Activity("A")), Iter(Activity("B"))),
		Conc(Iter(Activity("A")), Seq(Activity("B"), Activity("C")), Sel(Activity("D"), Activity("E"))),
		Sel(Seq(Activity("A"), Activity("B")), Conc(Activity("C"), Activity("D"))),
		Iter(Iter(Activity("A"))),
	}
	for _, tr := range trees {
		p, err := ToProcess("nested", tr)
		if err != nil {
			t.Errorf("%s: ToProcess: %v", tr, err)
			continue
		}
		back, err := FromProcess(p)
		if err != nil {
			t.Errorf("%s: FromProcess: %v\n%s", tr, err, p)
			continue
		}
		want := tr.Clone().Normalize()
		if !back.Equal(want) {
			t.Errorf("round trip:\n got %s\nwant %s", back, want)
		}
	}
}

func TestSingleChildControllersInline(t *testing.T) {
	// conc(A) and sel(A) cannot be expressed as Fork/Choice with one branch;
	// ToProcess inlines them.
	for _, tr := range []*Node{Conc(Activity("A")), Sel(Activity("A"))} {
		p, err := ToProcess("single", tr)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if got := p.CountKind(workflow.KindFork) + p.CountKind(workflow.KindChoice); got != 0 {
			t.Errorf("%s: produced %d fork/choice activities", tr, got)
		}
	}
}

func TestToProcessRejectsInvalidTrees(t *testing.T) {
	for _, tr := range []*Node{nil, Seq(), Activity("")} {
		if _, err := ToProcess("bad", tr); err == nil {
			t.Errorf("ToProcess(%s) succeeded, want error", tr)
		}
	}
}

func TestFromProcessRejectsUnstructured(t *testing.T) {
	// A Join without a Fork.
	p := workflow.NewProcess("unstructured")
	p.Add(&workflow.Activity{ID: "begin", Kind: workflow.KindBegin, Name: "BEGIN"})
	p.Add(&workflow.Activity{ID: "a", Kind: workflow.KindEndUser, Name: "A", Service: "A"})
	p.Add(&workflow.Activity{ID: "b", Kind: workflow.KindEndUser, Name: "B", Service: "B"})
	p.Add(&workflow.Activity{ID: "join", Kind: workflow.KindJoin, Name: "JOIN"})
	p.Add(&workflow.Activity{ID: "fork", Kind: workflow.KindFork, Name: "FORK"})
	p.Add(&workflow.Activity{ID: "end", Kind: workflow.KindEnd, Name: "END"})
	// begin -> fork -> {a, b}; a -> join (premature), b -> join; join -> end.
	// This IS structured; to break it, cross the pairs: use choice/join mix.
	p.Connect("begin", "fork")
	p.Connect("fork", "a")
	p.Connect("fork", "b")
	p.Connect("a", "join")
	p.Connect("b", "join")
	p.Connect("join", "end")
	if _, err := FromProcess(p); err != nil {
		t.Errorf("structured fork/join rejected: %v", err)
	}

	// Choice whose branches end at a Join (mismatched pairing).
	q := workflow.NewProcess("mismatched")
	q.Add(&workflow.Activity{ID: "begin", Kind: workflow.KindBegin, Name: "BEGIN"})
	q.Add(&workflow.Activity{ID: "choice", Kind: workflow.KindChoice, Name: "CHOICE"})
	q.Add(&workflow.Activity{ID: "a", Kind: workflow.KindEndUser, Name: "A", Service: "A"})
	q.Add(&workflow.Activity{ID: "b", Kind: workflow.KindEndUser, Name: "B", Service: "B"})
	q.Add(&workflow.Activity{ID: "join", Kind: workflow.KindJoin, Name: "JOIN"})
	q.Add(&workflow.Activity{ID: "end", Kind: workflow.KindEnd, Name: "END"})
	q.Connect("begin", "choice")
	q.Connect("choice", "a")
	q.Connect("choice", "b")
	q.Connect("a", "join")
	q.Connect("b", "join")
	q.Connect("join", "end")
	if _, err := FromProcess(q); err == nil {
		t.Error("choice paired with join accepted")
	}

	// Invalid process fails fast.
	bad := workflow.NewProcess("invalid")
	if _, err := FromProcess(bad); err == nil {
		t.Error("invalid process accepted")
	}
}

// Property-style: every random tree round-trips through the process
// description form, modulo normalization.
func TestRandomTreesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		tr := Random(rng, services, 25)
		p, err := ToProcess("rand", tr)
		if err != nil {
			t.Fatalf("tree %s: ToProcess: %v", tr, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("tree %s: generated process invalid: %v", tr, err)
		}
		back, err := FromProcess(p)
		if err != nil {
			t.Fatalf("tree %s: FromProcess: %v\n%s", tr, err, p)
		}
		want := tr.Clone().Normalize()
		if !back.Equal(want) {
			t.Fatalf("round trip mismatch:\n tree %s\n norm %s\n back %s\n%s", tr, want, back, p)
		}
	}
}

// dominatorSets is the reference the parser's dominance is checked against:
// for every activity, the set of activities dominating it, by the textbook
// set-intersection fixpoint from Begin.
func dominatorSets(p *workflow.ProcessDescription) map[string]map[string]bool {
	begin := p.Begin().ID
	dom := make(map[string]map[string]bool, len(p.Activities))
	for _, a := range p.Activities {
		dom[a.ID] = map[string]bool{}
		for _, b := range p.Activities {
			dom[a.ID][b.ID] = a.ID != begin || b.ID == begin
		}
	}
	for changed := true; changed; {
		changed = false
		for _, a := range p.Activities {
			if a.ID == begin {
				continue
			}
			for _, b := range p.Activities {
				in := b.ID == a.ID
				if !in {
					in = true
					for _, t := range p.In(a.ID) {
						in = in && dom[t.Source][b.ID]
					}
				}
				if dom[a.ID][b.ID] != in {
					dom[a.ID][b.ID], changed = in, true
				}
			}
		}
	}
	return dom
}

// DominanceDiff describes the first pair of activities of a valid process on
// which the parser's dominance and dominatorSets disagree, or returns "".
// It is exported for the fuzz target, which lives outside the package.
func DominanceDiff(p *workflow.ProcessDescription) string {
	want := dominatorSets(p)
	pr := &parser{p: p}
	pr.dominators()
	for _, a := range p.Activities {
		for _, b := range p.Activities {
			if got := pr.dominates(a.ID, b.ID); got != want[b.ID][a.ID] {
				return fmt.Sprintf("dominates(%s, %s) = %t, the fixpoint says %t", a.ID, b.ID, got, !got)
			}
		}
	}
	return ""
}

// TestDominanceMatchesFixpoint checks the parser's immediate-dominator chains
// against dominatorSets on every pair of activities of the Figure 10 process
// and of the processes of 2 000 random trees of every controller kind.
func TestDominanceMatchesFixpoint(t *testing.T) {
	p, err := ToProcess("fig10", fig11())
	if err != nil {
		t.Fatal(err)
	}
	if d := DominanceDiff(p); d != "" {
		t.Fatalf("Figure 10: %s", d)
	}
	rng := rand.New(rand.NewSource(29))
	kinds := map[Kind]int{}
	for i := 0; i < 2000; i++ {
		tr := Random(rng, services, 2+i%40)
		for _, n := range preorder(tr) {
			kinds[n.Kind]++
		}
		p, err := ToProcess("rand", tr)
		if err != nil {
			t.Fatalf("tree %s: %v", tr, err)
		}
		if d := DominanceDiff(p); d != "" {
			t.Fatalf("tree %s: %s\n%s", tr, d, p)
		}
	}
	for _, k := range controllerKinds {
		if kinds[k] == 0 {
			t.Errorf("no %s controller among the random trees", k)
		}
	}
}

func BenchmarkToProcess(b *testing.B) {
	tr := fig11()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ToProcess("bench", tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFromProcess(b *testing.B) {
	p, err := ToProcess("bench", fig11())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FromProcess(p); err != nil {
			b.Fatal(err)
		}
	}
}
