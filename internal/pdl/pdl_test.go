package pdl

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/plantree"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// fig10Source is the PDL text for the Figure 10 process description.
const fig10Source = `
# 3D reconstruction of virus structures (Figure 10).
BEGIN,
  POD;
  P3DR1 = P3DR;
  {ITERATIVE {COND D10.value > 8}
    {POR;
     {FORK {P3DR2 = P3DR} {P3DR3 = P3DR} {P3DR4 = P3DR} JOIN};
     PSF}
  },
END
`

func TestParseFig10(t *testing.T) {
	tree, err := Parse(fig10Source)
	if err != nil {
		t.Fatal(err)
	}
	want := "(seq POD P3DR (iter POR (conc P3DR P3DR P3DR) PSF))"
	if tree.String() != want {
		t.Errorf("tree = %s, want %s", tree, want)
	}
	if tree.Size() != 10 {
		t.Errorf("Size = %d, want 10 (Figure 11)", tree.Size())
	}
	// Named activities keep their display names.
	leaves := tree.Leaves()
	if leaves[1].Name != "P3DR1" {
		t.Errorf("second leaf Name = %q, want P3DR1", leaves[1].Name)
	}
	iter := tree.Children[2]
	if iter.Kind != plantree.KindIterative || iter.Condition != "D10.value > 8" {
		t.Errorf("iterative node = %+v", iter)
	}
}

func TestParseProcessFig10(t *testing.T) {
	p, err := ParseProcess("3DSD", fig10Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Figure 10: 7 end-user + 6 flow-control activities.
	if got := p.CountKind(workflow.KindEndUser); got != 7 {
		t.Errorf("end-user = %d, want 7", got)
	}
	if got := len(p.Activities); got != 13 {
		t.Errorf("total activities = %d, want 13", got)
	}
	if !slices.ContainsFunc(p.Activities, func(a *workflow.Activity) bool { return a.Name == "P3DR3" && a.Service == "P3DR" }) {
		t.Error("no P3DR3 activity running P3DR")
	}
}

func TestParseConstructs(t *testing.T) {
	tests := []struct {
		src, want string
	}{
		{`BEGIN, A, END`, "A"},
		{`BEGIN, A; B; C, END`, "(seq A B C)"},
		{`BEGIN, {FORK {A} {B} JOIN}, END`, "(conc A B)"},
		{`BEGIN, {CHOICE {COND x.v > 0} {A} {COND x.v <= 0} {B} MERGE}, END`, "(sel A B)"},
		{`BEGIN, {CHOICE {A} {B; C} MERGE}, END`, "(sel A (seq B C))"},
		{`BEGIN, {ITERATIVE {COND x.v > 0} {A; B}}, END`, "(iter A B)"},
		{`BEGIN, A; {FORK {B; C} {D} JOIN}; E, END`, "(seq A (conc (seq B C) D) E)"},
		{`BEGIN, {ITERATIVE {COND true} {{FORK {A} {B} JOIN}}}, END`, "(iter (conc A B))"},
		{`BEGIN, {CHOICE {COND a.b = 1} {{ITERATIVE {COND c.d = 2} {X}}} {Y} MERGE}, END`,
			"(sel (seq (iter X)) Y)"},
	}
	for _, tt := range tests {
		tree, err := Parse(tt.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.src, err)
			continue
		}
		if tree.String() != tt.want {
			t.Errorf("Parse(%q) = %s, want %s", tt.src, tree, tt.want)
		}
	}
}

func TestGuardedIterativeKeepsBothConditions(t *testing.T) {
	src := `BEGIN, {CHOICE {COND a.b = 1} {{ITERATIVE {COND c.d = 2} {X}}} {Y} MERGE}, END`
	tree, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	alt := tree.Children[0]
	if alt.Condition != "a.b = 1" {
		t.Errorf("guard = %q, want a.b = 1", alt.Condition)
	}
	inner := alt.Children[0]
	if inner.Kind != plantree.KindIterative || inner.Condition != "c.d = 2" {
		t.Errorf("inner = kind %v cond %q", inner.Kind, inner.Condition)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`BEGIN`,
		`BEGIN, END`,
		`BEGIN, A`,
		`BEGIN, A, ENDD`,
		`BEGIN, A, END extra`,
		`BEGIN, A B, END`,
		`BEGIN, {FORK {A} JOIN}, END`,           // one branch
		`BEGIN, {CHOICE {A} MERGE}, END`,        // one alternative
		`BEGIN, {FORK {A} {B} MERGE}, END`,      // wrong closer
		`BEGIN, {CHOICE {A} {B} JOIN}, END`,     // wrong closer
		`BEGIN, {ITERATIVE {A}}, END`,           // missing COND
		`BEGIN, {ITERATIVE {COND ((} {A}}, END`, // bad condition
		`BEGIN, {WHILE {A} {B}}, END`,           // unknown construct
		`BEGIN, A = , END`,                      // missing service
		`BEGIN, {ITERATIVE {COND x.y = {}} {A}}, END`,       // brace in condition
		`BEGIN, {CHOICE {COND x.v = 1} MERGE {A} {B}}, END`, // guard without branch
		`BEGIN, A; ; B, END`,
		`BEGIN, @, END`,
	}
	for _, src := range bad {
		if tree, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) = %s, want error", src, tree)
		}
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Parse("BEGIN,\n  A B,\nEND")
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 2 {
		t.Errorf("Line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "pdl: 2:") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

func TestComments(t *testing.T) {
	src := `
// Leading comment.
BEGIN,
  A;   # trailing comment
  B,
END`
	tree, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if tree.String() != "(seq A B)" {
		t.Errorf("tree = %s", tree)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	srcs := []string{
		fig10Source,
		`BEGIN, A, END`,
		`BEGIN, A; B; C, END`,
		`BEGIN, {FORK {A} {B; C} JOIN}, END`,
		`BEGIN, {CHOICE {COND x.v > 0} {A} {B} MERGE}, END`,
		`BEGIN, {ITERATIVE {COND x.v > 0} {A}}, END`,
		`BEGIN, {CHOICE {COND a.b = 1} {{ITERATIVE {COND c.d = 2} {X}}} {Y} MERGE}, END`,
	}
	for _, src := range srcs {
		tree, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		text, err := Format(tree)
		if err != nil {
			t.Fatalf("Format(%s): %v", tree, err)
		}
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("re-Parse of\n%s\nerror: %v", text, err)
		}
		if !back.Equal(tree) {
			t.Errorf("round trip:\nsource %q\nprinted\n%s\n got %s\nwant %s", src, text, back, tree)
		}
	}
}

func TestFormatRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	services := []string{"POD", "P3DR", "POR", "PSF"}
	for i := 0; i < 200; i++ {
		tree := plantree.Random(rng, services, 20).Normalize()
		text, err := Format(tree)
		if err != nil {
			t.Fatalf("Format(%s): %v", tree, err)
		}
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("re-Parse of %s:\n%s\nerror: %v", tree, text, err)
		}
		if !back.Equal(tree) {
			t.Fatalf("round trip:\n want %s\n got %s\ntext:\n%s", tree, back, text)
		}
	}
}

func TestFormatProcess(t *testing.T) {
	p, err := ParseProcess("3DSD", fig10Source)
	if err != nil {
		t.Fatal(err)
	}
	text, err := FormatProcess(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseProcess("3DSD", text)
	if err != nil {
		t.Fatalf("re-parse:\n%s\nerror: %v", text, err)
	}
	if got, want := len(back.Activities), len(p.Activities); got != want {
		t.Errorf("activities after round trip = %d, want %d", got, want)
	}
	// Invalid processes are rejected.
	if _, err := FormatProcess(workflow.NewProcess("empty")); err == nil {
		t.Error("FormatProcess of empty process should fail")
	}
}

func TestFormatRejectsInvalidTree(t *testing.T) {
	if _, err := Format(plantree.Seq()); err == nil {
		t.Error("Format of empty controller should fail")
	}
}

func BenchmarkParseFig10(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(fig10Source); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseProcessAllocationBudget pins what compiling the Figure-10 PDL
// with its Figure-13 bindings to a validated process costs: each condition
// parsed once, IDs from a table, and the tree, the activities, the
// transitions and the binding names each cut from one or two arrays. It
// read 176 allocations when each condition was parsed twice and every
// transition, ID and binding list was an allocation of its own; 39 now.
func TestParseProcessAllocationBudget(t *testing.T) {
	const budget = 80
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseProcess("3DSD", virolab.PDLSource); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ParseProcess(Figure 10 with bindings): %v allocations", allocs)
	if allocs > budget {
		t.Errorf("ParseProcess(Figure 10 with bindings) allocates %v times, budget %d", allocs, budget)
	}
}

func BenchmarkParseProcessFig10(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseProcess("3DSD", virolab.PDLSource); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFormatFig10(b *testing.B) {
	tree, err := Parse(fig10Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Format(tree); err != nil {
			b.Fatal(err)
		}
	}
}

// fig10Bound is the Figure 10 workflow with the full Figure 13 data-set
// bindings, so conditions that reference data by name (Cons1's D12) work
// when the parsed workflow is enacted.
const fig10Bound = `
BEGIN,
  POD(D1, D7 -> D8);
  P3DR1 = P3DR(D2, D7, D8 -> D9);
  {ITERATIVE {COND D12.value > 8}
    {POR(D5, D7, D8, D9 -> D8);
     {FORK
       {P3DR2 = P3DR(D3, D7, D8 -> D10)}
       {P3DR3 = P3DR(D4, D7, D8 -> D11)}
       {P3DR4 = P3DR(D2, D7, D8 -> D9)}
     JOIN};
     PSF(D10, D11 -> D12)}
  },
END
`

func TestDataBindings(t *testing.T) {
	tree, err := Parse(fig10Bound)
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	pod := leaves[0]
	if strings.Join(pod.Inputs, ",") != "D1,D7" || strings.Join(pod.Outputs, ",") != "D8" {
		t.Errorf("POD bindings = %v -> %v", pod.Inputs, pod.Outputs)
	}
	psf := leaves[len(leaves)-1]
	if strings.Join(psf.Inputs, ",") != "D10,D11" || strings.Join(psf.Outputs, ",") != "D12" {
		t.Errorf("PSF bindings = %v -> %v", psf.Inputs, psf.Outputs)
	}
	// The graph form carries them too.
	p, err := ParseProcess("bound", fig10Bound)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(p.Activities, func(a *workflow.Activity) bool { return a.Name == "PSF" && strings.Join(a.Outputs, ",") == "D12" }) {
		t.Error("graph form lost PSF -> D12")
	}
	// Round trip preserves bindings.
	text, err := Format(tree)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse:\n%s\n%v", text, err)
	}
	if !back.Equal(tree) {
		t.Errorf("binding round trip:\n%s\nvs\n%s\ntext:\n%s", tree, back, text)
	}
}

func TestBindingSyntaxErrors(t *testing.T) {
	bad := []string{
		`BEGIN, A(D1, END`,       // unterminated
		`BEGIN, A(D1 -> , END`,   // unterminated after arrow
		`BEGIN, A(D1 - D2), END`, // bare dash
		`BEGIN, A(D1 D2), END`,   // missing comma
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
	// Output-only and empty bindings are fine.
	for _, src := range []string{
		`BEGIN, A(-> D1), END`,
		`BEGIN, A(), END`,
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}
