package workflow

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/expr"
)

// testCatalog mirrors the case-study services with the paper's conditions
// C1..C8 (Section 4, Figure 13).
func testCatalog() *Catalog {
	pod := &Service{
		Name: "POD",
		Inputs: []ParamSpec{
			{Name: "A", Condition: `A.Classification = "POD-Parameter"`},
			{Name: "B", Condition: `B.Classification = "2D Image"`},
		},
		Outputs: []OutputSpec{
			{Name: "C", Props: map[string]expr.Value{PropClassification: expr.String("Orientation File")}},
		},
		BaseTime: 60,
	}
	p3dr := &Service{
		Name: "P3DR",
		Inputs: []ParamSpec{
			{Name: "A", Condition: `A.Classification = "P3DR-Parameter"`},
			{Name: "B", Condition: `B.Classification = "2D Image"`},
			{Name: "C", Condition: `C.Classification = "Orientation File"`},
		},
		Outputs: []OutputSpec{
			{Name: "D", Props: map[string]expr.Value{PropClassification: expr.String("3D Model")}},
		},
		BaseTime: 300,
	}
	psf := &Service{
		Name: "PSF",
		Inputs: []ParamSpec{
			{Name: "A", Condition: `A.Classification = "PSF-Parameter"`},
			{Name: "B", Condition: `B.Classification = "3D Model"`},
			{Name: "C", Condition: `C.Classification = "3D Model"`},
		},
		Outputs: []OutputSpec{
			{Name: "D", Props: map[string]expr.Value{PropClassification: expr.String("Resolution File")}},
		},
		BaseTime: 120,
	}
	return NewCatalog(pod, p3dr, psf)
}

func initialState() *State {
	return NewState(
		NewDataItem("D1", "POD-Parameter"),
		NewDataItem("D2", "P3DR-Parameter"),
		NewDataItem("D6", "PSF-Parameter"),
		NewDataItem("D7", "2D Image").With(PropSize, expr.Number(1.5e9)),
	)
}

func TestServiceBindAndApply(t *testing.T) {
	cat := testCatalog()
	st := initialState()

	pod := cat.Get("POD")
	if pod == nil {
		t.Fatal("POD missing from catalog")
	}
	binding, ok := pod.Bind(st)
	if !ok {
		t.Fatal("POD should be applicable in the initial state")
	}
	if binding["A"].Name != "D1" || binding["B"].Name != "D7" {
		t.Errorf("POD binding = %v", binding)
	}

	// P3DR is not applicable before POD produced an orientation file.
	if cat.Get("P3DR").Applicable(st) {
		t.Error("P3DR should not be applicable before POD")
	}

	st2, valid := pod.Apply(st, []string{"D8"}, 0)
	if !valid {
		t.Fatal("POD application failed")
	}
	if st.Has("D8") {
		t.Error("Apply mutated the input state")
	}
	d8 := st2.Get("D8")
	if d8 == nil || d8.Classification() != "Orientation File" {
		t.Fatalf("D8 = %v", d8)
	}
	if creator, _ := d8.Prop(PropCreator); creator.Str() != "POD" {
		t.Errorf("D8 creator = %v, want POD", creator)
	}

	if !cat.Get("P3DR").Applicable(st2) {
		t.Error("P3DR should be applicable after POD")
	}
}

func TestServiceDistinctBinding(t *testing.T) {
	// PSF needs two distinct 3D models (C7). With only one model it must
	// not bind.
	cat := testCatalog()
	psf := cat.Get("PSF")
	one := NewState(
		NewDataItem("P", "PSF-Parameter"),
		NewDataItem("M1", "3D Model"),
	)
	if psf.Applicable(one) {
		t.Error("PSF bound with a single 3D model; requires two distinct")
	}
	two := NewState(
		NewDataItem("P", "PSF-Parameter"),
		NewDataItem("M1", "3D Model"),
		NewDataItem("M2", "3D Model"),
	)
	b, ok := psf.Bind(two)
	if !ok {
		t.Fatal("PSF should bind with two models")
	}
	if b["B"].Name == b["C"].Name {
		t.Errorf("PSF bound the same item twice: %v", b)
	}
}

func TestBindDeterministic(t *testing.T) {
	cat := testCatalog()
	psf := cat.Get("PSF")
	st := NewState(
		NewDataItem("P", "PSF-Parameter"),
		NewDataItem("MA", "3D Model"),
		NewDataItem("MB", "3D Model"),
		NewDataItem("MC", "3D Model"),
	)
	first, ok := psf.Bind(st)
	if !ok {
		t.Fatal("bind failed")
	}
	for i := 0; i < 20; i++ {
		again, ok := psf.Bind(st)
		if !ok {
			t.Fatal("bind failed on repeat")
		}
		for formal, item := range first {
			if again[formal].Name != item.Name {
				t.Fatalf("nondeterministic binding: run0 %v, run%d %v", first, i, again)
			}
		}
	}
}

func TestApplyGeneratedNames(t *testing.T) {
	cat := testCatalog()
	pod := cat.Get("POD")
	st := initialState()
	st2, ok := pod.Apply(st, nil, 7)
	if !ok {
		t.Fatal("apply failed")
	}
	if !st2.Has("POD.C.7") {
		t.Errorf("generated name missing; state: %v", st2.Names())
	}
	// Failed preconditions return the original state unchanged.
	empty := NewState()
	st3, ok := pod.Apply(empty, nil, 0)
	if ok || st3 != empty {
		t.Error("apply on empty state should fail and return input state")
	}
}

func TestGoalFitness(t *testing.T) {
	g := NewGoal(
		`G.Classification = "Resolution File"`,
		`G.Classification = "3D Model"`,
	)
	st := NewState(NewDataItem("D12", "Resolution File"))
	met, total := g.Satisfied(st)
	if met != 1 || total != 2 {
		t.Errorf("Satisfied = %d/%d, want 1/2", met, total)
	}
	if f := g.Fitness(st); f != 0.5 {
		t.Errorf("Fitness = %v, want 0.5", f)
	}
	st.Put(NewDataItem("D9", "3D Model"))
	if f := g.Fitness(st); f != 1.0 {
		t.Errorf("Fitness = %v, want 1.0", f)
	}
	if f := NewGoal().Fitness(st); f != 1.0 {
		t.Errorf("empty goal Fitness = %v, want 1.0 (vacuous)", f)
	}
}

func TestProblemValidate(t *testing.T) {
	good := &Problem{
		Name:    "p",
		Initial: initialState(),
		Goal:    NewGoal(`G.Classification = "Resolution File"`),
		Catalog: testCatalog(),
	}
	if err := good.Validate(); err != nil {
		t.Errorf("good problem: %v", err)
	}
	for _, p := range []*Problem{
		{Name: "nil-initial", Goal: NewGoal("true"), Catalog: testCatalog()},
		{Name: "no-catalog", Initial: NewState(), Goal: NewGoal("true")},
		{Name: "no-goal", Initial: NewState(), Catalog: testCatalog()},
		{Name: "bad-goal", Initial: NewState(), Goal: NewGoal("((("), Catalog: testCatalog()},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", p.Name)
		}
	}
}

func TestServiceValidate(t *testing.T) {
	ok := &Service{Name: "S", Inputs: []ParamSpec{{Name: "A", Condition: "A.x = 1"}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid service: %v", err)
	}
	for _, s := range []*Service{
		{Name: ""},
		{Name: "S", Inputs: []ParamSpec{{Name: "A", Condition: "((("}}},
		{Name: "S", Outputs: []OutputSpec{{Name: ""}}},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("service %+v: Validate() = nil, want error", s)
		}
	}
}

func TestCatalogOps(t *testing.T) {
	c := testCatalog()
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	names := c.Names()
	want := []string{"P3DR", "POD", "PSF"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	var zero Catalog
	zero.Add(&Service{Name: "X"})
	if zero.Get("X") == nil {
		t.Error("Add on zero catalog failed")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("catalog validate: %v", err)
	}
}

func TestStateBasics(t *testing.T) {
	st := NewState(NewDataItem("A", "x"))
	if !st.Has("A") || st.Has("B") || st.Len() != 1 {
		t.Fatal("basic state ops broken")
	}
	st.Put(NewDataItem("B", "y").With(PropSize, expr.Number(10)))
	names := st.Names()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Errorf("Names = %v", names)
	}
	cl := st.Clone()
	cl.Get("A").With(PropClassification, expr.String("mutated"))
	if st.Get("A").Classification() != "x" || cl.Get("A").Classification() != "mutated" {
		t.Error("With on a clone's item reached the original")
	}
	svc := &Service{Name: "S", Outputs: []OutputSpec{{Name: "O", Props: map[string]expr.Value{PropClassification: expr.String("out")}}}}
	if it := svc.Produce(nil, 1)[0].With(PropClassification, expr.String("mutated")); it.Classification() != "mutated" {
		t.Errorf("With on a produced item: %v", it)
	}
	if it := svc.Produce(nil, 2)[0]; it.Classification() != "out" || it.Props[PropCreator].Str() != "S" {
		t.Errorf("With on a produced item reached the service's template: %v", it)
	}
	if v, ok := st.Lookup("B", PropSize); !ok || v.Str() != "10" {
		t.Errorf("Lookup = %v, %v", v, ok)
	}
	if _, ok := st.Lookup("nope", PropSize); ok {
		t.Error("Lookup of missing item should fail")
	}
	if !strings.Contains(st.String(), "B{") {
		t.Errorf("String() = %q", st.String())
	}
	var zero State
	zero.Put(NewDataItem("Z", "z"))
	if !zero.Has("Z") {
		t.Error("Put on zero state failed")
	}
}

func TestBindingEnvShadowing(t *testing.T) {
	st := NewState(NewDataItem("D1", "base"))
	b := Binding{
		Formals: map[string]*DataItem{"A": NewDataItem("X", "formal")},
		Base:    st,
	}
	if v, ok := b.Lookup("A", PropClassification); !ok || v.Str() != "formal" {
		t.Errorf("formal lookup = %v, %v", v, ok)
	}
	if v, ok := b.Lookup("D1", PropClassification); !ok || v.Str() != "base" {
		t.Errorf("base lookup = %v, %v", v, ok)
	}
	if _, ok := b.Lookup("nope", "x"); ok {
		t.Error("missing lookup should fail")
	}
	nobase := Binding{Formals: map[string]*DataItem{}}
	if _, ok := nobase.Lookup("A", "x"); ok {
		t.Error("lookup with no base should fail")
	}
}

// Property: Apply never mutates its input state and always grows the state
// by exactly len(Outputs) when it succeeds.
func TestQuickApplyPure(t *testing.T) {
	cat := testCatalog()
	services := cat.Services()
	f := func(which uint8, seq uint8, extra bool) bool {
		svc := services[int(which)%len(services)]
		st := initialState()
		if extra {
			st.Put(NewDataItem("E1", "Orientation File"))
			st.Put(NewDataItem("E2", "3D Model"))
			st.Put(NewDataItem("E3", "3D Model"))
		}
		before := st.Len()
		beforeNames := strings.Join(st.Names(), ",")
		st2, ok := svc.Apply(st, nil, int(seq))
		if strings.Join(st.Names(), ",") != beforeNames {
			return false // input mutated
		}
		if !ok {
			return st2 == st
		}
		return st2.Len() == before+len(svc.Outputs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDataItemHelpers(t *testing.T) {
	d := NewDataItem("D", "Klass").With(PropSize, expr.Number(3))
	if d.Classification() != "Klass" {
		t.Error("Classification mismatch")
	}
	if v, ok := d.Prop(PropSize); !ok || v.Str() != "3" {
		t.Error("Prop mismatch")
	}
	var bare DataItem
	bare.With("k", expr.String("v"))
	if v, ok := bare.Prop("k"); !ok || v.Str() != "v" {
		t.Error("With on zero item failed")
	}
	if (&DataItem{Name: "N"}).Classification() != "" {
		t.Error("missing classification should be empty")
	}
	if !strings.Contains(d.String(), "Size=3") {
		t.Errorf("String() = %q", d.String())
	}
}

func TestCaseDescription(t *testing.T) {
	c := NewCase("CD-1", "case").
		AddData(NewDataItem("D1", "POD-Parameter")).
		SetConstraint("Cons1", `D10.value > 8`)
	c.Goal = NewGoal(`G.Classification = "Resolution File"`)
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	st := c.InitialState()
	if !st.Has("D1") {
		t.Error("InitialState missing D1")
	}
	// The state shares the case's items, never its item list: a Put replaces
	// an item in the state alone.
	if st.Get("D1") != c.InitialData[0] {
		t.Error("InitialState copied an item")
	}
	st.Put(NewDataItem("D1", "mutated"))
	st.Put(NewDataItem("D0", "new"))
	if c.InitialData[0].Name != "D1" || c.InitialData[0].Classification() == "mutated" || len(c.InitialData) != 1 {
		t.Error("a Put into the initial state changed the case")
	}
	// Duplicates rejected.
	dup := NewCase("CD-2", "dup").AddData(NewDataItem("D1", "x"), NewDataItem("D1", "y"))
	if err := dup.Validate(); err == nil {
		t.Error("duplicate data accepted")
	}
	if err := NewCase("", "anon").Validate(); err == nil {
		t.Error("empty ID accepted")
	}
	empty := NewCase("CD-3", "e").AddData(&DataItem{})
	if err := empty.Validate(); err == nil {
		t.Error("empty data name accepted")
	}
}

func TestTaskValidate(t *testing.T) {
	c := NewCase("CD-1", "case").AddData(NewDataItem("D1", "x"))
	good := &Task{ID: "T1", Name: "t", Case: c, Process: buildSequential()}
	if err := good.Validate(); err != nil {
		t.Errorf("good task: %v", err)
	}
	planned := &Task{ID: "T2", Case: c, NeedPlanning: true}
	if err := planned.Validate(); err != nil {
		t.Errorf("NeedPlanning task: %v", err)
	}
	for _, bad := range []*Task{
		{ID: "", Case: c},
		{ID: "T3"},
		{ID: "T4", Case: c}, // no process, NeedPlanning false
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("task %q: Validate() = nil, want error", bad.ID)
		}
	}
}

// TestApplicableAllocatesNothing pins the precondition check every dispatch
// makes: a binding search on a pooled binder, whether it succeeds or not.
func TestApplicableAllocatesNothing(t *testing.T) {
	st := initialState()
	for _, svc := range testCatalog().Services() {
		want := svc.Applicable(st) // parses the conditions once
		allocs := testing.AllocsPerRun(200, func() {
			if svc.Applicable(st) != want {
				t.Fatalf("%s: Applicable changed its answer", svc.Name)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Applicable allocates %.0f per call, want 0", svc.Name, allocs)
		}
	}
}
