package virolab

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/ontology"
	"repro/internal/pdl"
	"repro/internal/plantree"
	"repro/internal/workflow"
)

// TestFig10ProcessDescription checks the structure of the Figure 10 graph:
// 7 end-user activities, 6 flow-control activities, 15 transitions.
func TestFig10ProcessDescription(t *testing.T) {
	p := Process()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.CountKind(workflow.KindEndUser); got != 7 {
		t.Errorf("end-user activities = %d, want 7", got)
	}
	flow := len(p.Activities) - p.CountKind(workflow.KindEndUser)
	if flow != 6 {
		t.Errorf("flow-control activities = %d, want 6", flow)
	}
	if len(p.Transitions) != 15 {
		t.Errorf("transitions = %d, want 15", len(p.Transitions))
	}
	// The back edge TR14 goes from the Choice to the Merge, guarded by Cons1.
	var back *workflow.Transition
	for _, tr := range p.Transitions {
		if tr.Source == "A12" && tr.Dest == "A4" {
			back = tr
		}
	}
	if back == nil || back.Condition != Cons1 {
		t.Errorf("back edge = %+v", back)
	}
	// Activity data sets follow Figure 13.
	psf := p.Activity("A11")
	if psf == nil || strings.Join(psf.Inputs, ",") != "D10,D11" || strings.Join(psf.Outputs, ",") != "D12" {
		t.Errorf("PSF data sets = %+v", psf)
	}
	por := p.Activity("A5")
	if por == nil || strings.Join(por.Outputs, ",") != "D8" {
		t.Errorf("POR outputs = %+v", por)
	}
}

// TestFig11PlanTree checks that the Figure 10 process description parses to
// the Figure 11 plan tree, and that the tree survives the round trip through
// the graph form.
func TestFig11PlanTree(t *testing.T) {
	tree, err := plantree.FromProcess(Process())
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(40); err != nil {
		t.Fatal(err)
	}
	want := "(seq POD P3DR (iter POR (conc P3DR P3DR P3DR) PSF))"
	if tree.String() != want {
		t.Errorf("tree = %s, want %s", tree, want)
	}
	if tree.Size() != 10 {
		t.Errorf("size = %d, want 10", tree.Size())
	}
	// Round trip through the graph form preserves the structure.
	pd, err := plantree.ToProcess("3DSD", tree)
	if err != nil {
		t.Fatal(err)
	}
	back, err := plantree.FromProcess(pd)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(tree) {
		t.Errorf("round trip:\n got %s\nwant %s", back, tree)
	}
}

func TestCatalogConditions(t *testing.T) {
	cat := Catalog()
	if cat.Len() != 4 {
		t.Fatalf("catalog size = %d, want 4", cat.Len())
	}
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	st := workflow.NewState(InitialData()...)
	// Only POD is applicable initially.
	if !cat.Get("POD").Applicable(st) {
		t.Error("POD should be applicable initially")
	}
	for _, name := range []string{"P3DR", "POR", "PSF"} {
		if cat.Get(name).Applicable(st) {
			t.Errorf("%s should not be applicable initially", name)
		}
	}
	// After POD -> orientation file, P3DR becomes applicable.
	st2, ok := cat.Get("POD").Apply(st, []string{"D8"}, 0)
	if !ok {
		t.Fatal("POD failed")
	}
	if !cat.Get("P3DR").Applicable(st2) {
		t.Error("P3DR should be applicable after POD")
	}
	// POR needs a 3D model as well.
	if cat.Get("POR").Applicable(st2) {
		t.Error("POR should not be applicable before P3DR")
	}
	st3, _ := cat.Get("P3DR").Apply(st2, []string{"D9"}, 1)
	if !cat.Get("POR").Applicable(st3) {
		t.Error("POR should be applicable after P3DR")
	}
	// PSF needs two distinct models.
	if cat.Get("PSF").Applicable(st3) {
		t.Error("PSF should not be applicable with one model")
	}
	st4, _ := cat.Get("P3DR").Apply(st3, []string{"D10"}, 2)
	if !cat.Get("PSF").Applicable(st4) {
		t.Error("PSF should be applicable with two models")
	}
}

func TestCaseAndTask(t *testing.T) {
	c := Case()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.InitialData) != 7 {
		t.Errorf("initial data = %d, want 7 (D1-D7)", len(c.InitialData))
	}
	if c.Constraints["Cons1"] != Cons1 {
		t.Error("Cons1 not registered")
	}
	task := Task()
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	if task.ID != "T1" || task.Owner != "UCF" {
		t.Errorf("task = %+v", task)
	}
	p := Problem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestResolutionHook(t *testing.T) {
	hook := ResolutionHook(nil)
	psf := Process().Activity("A11")
	mk := func() []*workflow.DataItem {
		return []*workflow.DataItem{workflow.NewDataItem("D12", "Resolution File")}
	}
	for visit, want := range map[int]float64{1: 12, 2: 9.5, 3: 7.8, 4: 7.8, 0: 12} {
		items := mk()
		hook(psf, items, visit)
		v, ok := items[0].Prop(workflow.PropValue)
		n, _ := v.Num()
		if !ok || n != want {
			t.Errorf("visit %d: value = %v, want %g", visit, v, want)
		}
	}
	// Non-PSF activities untouched.
	items := mk()
	hook(Process().Activity("A2"), items, 1)
	if _, ok := items[0].Prop(workflow.PropValue); ok {
		t.Error("hook touched non-PSF output")
	}
	// Custom schedule respected.
	custom := ResolutionHook([]float64{5})
	items = mk()
	custom(psf, items, 1)
	if v, _ := items[0].Prop(workflow.PropValue); v.Str() != "5" {
		t.Errorf("custom schedule value = %v", v)
	}
}

// TestFig13Instances validates the populated ontology.
func TestFig13Instances(t *testing.T) {
	kb, err := Ontology()
	if err != nil {
		t.Fatal(err)
	}
	classes, instances := kb.Stats()
	if classes != 10 {
		t.Errorf("classes = %d, want 10", classes)
	}
	// 12 data + 4 services + 13 activities + 15 transitions + PD + CD + task = 47.
	if instances != 47 {
		t.Errorf("instances = %d, want 47", instances)
	}
	if got := len(kb.InstancesOf(ontology.ClassData)); got != 12 {
		t.Errorf("data instances = %d, want 12", got)
	}
	if got := len(kb.InstancesOf(ontology.ClassTransition)); got != 15 {
		t.Errorf("transition instances = %d, want 15", got)
	}
	// Task links resolve.
	task := kb.Instance("T1")
	if task == nil {
		t.Fatal("task instance missing")
	}
	if v := task.Values["ProcessDescription"]; v.S != "PD-3DSD" {
		t.Errorf("task PD ref = %v", v)
	}
	// Query: all 3D models.
	models := kb.Query(ontology.ClassData, func(in *ontology.Instance) bool {
		return in.Text("Classification") == "3D Model"
	})
	if len(models) != 3 {
		t.Errorf("3D models = %d, want 3 (D9, D10, D11)", len(models))
	}
	// The ontology round-trips through JSON.
	data, err := kb.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ontology.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, n := back.Stats(); n != instances {
		t.Errorf("instances after round trip = %d, want %d", n, instances)
	}
}

func BenchmarkFig13InstanceLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := buildOntology(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPDLSourceMatchesProcess checks that the canonical PDL text and the
// hand-built Figure 10 graph agree: same plan tree, same activity data
// bindings, and identical enactment-relevant structure.
func TestPDLSourceMatchesProcess(t *testing.T) {
	fromText, err := pdl.ParseProcess("PD-3DSD", PDLSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := fromText.Validate(); err != nil {
		t.Fatal(err)
	}
	treeText, err := plantree.FromProcess(fromText)
	if err != nil {
		t.Fatal(err)
	}
	treeGraph, err := plantree.FromProcess(Process())
	if err != nil {
		t.Fatal(err)
	}
	// The graph form carries Cons1 on the back edge; the PDL text carries
	// it as the ITERATIVE condition — identical after parsing.
	if !treeText.Equal(treeGraph) {
		t.Errorf("trees differ:\n text: %s\ngraph: %s", treeText, treeGraph)
	}
	// Binding spot checks survive the text form.
	if !slices.ContainsFunc(fromText.Activities, func(a *workflow.Activity) bool {
		return a.Name == "PSF" && strings.Join(a.Inputs, ",") == "D10,D11" && strings.Join(a.Outputs, ",") == "D12"
	}) {
		t.Error("PSF bindings D10,D11 -> D12 lost in the text form")
	}
}

// The input conditions C1, C3, C5 and C7 of Figure 13, as the paper writes
// them.
var paperInputConditions = map[string]string{
	"POD":  `A.Classification = "POD-Parameter" and B.Classification = "2D Image"`,
	"P3DR": `A.Classification = "P3DR-Parameter" and B.Classification = "2D Image" and C.Classification = "Orientation File"`,
	"POR":  `A.Classification = "POR-Parameter" and B.Classification = "2D Image" and C.Classification = "Orientation File" and D.Classification = "3D Model"`,
	"PSF":  `A.Classification = "PSF-Parameter" and B.Classification = "3D Model" and C.Classification = "3D Model"`,
}

// oracleCatalog is the service table as Go literals, the form the catalog
// had before it was read from the knowledge base.
func oracleCatalog() *workflow.Catalog {
	str := expr.String
	return workflow.NewCatalog(
		&workflow.Service{Name: "POD", BaseTime: 600, Cost: 2,
			Inputs: []workflow.ParamSpec{
				{Name: "A", Condition: `A.Classification = "POD-Parameter"`},
				{Name: "B", Condition: `B.Classification = "2D Image"`}},
			Outputs: []workflow.OutputSpec{{Name: "C", Props: map[string]expr.Value{
				workflow.PropClassification: str("Orientation File"), "Type": str("Orientation File")}}}},
		&workflow.Service{Name: "P3DR", BaseTime: 1800, Cost: 10,
			Inputs: []workflow.ParamSpec{
				{Name: "A", Condition: `A.Classification = "P3DR-Parameter"`},
				{Name: "B", Condition: `B.Classification = "2D Image"`},
				{Name: "C", Condition: `C.Classification = "Orientation File"`}},
			Outputs: []workflow.OutputSpec{{Name: "D", Props: map[string]expr.Value{
				workflow.PropClassification: str("3D Model"), "Format": str("Electron Density Map")}}}},
		&workflow.Service{Name: "POR", BaseTime: 1200, Cost: 6,
			Inputs: []workflow.ParamSpec{
				{Name: "A", Condition: `A.Classification = "POR-Parameter"`},
				{Name: "B", Condition: `B.Classification = "2D Image"`},
				{Name: "C", Condition: `C.Classification = "Orientation File"`},
				{Name: "D", Condition: `D.Classification = "3D Model"`}},
			Outputs: []workflow.OutputSpec{{Name: "E", Props: map[string]expr.Value{
				workflow.PropClassification: str("Orientation File"), "Type": str("Orientation File")}}}},
		&workflow.Service{Name: "PSF", BaseTime: 300, Cost: 1,
			Inputs: []workflow.ParamSpec{
				{Name: "A", Condition: `A.Classification = "PSF-Parameter"`},
				{Name: "B", Condition: `B.Classification = "3D Model"`},
				{Name: "C", Condition: `C.Classification = "3D Model"`}},
			Outputs: []workflow.OutputSpec{{Name: "D", Props: map[string]expr.Value{
				workflow.PropClassification: str("Resolution File"), workflow.PropValue: expr.Number(12)}}}},
	)
}

// oracleInitialData is D1-D7 as Go literals.
func oracleInitialData() []*workflow.DataItem {
	param := func(name, class string) *workflow.DataItem {
		return workflow.NewDataItem(name, class).
			With("Format", expr.String("Text")).
			With(workflow.PropCreator, expr.String("User"))
	}
	return []*workflow.DataItem{
		param("D1", "POD-Parameter").With(workflow.PropSize, expr.Number(3e3)),
		param("D2", "P3DR-Parameter"),
		param("D3", "P3DR-Parameter"),
		param("D4", "P3DR-Parameter"),
		param("D5", "POR-Parameter"),
		param("D6", "PSF-Parameter"),
		workflow.NewDataItem("D7", "2D Image").
			With(workflow.PropSize, expr.Number(1.5e9)).
			With(workflow.PropCreator, expr.String("User")),
	}
}

// oracleProcess is the Figure 10 graph built with Add and ConnectParsed.
func oracleProcess() *workflow.ProcessDescription {
	p := workflow.NewProcess("PD-3DSD")
	add := func(id, name string, kind workflow.Kind, service string, in, out []string) {
		p.Add(&workflow.Activity{ID: id, Name: name, Kind: kind, Service: service, Inputs: in, Outputs: out})
	}
	add("A1", "BEGIN", workflow.KindBegin, "", nil, nil)
	add("A2", "POD", workflow.KindEndUser, "POD", []string{"D1", "D7"}, []string{"D8"})
	add("A3", "P3DR1", workflow.KindEndUser, "P3DR", []string{"D2", "D7", "D8"}, []string{"D9"})
	add("A4", "MERGE", workflow.KindMerge, "", nil, nil)
	add("A5", "POR", workflow.KindEndUser, "POR", []string{"D5", "D7", "D8", "D9"}, []string{"D8"})
	add("A6", "FORK", workflow.KindFork, "", nil, nil)
	add("A7", "P3DR2", workflow.KindEndUser, "P3DR", []string{"D3", "D7", "D8"}, []string{"D10"})
	add("A8", "P3DR3", workflow.KindEndUser, "P3DR", []string{"D4", "D7", "D8"}, []string{"D11"})
	add("A9", "P3DR4", workflow.KindEndUser, "P3DR", []string{"D2", "D7", "D8"}, []string{"D9"})
	add("A10", "JOIN", workflow.KindJoin, "", nil, nil)
	add("A11", "PSF", workflow.KindEndUser, "PSF", []string{"D10", "D11"}, []string{"D12"})
	add("A12", "CHOICE", workflow.KindChoice, "", nil, nil)
	add("A13", "END", workflow.KindEnd, "", nil, nil)
	p.Activity("A12").Constraint = Cons1
	for _, tr := range [][3]string{
		{"A1", "A2"}, {"A2", "A3"}, {"A3", "A4"}, {"A4", "A5"}, {"A5", "A6"},
		{"A6", "A7"}, {"A6", "A8"}, {"A6", "A9"}, {"A7", "A10"}, {"A8", "A10"},
		{"A9", "A10"}, {"A10", "A11"}, {"A11", "A12"}, {"A12", "A4", Cons1}, {"A12", "A13"},
	} {
		p.ConnectParsed(tr[0], tr[1], tr[2], nil)
	}
	return p
}

// TestCatalogReadFromKB pins what the readers take from the Figure 13
// instances to the Go literals they replaced.
func TestCatalogReadFromKB(t *testing.T) {
	got, want := Catalog(), oracleCatalog()
	if !reflect.DeepEqual(got.Names(), want.Names()) {
		t.Fatalf("services = %v, want %v", got.Names(), want.Names())
	}
	for i, w := range want.Services() {
		g := got.Services()[i]
		if g.Name != w.Name || g.BaseTime != w.BaseTime || g.Cost != w.Cost {
			t.Errorf("service %d = %s base %g cost %g, want %s base %g cost %g",
				i, g.Name, g.BaseTime, g.Cost, w.Name, w.BaseTime, w.Cost)
		}
		if len(g.Inputs) != len(w.Inputs) {
			t.Fatalf("%s inputs = %d, want %d", w.Name, len(g.Inputs), len(w.Inputs))
		}
		conds := make([]string, len(g.Inputs))
		for j := range w.Inputs {
			if g.Inputs[j].Name != w.Inputs[j].Name || g.Inputs[j].Condition != w.Inputs[j].Condition {
				t.Errorf("%s input %d = %s %q, want %s %q", w.Name, j,
					g.Inputs[j].Name, g.Inputs[j].Condition, w.Inputs[j].Name, w.Inputs[j].Condition)
			}
			conds[j] = g.Inputs[j].Condition
		}
		if joined := strings.Join(conds, " and "); joined != paperInputConditions[w.Name] {
			t.Errorf("%s input condition = %q, want the paper's %q", w.Name, joined, paperInputConditions[w.Name])
		}
		if !reflect.DeepEqual(g.Outputs, w.Outputs) {
			t.Errorf("%s outputs = %v, want %v", w.Name, g.Outputs, w.Outputs)
		}
	}

	if items, want := InitialData(), oracleInitialData(); len(items) != len(want) {
		t.Errorf("initial data = %d items, want %d", len(items), len(want))
	} else {
		for i := range want {
			if items[i].Name != want[i].Name || !reflect.DeepEqual(items[i].Props, want[i].Props) {
				t.Errorf("initial data %d = %v, want %v", i, items[i], want[i])
			}
		}
	}

	c := Case()
	if c.ID != "CD-3DSD" || !reflect.DeepEqual(c.ResultSet, []string{"D12"}) ||
		!reflect.DeepEqual(c.Constraints, map[string]string{"Cons1": Cons1}) ||
		!reflect.DeepEqual(c.Goal.Conditions, []string{GoalCondition}) {
		t.Errorf("case = %s results %v constraints %v goal %v", c.ID, c.ResultSet, c.Constraints, c.Goal.Conditions)
	}

	gotJSON, wantJSON := Process().AppendJSON(nil), oracleProcess().AppendJSON(nil)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("process JSON:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestReadersHandOutCopies: a caller mutating what a reader returned does
// not change what the next call returns.
func TestReadersHandOutCopies(t *testing.T) {
	c := Case()
	c.InitialData[0].With(workflow.PropClassification, expr.String("mutated"))
	c.ResultSet[0] = "mutated"
	Process().Activities[1].Inputs[0] = "mutated"
	Catalog().Get("POD").Outputs[0].Props["Type"] = expr.String("mutated")
	if Case().InitialData[0].Classification() != "POD-Parameter" || Case().ResultSet[0] != "D12" ||
		Process().Activities[1].Inputs[0] != "D1" {
		t.Error("a mutated case or process leaked into the next call")
	}
	if v, _ := Catalog().Get("POD").Outputs[0].Props["Type"]; v.Str() != "Orientation File" {
		t.Error("a mutated catalog leaked into the next call")
	}
}

// TestReadersConcurrent: the shared knowledge base and the templates read
// from it are only ever read, so the readers and the KB's JSON form may be
// used from many goroutines at once (run under -race).
func TestReadersConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kb, err := Ontology()
			if err == nil {
				_, err = kb.MarshalJSON()
			}
			if err == nil {
				err = Task().Validate()
			}
			if err == nil {
				err = Problem().Validate()
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// caseAllocs is the allocation count of one Case() when it was built from Go
// literals; reading the knowledge base must not cost more per task.
const caseAllocs = 36

func TestCaseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds a varying number of allocations of its own")
	}
	allocs := testing.AllocsPerRun(100, func() { _ = Case() })
	t.Logf("allocs per Case(): %.0f", allocs)
	if allocs > caseAllocs {
		t.Errorf("Case() allocates %.0f, budget %d", allocs, caseAllocs)
	}
}
