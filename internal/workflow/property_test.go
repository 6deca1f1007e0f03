package workflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/expr"
)

// randomState builds a state with a random mix of classifications.
func randomState(rng *rand.Rand) *State {
	classes := []string{"POD-Parameter", "P3DR-Parameter", "PSF-Parameter",
		"2D Image", "Orientation File", "3D Model", "Resolution File"}
	st := NewState()
	n := 1 + rng.Intn(12)
	for i := 0; i < n; i++ {
		st.Put(NewDataItem(fmt.Sprintf("R%02d", i), classes[rng.Intn(len(classes))]))
	}
	return st
}

// Property: whenever Bind succeeds, the returned binding is injective and
// every formal's condition holds under it.
func TestQuickBindSoundness(t *testing.T) {
	cat := testCatalog()
	svcs := cat.Services()
	rng := rand.New(rand.NewSource(31))
	f := func(seed int64, which uint8) bool {
		local := rand.New(rand.NewSource(seed))
		st := randomState(local)
		svc := svcs[int(which)%len(svcs)]
		binding, ok := svc.Bind(st)
		if !ok {
			return true // nothing to verify
		}
		used := map[string]bool{}
		for _, item := range binding {
			if used[item.Name] {
				return false // not injective
			}
			used[item.Name] = true
		}
		env := Binding{Formals: binding, Base: st}
		for i := range svc.Inputs {
			node, err := expr.Parse(svc.Inputs[i].Condition)
			if err != nil {
				return false
			}
			if !node.Eval(env) {
				return false // condition not actually satisfied
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: Bind succeeds iff a brute-force search over all injective
// assignments finds one (completeness, checked on small states).
func TestQuickBindCompleteness(t *testing.T) {
	cat := testCatalog()
	psf := cat.Get("PSF")
	rng := rand.New(rand.NewSource(32))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		st := NewState()
		n := 1 + local.Intn(5)
		classes := []string{"PSF-Parameter", "3D Model", "Orientation File"}
		for i := 0; i < n; i++ {
			st.Put(NewDataItem(fmt.Sprintf("X%d", i), classes[local.Intn(len(classes))]))
		}
		_, got := psf.Bind(st)
		// Brute force: PSF needs 1 PSF-Parameter + 2 distinct 3D Models.
		params, models := 0, 0
		for _, it := range st.Items() {
			switch it.Classification() {
			case "PSF-Parameter":
				params++
			case "3D Model":
				models++
			}
		}
		want := params >= 1 && models >= 2
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: the process JSON round trip is the identity on valid processes.
func TestQuickProcessJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := func(seed int64, variant uint8) bool {
		_ = seed
		var p *ProcessDescription
		switch variant % 3 {
		case 0:
			p = buildSequential()
		case 1:
			p = buildForkJoin()
		default:
			p = buildChoiceMerge()
		}
		data, err := p.MarshalJSON()
		if err != nil {
			return false
		}
		back, err := DecodeProcess(data)
		if err != nil {
			return false
		}
		data2, err := back.MarshalJSON()
		if err != nil {
			return false
		}
		return string(data) == string(data2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: Goal.Fitness is monotone under state growth: adding items never
// lowers it.
func TestQuickGoalMonotone(t *testing.T) {
	goal := NewGoal(
		`G.Classification = "Resolution File"`,
		`G.Classification = "3D Model"`,
		`G.Classification = "Orientation File"`,
	)
	rng := rand.New(rand.NewSource(34))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		st := randomState(local)
		before := goal.Fitness(st)
		grown := st.Clone()
		grown.Put(NewDataItem("extra", "3D Model"))
		return goal.Fitness(grown) >= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// crossCatalog has what the case-study catalog lacks (the shapes
// planner/eval_test.go builds): a condition over two formals, a condition
// over a named case item, a service with two outputs, one with no inputs,
// and the C7 case of two distinct items of one class.
func crossCatalog() *Catalog {
	class := func(c string) map[string]expr.Value {
		return map[string]expr.Value{PropClassification: expr.String(c)}
	}
	return NewCatalog(
		&Service{Name: "GEN", Outputs: []OutputSpec{{Name: "O", Props: class("Raw")}}},
		&Service{Name: "SPLIT",
			Inputs: []ParamSpec{{Name: "A", Condition: `A.Classification = "Raw"`}},
			Outputs: []OutputSpec{{Name: "L", Props: class("Half")},
				{Name: "R", Props: map[string]expr.Value{
					PropClassification: expr.String("Half"), PropCreator: expr.String("Elsewhere")}}}},
		&Service{Name: "JOIN",
			Inputs: []ParamSpec{
				{Name: "A", Condition: `A.Classification = "Join-Parameter"`},
				{Name: "B", Condition: `B.Classification = "Half"`},
				{Name: "C", Condition: `C.Classification = "Half" and B.Creator != C.Creator`}},
			Outputs: []OutputSpec{{Name: "D", Props: class("Whole")}}},
		&Service{Name: "PACK",
			Inputs:  []ParamSpec{{Name: "A", Condition: `A.Classification = "Whole" and D1.Size > 0`}},
			Outputs: []OutputSpec{{Name: "P", Props: class("Package")}}},
		&Service{Name: "PAIR", // C7: two different items of the same class
			Inputs: []ParamSpec{
				{Name: "B", Condition: `B.Classification = "Half"`},
				{Name: "C", Condition: `C.Classification = "Half"`}},
			Outputs: []OutputSpec{{Name: "D", Props: class("Whole")}}},
		&Service{Name: "SHADOW", // the formal D1 shadows the case item D1
			Inputs:  []ParamSpec{{Name: "D1", Condition: `D1.Classification = "Raw"`}},
			Outputs: []OutputSpec{{Name: "O", Props: class("Raw")}}},
	)
}

// Property: Applicable is Bind's yes/no — over random walks that apply
// whatever is applicable, on both catalogs — and what Bind returns is the
// first binding in name order, as the reference search over a map-built
// Binding finds it.
func TestApplicableMatchesBind(t *testing.T) {
	referenceBind := func(svc *Service, st *State) (map[string]*DataItem, bool) {
		chosen := map[string]*DataItem{}
		env := Binding{Formals: chosen, Base: st}
		var bind func(i int) bool
		bind = func(i int) bool {
			if i == len(svc.Inputs) {
				return true
			}
			cond, err := expr.Parse(svc.Inputs[i].Condition)
			if err != nil {
				return false
			}
		next:
			for _, it := range st.Items() {
				for j := 0; j < i; j++ {
					if chosen[svc.Inputs[j].Name] == it {
						continue next
					}
				}
				chosen[svc.Inputs[i].Name] = it
				if cond.Eval(env) && bind(i+1) {
					return true
				}
				delete(chosen, svc.Inputs[i].Name)
			}
			return false
		}
		return chosen, bind(0)
	}
	for name, cat := range map[string]*Catalog{"virolab": testCatalog(), "cross": crossCatalog()} {
		rng := rand.New(rand.NewSource(7))
		for walk := 0; walk < 200; walk++ {
			st := randomState(rng)
			st.Put(NewDataItem("D1", "Join-Parameter").With(PropSize, expr.Number(float64(rng.Intn(3)))))
			st.Put(NewDataItem("D2", "Raw"))
			for step := 0; step < 8; step++ {
				svc := cat.Services()[rng.Intn(cat.Len())]
				want, wantOK := referenceBind(svc, st)
				got, gotOK := svc.Bind(st)
				if app := svc.Applicable(st); app != wantOK || gotOK != wantOK {
					t.Fatalf("%s: %s in %v: Applicable %v, Bind %v, reference %v", name, svc.Name, st, app, gotOK, wantOK)
				}
				if wantOK && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s in %v: Bind chose %v, reference %v", name, svc.Name, st, got, want)
				}
				st, _ = svc.Apply(st, nil, walk*10+step)
			}
		}
	}
}

// Property: a State iterates in sort.Strings order of its names whatever
// the order of the Puts and replacements that built it, and so does a Clone.
func TestStateKeepsNameOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		st, want := NewState(), map[string]string{}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			name, class := fmt.Sprintf("D%d", rng.Intn(25)), fmt.Sprintf("c%d", i)
			st.Put(NewDataItem(name, class))
			want[name] = class
		}
		names := make([]string, 0, len(want))
		for n := range want {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, s := range []*State{st, st.Clone()} {
			if got := s.Names(); !reflect.DeepEqual(got, names) {
				t.Fatalf("names %v, want %v", got, names)
			}
			for i, it := range s.Items() {
				if it.Name != names[i] || it.Classification() != want[it.Name] || s.Get(it.Name) != it {
					t.Fatalf("item %d is %v, want %s of class %s", i, it, names[i], want[names[i]])
				}
			}
			if s.Len() != len(names) || s.Has("nope") {
				t.Fatalf("Len %d, want %d", s.Len(), len(names))
			}
		}
	}
}
