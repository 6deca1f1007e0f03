package ontology

import (
	"strings"
	"testing"
)

// MustAddInstance is AddInstance that panics on error (test fixtures only).
func (kb *KB) MustAddInstance(in *Instance) {
	if err := kb.AddInstance(in); err != nil {
		panic(err)
	}
}

func animalKB(t *testing.T) *KB {
	t.Helper()
	kb := NewKB()
	kb.MustAddClass(&Class{
		Name: "Animal",
		Slots: []Slot{
			{Name: "Name", Kind: KindString, Required: true},
			{Name: "Legs", Kind: KindNumber},
		},
	})
	kb.MustAddClass(&Class{
		Name:   "Dog",
		Parent: "Animal",
		Slots: []Slot{
			{Name: "Breed", Kind: KindString, Allowed: []string{"lab", "pug"}},
			{Name: "Legs", Kind: KindNumber, Required: true}, // override: required
		},
	})
	return kb
}

func TestClassRegistration(t *testing.T) {
	kb := animalKB(t)
	if kb.Class("Animal") == nil || kb.Class("Dog") == nil {
		t.Fatal("classes missing")
	}
	if kb.Class("Cat") != nil {
		t.Fatal("phantom class")
	}
	if err := kb.AddClass(&Class{Name: "Animal"}); err == nil {
		t.Error("duplicate class accepted")
	}
	if err := kb.AddClass(&Class{Name: "Cat", Parent: "Feline"}); err == nil {
		t.Error("unknown parent accepted")
	}
	if err := kb.AddClass(&Class{Name: ""}); err == nil {
		t.Error("empty class name accepted")
	}
	if err := kb.AddClass(&Class{Name: "X", Slots: []Slot{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Error("duplicate slot accepted")
	}
	if err := kb.AddClass(&Class{Name: "Y", Slots: []Slot{{Name: ""}}}); err == nil {
		t.Error("empty slot name accepted")
	}
}

func TestInheritance(t *testing.T) {
	kb := animalKB(t)
	if !kb.IsSubclass("Dog", "Animal") || !kb.IsSubclass("Dog", "Dog") {
		t.Error("IsSubclass false negatives")
	}
	if kb.IsSubclass("Animal", "Dog") || kb.IsSubclass("Nope", "Animal") {
		t.Error("IsSubclass false positives")
	}
	slots := kb.EffectiveSlots("Dog")
	names := map[string]Slot{}
	for _, s := range slots {
		names[s.Name] = s
	}
	if len(slots) != 3 {
		t.Fatalf("effective slots = %d (%v), want 3", len(slots), names)
	}
	if !names["Legs"].Required {
		t.Error("subclass override of Legs.Required lost")
	}
	if _, ok := names["Breed"]; !ok {
		t.Error("own slot missing")
	}
}

func TestInstanceValidation(t *testing.T) {
	kb := animalKB(t)
	good := NewInstance("rex", "Dog").
		Set("Name", Str("Rex")).
		Set("Legs", Num(4)).
		Set("Breed", Str("lab"))
	if err := kb.AddInstance(good); err != nil {
		t.Fatalf("good instance rejected: %v", err)
	}
	cases := []struct {
		name string
		in   *Instance
		want string
	}{
		{"dup", NewInstance("rex", "Dog").Set("Name", Str("x")).Set("Legs", Num(4)), "already defined"},
		{"empty id", NewInstance("", "Dog"), "empty ID"},
		{"unknown class", NewInstance("x1", "Cat"), "unknown class"},
		{"unknown slot", NewInstance("x2", "Dog").Set("Name", Str("a")).Set("Legs", Num(4)).Set("Tail", Str("y")), "unknown slot"},
		{"wrong kind", NewInstance("x3", "Dog").Set("Name", Num(3)).Set("Legs", Num(4)), "kind"},
		{"missing required", NewInstance("x4", "Dog").Set("Name", Str("a")), "required"},
		{"bad enum", NewInstance("x5", "Dog").Set("Name", Str("a")).Set("Legs", Num(4)).Set("Breed", Str("wolf")), "allowed"},
	}
	for _, c := range cases {
		err := kb.AddInstance(c.in)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}
}

func TestQueries(t *testing.T) {
	kb := animalKB(t)
	kb.MustAddInstance(NewInstance("a1", "Animal").Set("Name", Str("Generic")))
	kb.MustAddInstance(NewInstance("d1", "Dog").Set("Name", Str("Rex")).Set("Legs", Num(4)))
	kb.MustAddInstance(NewInstance("d2", "Dog").Set("Name", Str("Fido")).Set("Legs", Num(3)))

	if got := len(kb.InstancesOf("Animal")); got != 3 {
		t.Errorf("InstancesOf(Animal) = %d, want 3 (includes Dogs)", got)
	}
	if got := len(kb.InstancesOf("Dog")); got != 2 {
		t.Errorf("InstancesOf(Dog) = %d, want 2", got)
	}
	threeLegged := kb.Query("Dog", func(in *Instance) bool {
		v, _ := in.Get("Legs")
		return v.N == 3
	})
	if len(threeLegged) != 1 || threeLegged[0].ID != "d2" {
		t.Errorf("Query = %v", threeLegged)
	}
	all := kb.Query("Animal", nil)
	if len(all) != 3 {
		t.Errorf("nil-pred Query = %d", len(all))
	}
	if kb.Instance("d1") == nil || kb.Instance("zzz") != nil {
		t.Error("Instance lookup broken")
	}
	c, i := kb.Stats()
	if c != 2 || i != 3 {
		t.Errorf("Stats = %d,%d", c, i)
	}
}

func TestValidateRefs(t *testing.T) {
	kb := NewKB()
	kb.MustAddClass(&Class{Name: "Team", Slots: []Slot{
		{Name: "Lead", Kind: KindRef, RefClass: "Person"},
		{Name: "Members", Kind: KindList, RefClass: "Person"},
		{Name: "Tags", Kind: KindList}, // untyped list: not checked
	}})
	kb.MustAddClass(&Class{Name: "Person", Slots: []Slot{{Name: "Name", Kind: KindString}}})
	kb.MustAddInstance(NewInstance("p1", "Person").Set("Name", Str("Ann")))
	kb.MustAddInstance(NewInstance("t1", "Team").
		Set("Lead", Ref("p1")).
		Set("Members", List("p1", "ghost")).
		Set("Tags", List("not-an-instance")))
	kb.MustAddInstance(NewInstance("t2", "Team").Set("Lead", Ref("t1"))) // wrong class

	errs := kb.ValidateRefs()
	if len(errs) != 2 {
		t.Fatalf("ValidateRefs = %d errors (%v), want 2", len(errs), errs)
	}
	joined := ""
	for _, e := range errs {
		joined += e.Error() + "\n"
	}
	if !strings.Contains(joined, "ghost") || !strings.Contains(joined, "want \"Person\"") {
		t.Errorf("errors = %s", joined)
	}
}

func TestValueHelpers(t *testing.T) {
	if Str("a").Text() != "a" || Num(2.5).Text() != "2.5" || Boolean(true).Text() != "true" {
		t.Error("Text mismatch")
	}
	if Ref("i1").Kind != KindRef || Ref("i1").Text() != "i1" {
		t.Error("Ref mismatch")
	}
	if List("a", "b").Text() != "{a, b}" {
		t.Errorf("List Text = %q", List("a", "b").Text())
	}
	if !Str("a").Equal(Str("a")) || Str("a").Equal(Str("b")) || Str("a").Equal(Num(1)) {
		t.Error("Equal strings")
	}
	if !List("a").Equal(List("a")) || List("a").Equal(List("a", "b")) || List("a").Equal(List("b")) {
		t.Error("Equal lists")
	}
	if !Num(1).Equal(Num(1)) || !Boolean(true).Equal(Boolean(true)) || Boolean(true).Equal(Boolean(false)) {
		t.Error("Equal scalars")
	}
	for _, k := range []ValueKind{KindString, KindNumber, KindBool, KindRef, KindList, ValueKind(42)} {
		if k.String() == "" {
			t.Errorf("ValueKind(%d).String() empty", k)
		}
	}
}

func TestInstanceHelpers(t *testing.T) {
	in := &Instance{ID: "x", Class: "C"}
	in.Set("a", Str("v"))
	if v, ok := in.Get("a"); !ok || v.S != "v" {
		t.Error("Set/Get on zero-map instance")
	}
	if in.Text("a") != "v" || in.Text("missing") != "" {
		t.Error("Text mismatch")
	}
}

func TestGridShell(t *testing.T) {
	kb := GridShell()
	classes, instances := kb.Stats()
	if classes != 10 {
		t.Errorf("grid shell classes = %d, want 10 (Figure 12)", classes)
	}
	if instances != 0 {
		t.Errorf("shell has %d instances, want 0", instances)
	}
	// Spot-check figure slots.
	checks := map[string][]string{
		ClassTask:               {"ID", "Name", "Owner", "Status", "CaseDescription", "ProcessDescription", "NeedPlanning"},
		ClassActivity:           {"ID", "ServiceName", "Type", "InputDataSet", "DirectPredecessorSet", "RetryCount"},
		ClassData:               {"Name", "Classification", "Size", "Format", "AccessRight"},
		ClassService:            {"Name", "InputCondition", "OutputCondition", "Cost", "Resource"},
		ClassResource:           {"Name", "NumberOfNodes", "Hardware", "Software"},
		ClassHardware:           {"Speed", "Bandwidth", "Latency"},
		ClassSoftware:           {"Name", "Version"},
		ClassTransition:         {"ID", "SourceActivity", "DestinationActivity"},
		ClassCaseDescription:    {"InitialDataSet", "ResultSet", "GoalCondition"},
		ClassProcessDescription: {"ActivitySet", "TransitionSet", "Creator"},
	}
	for class, slots := range checks {
		c := kb.Class(class)
		if c == nil {
			t.Errorf("class %s missing", class)
			continue
		}
		own := map[string]Slot{}
		for _, s := range c.Slots {
			own[s.Name] = s
		}
		for _, s := range slots {
			if _, ok := own[s]; !ok {
				t.Errorf("class %s missing slot %s", class, s)
			}
		}
		// Activity.Type enumerates the seven kinds.
		if class == ClassActivity && len(own["Type"].Allowed) != 7 {
			t.Errorf("Activity.Type allowed = %v", own["Type"].Allowed)
		}
	}
}

func TestShellCopyIsIndependent(t *testing.T) {
	kb := GridShell()
	kb.MustAddInstance(NewInstance("hw1", ClassHardware).Set("Speed", Num(2)))
	shell := kb.Shell()
	if _, i := shell.Stats(); i != 0 {
		t.Error("Shell() carried instances")
	}
	shell.Class(ClassHardware).Slots[0].Name = "Mutated"
	if kb.Class(ClassHardware).Slots[0].Name == "Mutated" {
		t.Error("Shell() shares slot storage")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	kb := GridShell()
	kb.MustAddInstance(NewInstance("hw1", ClassHardware).
		Set("Speed", Num(2.5)).Set("Type", Str("CPU")))
	kb.MustAddInstance(NewInstance("sw1", ClassSoftware).
		Set("Name", Str("P3DR")).Set("Version", Str("2.1")))
	kb.MustAddInstance(NewInstance("r1", ClassResource).
		Set("Name", Str("cluster-a")).
		Set("Hardware", Ref("hw1")).
		Set("Software", List("sw1")).
		Set("NumberOfNodes", Num(64)))

	data, err := kb.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v\n%s", err, data)
	}
	c1, i1 := kb.Stats()
	c2, i2 := back.Stats()
	if c1 != c2 || i1 != i2 {
		t.Fatalf("round trip stats %d/%d vs %d/%d", c1, i1, c2, i2)
	}
	r1 := back.Instance("r1")
	if v, _ := r1.Get("Hardware"); v.S != "hw1" {
		t.Errorf("r1.Hardware = %v", v)
	}
	if v, _ := r1.Get("NumberOfNodes"); v.N != 64 {
		t.Errorf("r1.NumberOfNodes = %v", v)
	}
	if errs := back.ValidateRefs(); len(errs) != 0 {
		t.Errorf("refs after round trip: %v", errs)
	}
	// Second marshal is byte-identical (determinism).
	data2, err := back.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("marshal not deterministic")
	}
}

func TestDecodeErrors(t *testing.T) {
	for _, src := range []string{
		`{`,
		`{"classes":[{"name":"A","slots":[{"name":"s","kind":"weird"}]}]}`,
		`{"classes":[{"name":"A","slots":[]},{"name":"A","slots":[]}]}`,
		`{"classes":[{"name":"A","slots":[]}],"instances":[{"id":"i","class":"B","values":{}}]}`,
		`{"classes":[{"name":"A","slots":[{"name":"s","kind":"string"}]}],"instances":[{"id":"i","class":"A","values":{"s":{"kind":"weird"}}}]}`,
	} {
		if _, err := Decode([]byte(src)); err == nil {
			t.Errorf("Decode(%q) succeeded", src)
		}
	}
}

func BenchmarkShellBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GridShell()
	}
}

func BenchmarkQuery(b *testing.B) {
	kb := animalKB(&testing.T{})
	for i := 0; i < 500; i++ {
		kb.MustAddInstance(NewInstance(
			"d"+string(rune('a'+i%26))+string(rune('a'+(i/26)%26))+string(rune('a'+i/676)),
			"Dog").Set("Name", Str("x")).Set("Legs", Num(float64(i%5))))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kb.Query("Dog", func(in *Instance) bool {
			v, _ := in.Get("Legs")
			return v.N == 3
		})
	}
}
