package ontology

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomKB builds a grid-shell KB populated with random Data and Hardware
// instances.
func randomKB(rng *rand.Rand) *KB {
	kb := GridShell()
	classes := []string{"2D Image", "3D Model", "Orientation File", "Text"}
	n := rng.Intn(20)
	for i := 0; i < n; i++ {
		in := NewInstance(fmt.Sprintf("d%03d", i), ClassData).
			Set("Name", Str(fmt.Sprintf("d%03d", i))).
			Set("Classification", Str(classes[rng.Intn(len(classes))]))
		if rng.Intn(2) == 0 {
			in.Set("Size", Num(float64(rng.Intn(1<<20))))
		}
		kb.MustAddInstance(in)
	}
	m := rng.Intn(5)
	for i := 0; i < m; i++ {
		kb.MustAddInstance(NewInstance(fmt.Sprintf("hw%02d", i), ClassHardware).
			Set("Speed", Num(1+rng.Float64()*3)).
			Set("Type", Str("CPU")))
	}
	return kb
}

// Property: JSON round trip preserves the instance census and every value.
func TestQuickKBRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		kb := randomKB(local)
		data, err := kb.MarshalJSON()
		if err != nil {
			return false
		}
		back, err := Decode(data)
		if err != nil {
			return false
		}
		c1, i1 := kb.Stats()
		c2, i2 := back.Stats()
		if c1 != c2 || i1 != i2 {
			return false
		}
		for _, in := range kb.Instances() {
			other := back.Instance(in.ID)
			if other == nil || other.Class != in.Class || len(other.Values) != len(in.Values) {
				return false
			}
			for slot, v := range in.Values {
				w, ok := other.Values[slot]
				if !ok || !v.Equal(w) {
					return false
				}
			}
		}
		// Second marshal is byte-identical.
		data2, err := back.MarshalJSON()
		return err == nil && string(data) == string(data2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: Query(class, pred) returns exactly the instances of the class
// satisfying pred, sorted by ID.
func TestQuickQuerySemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		kb := randomKB(local)
		pred := func(in *Instance) bool { return in.Text("Classification") == "3D Model" }
		got := kb.Query(ClassData, pred)
		count := 0
		for _, in := range kb.InstancesOf(ClassData) {
			if pred(in) {
				count++
			}
		}
		if len(got) != count {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].ID >= got[i].ID {
				return false
			}
		}
		for _, in := range got {
			if !pred(in) || in.Class != ClassData {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: Shell() strips every instance and never shares slot storage.
func TestQuickShellPurity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		kb := randomKB(local)
		shell := kb.Shell()
		cs, is := shell.Stats()
		co, _ := kb.Stats()
		if cs != co || is != 0 {
			return false
		}
		for _, c := range shell.Classes() {
			if len(c.Slots) > 0 {
				c.Slots[0].Name = "MUTATED"
			}
		}
		for _, c := range kb.Classes() {
			if len(c.Slots) > 0 && c.Slots[0].Name == "MUTATED" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}
