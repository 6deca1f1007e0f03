// Package ontology implements the frame-based metainformation store the
// paper builds with Protégé (Section 6, Figures 12-13): classes with typed
// slots, single inheritance, and instances validated against their class.
// The ontology service distributes "ontology shells" (classes and slots
// without instances) as well as populated ontologies; this package models
// both, with JSON as the interchange form.
package ontology

import (
	"fmt"
	"sort"
	"strings"
)

// ValueKind discriminates slot value types.
type ValueKind int

// Slot value kinds. KindRef holds the ID of another instance; KindList holds
// an ordered list of strings or instance IDs (the paper's "Set" and "Order"
// slots).
const (
	KindString ValueKind = iota
	KindNumber
	KindBool
	KindRef
	KindList
)

func (k ValueKind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindNumber:
		return "number"
	case KindBool:
		return "bool"
	case KindRef:
		return "ref"
	case KindList:
		return "list"
	}
	return fmt.Sprintf("ValueKind(%d)", int(k))
}

// Value is a slot value.
type Value struct {
	Kind ValueKind
	S    string   // KindString payload, or KindRef instance ID
	N    float64  // KindNumber payload
	B    bool     // KindBool payload
	L    []string // KindList payload
}

// Str returns a string Value.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Num returns a numeric Value.
func Num(n float64) Value { return Value{Kind: KindNumber, N: n} }

// Boolean returns a boolean Value.
func Boolean(b bool) Value { return Value{Kind: KindBool, B: b} }

// Ref returns a reference Value pointing at the instance with the given ID.
func Ref(id string) Value { return Value{Kind: KindRef, S: id} }

// List returns a list Value.
func List(items ...string) Value { return Value{Kind: KindList, L: items} }

// Text renders the value for display.
func (v Value) Text() string {
	switch v.Kind {
	case KindString, KindRef:
		return v.S
	case KindNumber:
		return fmt.Sprintf("%g", v.N)
	case KindBool:
		return fmt.Sprintf("%t", v.B)
	case KindList:
		return "{" + strings.Join(v.L, ", ") + "}"
	}
	return ""
}

// Slot describes one property of a class: its value type and facets.
type Slot struct {
	Name     string
	Kind     ValueKind
	Required bool

	// Allowed restricts string slots to an enumerated set (a Protégé
	// "allowed values" facet). Empty means unrestricted.
	Allowed []string

	// RefClass names the class a KindRef slot (or the elements of a
	// KindList slot holding instance IDs) must point to. Empty means
	// untyped references / plain string lists.
	RefClass string
}

// Class is a frame: a named set of slots, optionally inheriting from a
// parent class.
type Class struct {
	Name   string
	Parent string // empty for root classes
	Doc    string
	Slots  []Slot
}

// Instance is a populated frame.
type Instance struct {
	ID     string
	Class  string
	Values map[string]Value
}

// NewInstance builds an empty instance of the given class.
func NewInstance(id, class string) *Instance {
	return &Instance{ID: id, Class: class, Values: make(map[string]Value)}
}

// Set assigns a slot value and returns the instance for chaining.
func (in *Instance) Set(slot string, v Value) *Instance {
	if in.Values == nil {
		in.Values = make(map[string]Value)
	}
	in.Values[slot] = v
	return in
}

// Text returns the slot's display text, or "" when unset.
func (in *Instance) Text(slot string) string {
	if v, ok := in.Values[slot]; ok {
		return v.Text()
	}
	return ""
}

// KB is a knowledge base: a set of classes (the shell) plus instances.
type KB struct {
	classes   map[string]*Class
	instances map[string]*Instance
	order     []string // class insertion order, for deterministic dumps
}

// NewKB returns an empty knowledge base.
func NewKB() *KB {
	return &KB{
		classes:   make(map[string]*Class),
		instances: make(map[string]*Instance),
	}
}

// AddClass registers a class. The parent, if named, must already exist;
// redefinition is an error.
func (kb *KB) AddClass(c *Class) error {
	if c.Name == "" {
		return fmt.Errorf("ontology: class with empty name")
	}
	if _, dup := kb.classes[c.Name]; dup {
		return fmt.Errorf("ontology: class %q already defined", c.Name)
	}
	if c.Parent != "" {
		if _, ok := kb.classes[c.Parent]; !ok {
			return fmt.Errorf("ontology: class %q has unknown parent %q", c.Name, c.Parent)
		}
	}
	seen := map[string]bool{}
	for _, s := range c.Slots {
		if s.Name == "" {
			return fmt.Errorf("ontology: class %q has a slot with empty name", c.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("ontology: class %q redeclares slot %q", c.Name, s.Name)
		}
		seen[s.Name] = true
	}
	kb.classes[c.Name] = c
	kb.order = append(kb.order, c.Name)
	return nil
}

// MustAddClass is AddClass that panics on error, for building shells.
func (kb *KB) MustAddClass(c *Class) {
	if err := kb.AddClass(c); err != nil {
		panic(err)
	}
}

// Classes returns the classes in definition order.
func (kb *KB) Classes() []*Class {
	out := make([]*Class, 0, len(kb.order))
	for _, n := range kb.order {
		out = append(out, kb.classes[n])
	}
	return out
}

// IsSubclass reports whether class sub equals or transitively inherits from
// super.
func (kb *KB) IsSubclass(sub, super string) bool {
	for cur := sub; cur != ""; {
		if cur == super {
			return true
		}
		c := kb.classes[cur]
		if c == nil {
			return false
		}
		cur = c.Parent
	}
	return false
}

// EffectiveSlots returns the slots of the class including inherited ones
// (parent slots first); a slot redefined in a subclass overrides the
// inherited definition.
func (kb *KB) EffectiveSlots(class string) []Slot {
	var chain []*Class
	for cur := class; cur != ""; {
		c := kb.classes[cur]
		if c == nil {
			break
		}
		chain = append(chain, c)
		cur = c.Parent
	}
	var out []Slot
	seen := map[string]int{}
	for i := len(chain) - 1; i >= 0; i-- {
		for _, s := range chain[i].Slots {
			if at, ok := seen[s.Name]; ok {
				out[at] = s
				continue
			}
			seen[s.Name] = len(out)
			out = append(out, s)
		}
	}
	return out
}

// effectiveSlot returns the effective slot named name for class, or nil.
func (kb *KB) effectiveSlot(class, name string) *Slot {
	slots := kb.EffectiveSlots(class)
	for i := range slots {
		if slots[i].Name == name {
			return &slots[i]
		}
	}
	return nil
}

// AddInstance validates and stores an instance. Reference targets are NOT
// required to exist yet (ontologies are populated incrementally); call
// ValidateRefs once the KB is complete.
func (kb *KB) AddInstance(in *Instance) error {
	if in.ID == "" {
		return fmt.Errorf("ontology: instance with empty ID")
	}
	if _, dup := kb.instances[in.ID]; dup {
		return fmt.Errorf("ontology: instance %q already defined", in.ID)
	}
	if err := kb.checkInstance(in); err != nil {
		return err
	}
	kb.instances[in.ID] = in
	return nil
}

// checkInstance validates slots against the class definition.
func (kb *KB) checkInstance(in *Instance) error {
	cls := kb.classes[in.Class]
	if cls == nil {
		return fmt.Errorf("ontology: instance %q of unknown class %q", in.ID, in.Class)
	}
	slots := kb.EffectiveSlots(in.Class)
	byName := make(map[string]*Slot, len(slots))
	for i := range slots {
		byName[slots[i].Name] = &slots[i]
	}
	names := make([]string, 0, len(in.Values))
	for n := range in.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := in.Values[n]
		s := byName[n]
		if s == nil {
			return fmt.Errorf("ontology: instance %q sets unknown slot %q of class %q", in.ID, n, in.Class)
		}
		if v.Kind != s.Kind {
			return fmt.Errorf("ontology: instance %q slot %q: value kind %v, want %v", in.ID, n, v.Kind, s.Kind)
		}
		if s.Kind == KindString && len(s.Allowed) > 0 {
			ok := false
			for _, a := range s.Allowed {
				if v.S == a {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("ontology: instance %q slot %q: %q not in allowed values %v", in.ID, n, v.S, s.Allowed)
			}
		}
	}
	for _, s := range slots {
		if s.Required {
			if _, ok := in.Values[s.Name]; !ok {
				return fmt.Errorf("ontology: instance %q missing required slot %q", in.ID, s.Name)
			}
		}
	}
	return nil
}

// Instance returns the instance with the given ID, or nil.
func (kb *KB) Instance(id string) *Instance { return kb.instances[id] }

// Instances returns every instance sorted by ID.
func (kb *KB) Instances() []*Instance {
	ids := make([]string, 0, len(kb.instances))
	for id := range kb.instances {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Instance, len(ids))
	for i, id := range ids {
		out[i] = kb.instances[id]
	}
	return out
}

// InstancesOf returns the instances whose class is (a subclass of) class,
// sorted by ID.
func (kb *KB) InstancesOf(class string) []*Instance {
	var out []*Instance
	for _, in := range kb.Instances() {
		if kb.IsSubclass(in.Class, class) {
			out = append(out, in)
		}
	}
	return out
}

// Query returns the instances of class (or its subclasses) for which pred
// returns true, sorted by ID.
func (kb *KB) Query(class string, pred func(*Instance) bool) []*Instance {
	var out []*Instance
	for _, in := range kb.InstancesOf(class) {
		if pred == nil || pred(in) {
			out = append(out, in)
		}
	}
	return out
}

// ValidateRefs checks that every KindRef value and every element of a
// KindList slot with a RefClass facet points at an existing instance of the
// right class. It returns all problems found.
func (kb *KB) ValidateRefs() []error {
	var errs []error
	for _, in := range kb.Instances() {
		slots := kb.EffectiveSlots(in.Class)
		for _, s := range slots {
			v, ok := in.Values[s.Name]
			if !ok {
				continue
			}
			check := func(id string) {
				target := kb.instances[id]
				if target == nil {
					errs = append(errs, fmt.Errorf("ontology: %s.%s references missing instance %q", in.ID, s.Name, id))
					return
				}
				if s.RefClass != "" && !kb.IsSubclass(target.Class, s.RefClass) {
					errs = append(errs, fmt.Errorf("ontology: %s.%s references %q of class %q, want %q",
						in.ID, s.Name, id, target.Class, s.RefClass))
				}
			}
			switch {
			case v.Kind == KindRef:
				check(v.S)
			case v.Kind == KindList && s.RefClass != "":
				for _, id := range v.L {
					check(id)
				}
			}
		}
	}
	return errs
}

// Stats returns the number of classes and instances.
func (kb *KB) Stats() (classes, instances int) {
	return len(kb.classes), len(kb.instances)
}
