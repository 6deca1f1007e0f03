package workflow

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
)

// Standard property names from the Data ontology class (Figure 12). Any
// other property name is legal; these are the ones the paper's conditions
// use.
const (
	PropClassification = "Classification"
	PropSize           = "Size"
	PropLocation       = "Location"
	PropValue          = "value"
	PropFormat         = "Format"
	PropType           = "Type"
	PropOwner          = "Owner"
	PropCreator        = "Creator"
)

// DataItem is one unit of data known to the system, described purely by
// metadata properties (the planner and coordinator never see contents).
type DataItem struct {
	Name  string
	Props map[string]expr.Value
}

// NewDataItem builds a data item with the given classification, the property
// nearly every condition in the paper tests.
func NewDataItem(name, classification string) *DataItem {
	return &DataItem{
		Name:  name,
		Props: map[string]expr.Value{PropClassification: expr.String(classification)},
	}
}

// With sets property prop to v and returns the item, for chained literals.
func (d *DataItem) With(prop string, v expr.Value) *DataItem {
	if d.Props == nil {
		d.Props = make(map[string]expr.Value)
	}
	d.Props[prop] = v
	return d
}

// Prop returns the named property.
func (d *DataItem) Prop(prop string) (expr.Value, bool) {
	v, ok := d.Props[prop]
	return v, ok
}

// Classification returns the Classification property, or "".
func (d *DataItem) Classification() string {
	if v, ok := d.Props[PropClassification]; ok {
		return v.Str()
	}
	return ""
}

// Clone returns a deep copy of d.
func (d *DataItem) Clone() *DataItem {
	props := make(map[string]expr.Value, len(d.Props))
	for k, v := range d.Props {
		props[k] = v
	}
	return &DataItem{Name: d.Name, Props: props}
}

func (d *DataItem) String() string {
	keys := make([]string, 0, len(d.Props))
	for k := range d.Props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%s", k, d.Props[k].Str())
	}
	return fmt.Sprintf("%s{%s}", d.Name, strings.Join(parts, ", "))
}

// State is the system state of the planning formalism (Section 3.2): the set
// of data items currently available, with their specifications. States are
// value-like: Clone before mutating a shared one.
type State struct {
	items map[string]*DataItem
}

// NewState builds a state holding the given items.
func NewState(items ...*DataItem) *State {
	s := &State{items: make(map[string]*DataItem, len(items))}
	for _, it := range items {
		s.items[it.Name] = it
	}
	return s
}

// Put inserts or replaces an item.
func (s *State) Put(item *DataItem) {
	if s.items == nil {
		s.items = make(map[string]*DataItem)
	}
	s.items[item.Name] = item
}

// Get returns the named item, or nil.
func (s *State) Get(name string) *DataItem { return s.items[name] }

// Has reports whether the named item exists.
func (s *State) Has(name string) bool { return s.items[name] != nil }

// Len returns the number of items.
func (s *State) Len() int { return len(s.items) }

// Names returns the item names in sorted order (deterministic iteration).
func (s *State) Names() []string {
	names := make([]string, 0, len(s.items))
	for n := range s.items {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Items returns the items sorted by name.
func (s *State) Items() []*DataItem {
	names := s.Names()
	items := make([]*DataItem, len(names))
	for i, n := range names {
		items[i] = s.items[n]
	}
	return items
}

// Clone returns a deep copy of s.
func (s *State) Clone() *State {
	c := &State{items: make(map[string]*DataItem, len(s.items))}
	for n, it := range s.items {
		c.items[n] = it.Clone()
	}
	return c
}

// Lookup implements expr.Env over the items by name, so conditions like
// D10.Classification = "Resolution File" evaluate directly against a state.
func (s *State) Lookup(obj, prop string) (expr.Value, bool) {
	it := s.items[obj]
	if it == nil {
		return expr.Value{}, false
	}
	return it.Prop(prop)
}

func (s *State) String() string {
	items := s.Items()
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = it.String()
	}
	return "state[" + strings.Join(parts, "; ") + "]"
}

// Binding maps formal parameter names (the A, B, C, ... of conditions C1-C8)
// to concrete data items; it layers over a State for expression evaluation.
type Binding struct {
	Formals map[string]*DataItem
	Base    expr.Env // optional fallback (usually the State)
}

// Lookup implements expr.Env: formals shadow the base environment.
func (b Binding) Lookup(obj, prop string) (expr.Value, bool) {
	if it, ok := b.Formals[obj]; ok && it != nil {
		return it.Prop(prop)
	}
	if b.Base != nil {
		return b.Base.Lookup(obj, prop)
	}
	return expr.Value{}, false
}
