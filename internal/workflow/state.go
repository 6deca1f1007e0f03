package workflow

import (
	"maps"
	"slices"
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
	PropCreator        = "Creator"
)

// DataItem is one unit of data known to the system, described purely by
// metadata properties (the planner and coordinator never see contents).
//
// Props is read-only once the item is published: items produced from one
// output spec, and an item and its clones, share one map. With is the one
// way to change a property; it gives the item a map of its own.
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
// It never writes the map the item holds, which may be shared: it replaces it
// with a copy that has the property set.
func (d *DataItem) With(prop string, v expr.Value) *DataItem {
	props := make(map[string]expr.Value, len(d.Props)+1)
	maps.Copy(props, d.Props)
	props[prop] = v
	d.Props = props
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

// Clone returns a copy of d that shares its read-only property map; a With
// on either leaves the other as it was.
func (d *DataItem) Clone() *DataItem { return &DataItem{Name: d.Name, Props: d.Props} }

func (d *DataItem) String() string { return string(d.Append(nil)) }

// Append appends d as String renders it, Name{prop=value, ...} by name, to b.
func (d *DataItem) Append(b []byte) []byte {
	keys := make([]string, 0, 8)
	for k := range d.Props {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(append(b, d.Name...), '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = d.Props[k].AppendStr(append(append(b, k...), '='))
	}
	return append(b, '}')
}

// State is the system state of the planning formalism (Section 3.2): the set
// of data items currently available, with their specifications. Items are
// kept in name order as they are Put, so ordered iteration — the candidate
// order of every binding search — allocates nothing. States are value-like:
// Clone before mutating a shared one.
//
// An item is never written once it is in a State: Put replaces an item
// rather than editing it, and a service's outputs are final (the
// coordinator's PostProcess hook sees them before they are Put). So a state
// may share its items with the case it started from.
type State struct {
	items []*DataItem // ascending by Name, names unique
}

// NewState builds a state holding the given items.
func NewState(items ...*DataItem) *State {
	s := &State{items: make([]*DataItem, 0, len(items))}
	for _, it := range items {
		s.Put(it)
	}
	return s
}

// find returns where the named item is, or would be inserted.
func (s *State) find(name string) (int, bool) {
	return slices.BinarySearchFunc(s.items, name, func(it *DataItem, name string) int {
		return strings.Compare(it.Name, name)
	})
}

// Put inserts or replaces an item.
func (s *State) Put(item *DataItem) {
	i, found := s.find(item.Name)
	if found {
		s.items[i] = item
		return
	}
	s.items = slices.Insert(s.items, i, item)
}

// Get returns the named item, or nil.
func (s *State) Get(name string) *DataItem {
	if i, found := s.find(name); found {
		return s.items[i]
	}
	return nil
}

// Names returns the item names in sorted order.
func (s *State) Names() []string {
	names := make([]string, len(s.items))
	for i, it := range s.items {
		names[i] = it.Name
	}
	return names
}

// Items returns the items sorted by name; the slice is the caller's.
func (s *State) Items() []*DataItem { return slices.Clone(s.items) }

// ItemStrings returns each item as its String renders it, in name order. The
// renderings are cut from one string, so the result costs that string and
// the slice, not a string per item.
func (s *State) ItemStrings() []string {
	if len(s.items) == 0 {
		return nil
	}
	var scratch [2048]byte
	var endScratch [64]int
	b, ends := scratch[:0], endScratch[:0]
	for _, it := range s.items {
		b = it.Append(b)
		ends = append(ends, len(b))
	}
	all := string(b)
	out := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		out[i], start = all[start:end], end
	}
	return out
}

// Clone returns a copy of s holding a Clone of each item.
func (s *State) Clone() *State {
	c := &State{items: make([]*DataItem, len(s.items))}
	for i, it := range s.items {
		c.items[i] = it.Clone()
	}
	return c
}

// Lookup implements expr.Env over the items by name, so conditions like
// D10.Classification = "Resolution File" evaluate directly against a state.
func (s *State) Lookup(obj, prop string) (expr.Value, bool) {
	it := s.Get(obj)
	if it == nil {
		return expr.Value{}, false
	}
	return it.Prop(prop)
}

func (s *State) String() string {
	parts := make([]string, len(s.items))
	for i, it := range s.items {
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
