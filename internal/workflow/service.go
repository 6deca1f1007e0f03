package workflow

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/expr"
)

// ParamSpec is one formal input parameter of a service, with the condition a
// bound data item must satisfy. The formal Name is the object the condition
// refers to, as in the paper's C1: A.Classification = "POD-Parameter".
type ParamSpec struct {
	Name      string
	Condition string

	once     sync.Once
	compiled expr.Node
	err      error
}

// compile parses the condition once and caches it. Services are shared by
// concurrent dispatch batches, so the cache fill must be synchronized.
func (p *ParamSpec) compile() (expr.Node, error) {
	p.once.Do(func() { p.compiled, p.err = expr.Parse(p.Condition) })
	return p.compiled, p.err
}

// OutputSpec describes one data item a service produces: the formal name and
// the metadata properties stamped onto the new item (its postcondition, as
// in C2: C.Type = "Orientation File").
type OutputSpec struct {
	Name  string
	Props map[string]expr.Value
}

// Service is an end-user computing service specification: the element of the
// set T in the planning problem P = {Sinit, G, T}. Pre- and postconditions
// follow Section 3.1.
type Service struct {
	Name    string
	Inputs  []ParamSpec
	Outputs []OutputSpec

	// BaseTime is the nominal execution time in simulated seconds on a
	// reference node (speed 1.0); Cost is the spot-market cost per run.
	BaseTime float64
	Cost     float64
}

// Validate checks that every input condition parses.
func (s *Service) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workflow: service with empty name")
	}
	for i := range s.Inputs {
		if _, err := s.Inputs[i].compile(); err != nil {
			return fmt.Errorf("workflow: service %s input %s: %w", s.Name, s.Inputs[i].Name, err)
		}
	}
	for _, o := range s.Outputs {
		if o.Name == "" {
			return fmt.Errorf("workflow: service %s has unnamed output", s.Name)
		}
	}
	return nil
}

// itemList implements expr.Env over an ordered collection of data items by
// linear scan: the fallback environment of BindItems, which resolves
// conditions that name a data item instead of a formal.
type itemList []*DataItem

// Lookup implements expr.Env over the list.
func (l itemList) Lookup(obj, prop string) (expr.Value, bool) {
	for _, it := range l {
		if it.Name == obj {
			return it.Prop(prop)
		}
	}
	return expr.Value{}, false
}

// Bind searches for an injective assignment of distinct state items to the
// service's input parameters such that every parameter condition holds. It
// returns the chosen binding (formal name -> item) and whether one exists.
// Distinctness matters: PSF needs two different 3D models (C7 binds B and C
// to different items).
//
// The search is deterministic: items are tried in sorted-name order, so the
// same state always yields the same binding.
func (s *Service) Bind(st *State) (map[string]*DataItem, bool) {
	return s.BindItems(st.Items())
}

// BindItems is Bind over an explicit item list, tried in list order.
func (s *Service) BindItems(items []*DataItem) (map[string]*DataItem, bool) {
	b := binder{
		inputs: s.Inputs,
		items:  items,
		chosen: make(map[string]*DataItem, len(s.Inputs)),
		picked: make([]*DataItem, 0, len(s.Inputs)),
	}
	// Boxed once: every candidate of every input evaluates against it.
	b.env = Binding{Formals: b.chosen, Base: itemList(items)}
	if b.bind(0) {
		return b.chosen, true
	}
	return nil, false
}

// binder is the state of one BindItems search.
type binder struct {
	inputs []ParamSpec
	items  []*DataItem
	chosen map[string]*DataItem // the binding under test, by formal name
	picked []*DataItem          // the items bound to inputs[:i], at depth i
	env    expr.Env             // chosen over items
}

// bind extends the binding to inputs[i:].
func (b *binder) bind(i int) bool {
	if i == len(b.inputs) {
		return true
	}
	p := &b.inputs[i]
	cond, err := p.compile()
	if err != nil {
		return false
	}
next:
	for _, it := range b.items {
		for _, u := range b.picked {
			if u == it {
				continue next
			}
		}
		b.chosen[p.Name] = it
		if cond.Eval(b.env) {
			b.picked = append(b.picked, it)
			if b.bind(i + 1) {
				return true
			}
			b.picked = b.picked[:len(b.picked)-1]
		}
		delete(b.chosen, p.Name)
	}
	return false
}

// Produce builds the output items of one application. Output names are
// taken from names (parallel to s.Outputs) when provided, otherwise
// generated from seq.
func (s *Service) Produce(names []string, seq int) []*DataItem {
	out := make([]*DataItem, len(s.Outputs))
	for i, o := range s.Outputs {
		name := ""
		if i < len(names) && names[i] != "" {
			name = names[i]
		} else {
			name = fmt.Sprintf("%s.%s.%d", s.Name, o.Name, seq)
		}
		item := &DataItem{Name: name, Props: make(map[string]expr.Value, len(o.Props)+1)}
		for k, v := range o.Props {
			item.Props[k] = v
		}
		if _, ok := item.Props[PropCreator]; !ok {
			item.Props[PropCreator] = expr.String(s.Name)
		}
		out[i] = item
	}
	return out
}

// Applicable reports whether the service's preconditions are met in st.
func (s *Service) Applicable(st *State) bool {
	_, ok := s.Bind(st)
	return ok
}

// Apply executes the service against st in the metadata sense: it checks the
// preconditions and, if met, adds one new data item per output spec. Output
// item names are taken from names (parallel to s.Outputs) when provided;
// otherwise they are generated as "<service>.<formal>.<seq>" using seq.
// It returns the new state and whether the activity was valid. st is not
// modified.
func (s *Service) Apply(st *State, names []string, seq int) (*State, bool) {
	if _, ok := s.Bind(st); !ok {
		return st, false
	}
	next := st.Clone()
	for _, item := range s.Produce(names, seq) {
		next.Put(item)
	}
	return next, true
}

// Catalog is the complete set T of end-user services available to the grid
// computing system, keyed by name.
type Catalog struct {
	services map[string]*Service
}

// NewCatalog builds a catalog from the given services.
func NewCatalog(services ...*Service) *Catalog {
	c := &Catalog{services: make(map[string]*Service, len(services))}
	for _, s := range services {
		c.services[s.Name] = s
	}
	return c
}

// Add registers (or replaces) a service.
func (c *Catalog) Add(s *Service) {
	if c.services == nil {
		c.services = make(map[string]*Service)
	}
	c.services[s.Name] = s
}

// Get returns the named service, or nil.
func (c *Catalog) Get(name string) *Service { return c.services[name] }

// Len returns the number of services.
func (c *Catalog) Len() int { return len(c.services) }

// Names returns the service names sorted.
func (c *Catalog) Names() []string {
	names := make([]string, 0, len(c.services))
	for n := range c.services {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Services returns the services sorted by name.
func (c *Catalog) Services() []*Service {
	names := c.Names()
	out := make([]*Service, len(names))
	for i, n := range names {
		out[i] = c.services[n]
	}
	return out
}

// Validate validates every service in the catalog.
func (c *Catalog) Validate() error {
	for _, s := range c.Services() {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Goal is the goal specification G of a planning problem: a set of
// conditions, each of which must be satisfied by some data item in the final
// state. Each condition is expressed over the formal object G (for example
// `G.Classification = "Resolution File"`).
type Goal struct {
	Conditions []string
}

// NewGoal builds a goal from condition sources.
func NewGoal(conditions ...string) Goal { return Goal{Conditions: conditions} }

// Satisfied returns how many of the goal conditions hold in st, and the
// total number of conditions. A condition holds if at least one data item,
// bound to the formal object "G", satisfies it.
func (g Goal) Satisfied(st *State) (met, total int) {
	total = len(g.Conditions)
	for _, src := range g.Conditions {
		node, err := expr.Parse(src)
		if err != nil {
			continue
		}
		for _, it := range st.Items() {
			if node.Eval(Binding{Formals: map[string]*DataItem{"G": it}, Base: st}) {
				met++
				break
			}
		}
	}
	return met, total
}

// Fitness returns the goal fitness fg of Equation 2: the fraction of goal
// specifications the final state satisfies.
func (g Goal) Fitness(st *State) float64 {
	met, total := g.Satisfied(st)
	if total == 0 {
		return 1
	}
	return float64(met) / float64(total)
}

// Problem is the planning problem P = {Sinit, G, T} of Section 3.2.
type Problem struct {
	Name    string
	Initial *State
	Goal    Goal
	Catalog *Catalog
}

// Validate checks the problem is well formed.
func (p *Problem) Validate() error {
	if p.Initial == nil {
		return fmt.Errorf("workflow: problem %q has nil initial state", p.Name)
	}
	if p.Catalog == nil || p.Catalog.Len() == 0 {
		return fmt.Errorf("workflow: problem %q has empty catalog", p.Name)
	}
	if len(p.Goal.Conditions) == 0 {
		return fmt.Errorf("workflow: problem %q has no goal conditions", p.Name)
	}
	for _, c := range p.Goal.Conditions {
		if _, err := expr.Parse(c); err != nil {
			return fmt.Errorf("workflow: problem %q goal: %w", p.Name, err)
		}
	}
	return p.Catalog.Validate()
}
