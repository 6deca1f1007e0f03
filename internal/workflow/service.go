package workflow

import (
	"fmt"
	"maps"
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

	// props holds, per output spec, the property map of every item Produce
	// makes from it: the spec's props plus Creator, built on the first
	// Produce. Items share it, so nothing may write it.
	propsOnce sync.Once
	props     []map[string]expr.Value
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

// Applicable reports whether the service's preconditions are met in st:
// whether an injective assignment of distinct items of st to the service's
// input parameters makes every parameter condition hold. Distinctness
// matters: PSF needs two different 3D models (C7 binds B and C to different
// items).
func (s *Service) Applicable(st *State) bool {
	b := getBinder(s.Inputs, st.items)
	defer b.release()
	return b.bind(0)
}

// binder is the state of one binding search, and the environment its
// conditions evaluate in: picked[i] is the item bound to inputs[i], the last
// one being the candidate under test.
type binder struct {
	inputs []ParamSpec
	items  []*DataItem
	picked []*DataItem
	buf    [4]*DataItem // backs picked; wider services spill to the heap
}

// binders recycles binding searches: a binder is the expr.Env its conditions
// evaluate in, so it lives on the heap, and a search runs on every dispatch.
var binders = sync.Pool{New: func() any { return new(binder) }}

// getBinder starts a search over items; release hands it back.
func getBinder(inputs []ParamSpec, items []*DataItem) *binder {
	b := binders.Get().(*binder)
	b.inputs, b.items, b.picked = inputs, items, b.buf[:0]
	return b
}

func (b *binder) release() {
	*b = binder{} // holds no item past the search
	binders.Put(b)
}

// Lookup implements expr.Env: a formal bound so far shadows a data item of
// the same name (the latest binding of a repeated formal wins); any other
// object is a data item of the list, by name.
func (b *binder) Lookup(obj, prop string) (expr.Value, bool) {
	for i := len(b.picked) - 1; i >= 0; i-- {
		if b.inputs[i].Name == obj {
			return b.picked[i].Prop(prop)
		}
	}
	for _, it := range b.items {
		if it.Name == obj {
			return it.Prop(prop)
		}
	}
	return expr.Value{}, false
}

// bind extends the binding to inputs[i:].
func (b *binder) bind(i int) bool {
	if i == len(b.inputs) {
		return true
	}
	cond, err := b.inputs[i].compile()
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
		b.picked = append(b.picked, it)
		if cond.Eval(b) && b.bind(i+1) {
			return true
		}
		b.picked = b.picked[:i]
	}
	return false
}

// Produce builds the output items of one application. Output names are
// taken from names (parallel to s.Outputs) when provided, otherwise
// generated from seq. The items of one output spec share one property map.
func (s *Service) Produce(names []string, seq int) []*DataItem {
	out, props := make([]*DataItem, len(s.Outputs)), s.outputProps()
	for i, o := range s.Outputs {
		name := ""
		if i < len(names) && names[i] != "" {
			name = names[i]
		} else {
			name = fmt.Sprintf("%s.%s.%d", s.Name, o.Name, seq)
		}
		out[i] = &DataItem{Name: name, Props: props[i]}
	}
	return out
}

// outputProps returns the property map of each output spec's items, built
// once per service on the first call. Not in Catalog.Add: the planning
// service adds services into catalogs of its own while they are producing.
func (s *Service) outputProps() []map[string]expr.Value {
	s.propsOnce.Do(func() {
		s.props = make([]map[string]expr.Value, len(s.Outputs))
		for i, o := range s.Outputs {
			props := make(map[string]expr.Value, len(o.Props)+1)
			props[PropCreator] = expr.String(s.Name)
			maps.Copy(props, o.Props) // a spec's own Creator wins
			s.props[i] = props
		}
	})
	return s.props
}

// Apply executes the service against st in the metadata sense: it checks the
// preconditions and, if met, adds one new data item per output spec. Output
// item names are taken from names (parallel to s.Outputs) when provided;
// otherwise they are generated as "<service>.<formal>.<seq>" using seq.
// It returns the new state and whether the activity was valid. st is not
// modified.
func (s *Service) Apply(st *State, names []string, seq int) (*State, bool) {
	if !s.Applicable(st) {
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

	// nodes holds the conditions as NewGoal parsed them, nil where one does
	// not parse.
	nodes []expr.Node
}

// NewGoal builds a goal from condition sources, parsing each once. It is the
// only way to build one that can be met.
func NewGoal(conditions ...string) Goal {
	g := Goal{Conditions: conditions, nodes: make([]expr.Node, len(conditions))}
	for i, src := range conditions {
		g.nodes[i], _ = expr.Parse(src) // a condition that does not parse is never met
	}
	return g
}

// goalFormal is the one formal of a goal condition: the object G.
var goalFormal = []ParamSpec{{Name: "G"}}

// Satisfied returns how many of the goal conditions hold in st, and the
// total number of conditions. A condition holds if at least one data item,
// bound to the formal object "G", satisfies it.
func (g Goal) Satisfied(st *State) (met, total int) {
	env := getBinder(goalFormal, st.items)
	defer env.release()
	env.picked = env.picked[:1]
	for _, node := range g.nodes {
		if node == nil {
			continue
		}
		for _, it := range st.items {
			if env.picked[0] = it; node.Eval(env) {
				met++
				break
			}
		}
	}
	return met, len(g.Conditions)
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
