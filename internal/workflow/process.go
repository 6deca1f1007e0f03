package workflow

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/expr"
)

// Activity is one node of a process description. End-user activities name a
// computing Service; flow-control activities direct execution.
type Activity struct {
	ID      string // unique within the process description (e.g. "A3")
	Name    string // display name (e.g. "P3DR1")
	Kind    Kind
	Service string // end-user service type name; empty for flow control

	// Inputs and Outputs list case-level data names, in order (the paper's
	// Input Data Set / Output Data Set with Input/Output Data Order).
	Inputs  []string
	Outputs []string

	// Constraint is a condition-expression source attached to the activity
	// (e.g. Cons1 on the Choice activity of Figure 10). For a Choice it
	// selects among successors together with per-transition conditions.
	Constraint string

	constraint expr.Node // Constraint as the last Validate parsed it
}

// ConstraintNode returns the parsed Constraint (nil: none) once validated.
func (a *Activity) ConstraintNode() expr.Node { return a.constraint }

// Clone returns a deep copy of a.
func (a *Activity) Clone() *Activity {
	b := *a
	b.Inputs = append([]string(nil), a.Inputs...)
	b.Outputs = append([]string(nil), a.Outputs...)
	return &b
}

// Transition is a directed edge between two activities. The optional
// Condition guards transitions out of a Choice activity.
type Transition struct {
	ID        string
	Source    string // source activity ID
	Dest      string // destination activity ID
	Condition string // condition-expression source; empty means always

	cond    expr.Node // condSrc parsed: Validate parses Condition when they differ
	condSrc string
}

// CondNode returns the parsed Condition (nil: none) once validated.
func (t *Transition) CondNode() expr.Node { return t.cond }

// Clone returns a copy of t.
func (t *Transition) Clone() *Transition {
	c := *t
	return &c
}

// ProcessDescription is the formal description of a complex problem: a
// directed graph of activities connected by transitions, starting at a
// single Begin and ending at a single End activity.
type ProcessDescription struct {
	Name        string
	Activities  []*Activity
	Transitions []*Transition

	// The compiled form, built by index(): an activity is its position in
	// Activities, and out[i] and in[i] are the transitions leaving and
	// entering it, both sides one flat list cut into runs.
	indexed bool
	byID    map[string]int32 // ID -> position (the first, if duplicated)
	out, in [][]*Transition

	// spare holds the transitions Grow set aside for the next Connects.
	spare []Transition

	// validated memoizes the last Validate result (validErr); Add and
	// ConnectParsed invalidate it alongside the index. A task's description
	// is validated where it is built (a PDL parse, a JSON decode) and again
	// at admission — on an unchanged graph those are the same answer.
	// The pass keeps what it parsed on the transitions and activities.
	validated bool
	validErr  error
}

// NewProcess returns an empty process description with the given name.
func NewProcess(name string) *ProcessDescription {
	return &ProcessDescription{Name: name}
}

// Add appends an activity and returns it, invalidating the index.
func (p *ProcessDescription) Add(a *Activity) *Activity {
	p.Activities = append(p.Activities, a)
	p.indexed = false
	p.validated = false
	return a
}

// Grow makes room for n more activities and m more transitions: Add appends
// without copying, and the next m Connects take their transitions from one
// array.
func (p *ProcessDescription) Grow(n, m int) {
	p.Activities = slices.Grow(p.Activities, n)
	p.Transitions = slices.Grow(p.Transitions, m)
	p.spare = make([]Transition, m)
}

// Connect appends a transition from src to dst with an auto-generated ID and
// returns it.
func (p *ProcessDescription) Connect(src, dst string) *Transition {
	return p.ConnectParsed(src, dst, "", nil)
}

// ConnectParsed appends a conditional transition from src to dst. node is
// what expr.Parse(cond) returned, and Validate takes it instead of parsing
// cond again; a nil node leaves the parse to Validate.
func (p *ProcessDescription) ConnectParsed(src, dst, cond string, node expr.Node) *Transition {
	var t *Transition
	if len(p.spare) > 0 {
		t, p.spare = &p.spare[0], p.spare[1:]
	} else {
		t = new(Transition)
	}
	*t = Transition{ID: tableID(transitionIDs, "TR", len(p.Transitions)+1), Source: src, Dest: dst, Condition: cond}
	if node != nil {
		t.cond, t.condSrc = node, cond
	}
	p.Transitions = append(p.Transitions, t)
	p.indexed = false
	p.validated = false
	return t
}

// The IDs builders number activities and transitions with, made once:
// numbering one costs no allocation below idTableSize.
const idTableSize = 128

var activityIDs, transitionIDs = idTable("A"), idTable("TR")

func idTable(prefix string) []string {
	ids := make([]string, idTableSize)
	for i := range ids {
		ids[i] = prefix + strconv.Itoa(i)
	}
	return ids
}

func tableID(table []string, prefix string, n int) string {
	if n < len(table) {
		return table[n]
	}
	return prefix + strconv.Itoa(n)
}

// ActivityID returns "A<n>", the ID of the n-th activity plantree.ToProcess
// builds.
func ActivityID(n int) string { return tableID(activityIDs, "A", n) }

// index (re)builds the compiled form: a counting sort of the transitions by
// the position of their source (runs 0..n-1) and of their destination (runs
// n..2n-1), in declaration order within a run. A transition end that is no
// activity is in no run.
func (p *ProcessDescription) index() {
	if p.indexed {
		return
	}
	n := len(p.Activities)
	p.byID = make(map[string]int32, n)
	for i := n - 1; i >= 0; i-- {
		p.byID[p.Activities[i].ID] = int32(i)
	}
	size := make([]int32, 2*n)
	total := 0
	for _, t := range p.Transitions {
		if i := p.pos(t.Source); i >= 0 {
			size[i]++
			total++
		}
		if i := p.pos(t.Dest); i >= 0 {
			size[n+i]++
			total++
		}
	}
	runs, flat := make([][]*Transition, 2*n), make([]*Transition, total)
	for i, k := range size {
		if k > 0 {
			runs[i], flat = flat[:0:k], flat[k:]
		}
	}
	for _, t := range p.Transitions {
		if i := p.pos(t.Source); i >= 0 {
			runs[i] = append(runs[i], t)
		}
		if i := p.pos(t.Dest); i >= 0 {
			runs[n+i] = append(runs[n+i], t)
		}
	}
	p.out, p.in = runs[:n:n], runs[n:]
	p.indexed = true
}

// pos returns the position in Activities of the activity with the given ID
// (the first one, should the ID be duplicated), or -1. The index is built.
func (p *ProcessDescription) pos(id string) int {
	if pos, found := p.byID[id]; found {
		return int(pos)
	}
	return -1
}

// Pos returns the position in Activities of the activity with the given ID, or -1.
func (p *ProcessDescription) Pos(id string) int {
	p.index()
	return p.pos(id)
}

// Activity returns the activity with the given ID, or nil.
func (p *ProcessDescription) Activity(id string) *Activity {
	p.index()
	if pos := p.pos(id); pos >= 0 {
		return p.Activities[pos]
	}
	return nil
}

// Out returns the transitions leaving the activity with the given ID.
func (p *ProcessDescription) Out(id string) []*Transition {
	p.index()
	if pos, found := p.byID[id]; found {
		return p.out[pos]
	}
	return nil
}

// In returns the transitions entering the activity with the given ID.
func (p *ProcessDescription) In(id string) []*Transition {
	p.index()
	if pos, found := p.byID[id]; found {
		return p.in[pos]
	}
	return nil
}

// Begin returns the Begin activity, or nil if absent or duplicated.
func (p *ProcessDescription) Begin() *Activity { return p.uniqueKind(KindBegin) }

// End returns the End activity, or nil if absent or duplicated.
func (p *ProcessDescription) End() *Activity { return p.uniqueKind(KindEnd) }

func (p *ProcessDescription) uniqueKind(k Kind) *Activity {
	var found *Activity
	for _, a := range p.Activities {
		if a.Kind == k {
			if found != nil {
				return nil
			}
			found = a
		}
	}
	return found
}

// CountKind returns the number of activities of kind k.
func (p *ProcessDescription) CountKind(k Kind) int {
	n := 0
	for _, a := range p.Activities {
		if a.Kind == k {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of p.
func (p *ProcessDescription) Clone() *ProcessDescription {
	q := NewProcess(p.Name)
	for _, a := range p.Activities {
		q.Activities = append(q.Activities, a.Clone())
	}
	for _, t := range p.Transitions {
		q.Transitions = append(q.Transitions, t.Clone())
	}
	return q
}

// String renders a compact multi-line summary for logs and tests.
func (p *ProcessDescription) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "process %s: %d activities, %d transitions\n",
		p.Name, len(p.Activities), len(p.Transitions))
	for _, a := range p.Activities {
		fmt.Fprintf(&sb, "  %s %s (%s)", a.ID, a.Name, a.Kind)
		if a.Service != "" {
			fmt.Fprintf(&sb, " service=%s", a.Service)
		}
		sb.WriteByte('\n')
	}
	for _, t := range p.Transitions {
		fmt.Fprintf(&sb, "  %s: %s -> %s", t.ID, t.Source, t.Dest)
		if t.Condition != "" {
			fmt.Fprintf(&sb, " [%s]", t.Condition)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ValidationError aggregates every structural problem found in a process
// description, so callers can report them all at once.
type ValidationError struct {
	Process  string
	Problems []string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("workflow: process %q invalid: %s",
		e.Process, strings.Join(e.Problems, "; "))
}

// Validate checks the structural rules of Section 3.1:
//
//   - exactly one Begin and one End, occurring nowhere else;
//   - per-kind in/out degree constraints (Choice/Fork: 1 in, >=2 out;
//     Join/Merge: >=2 in, 1 out; end-user: 1 in, 1 out);
//   - unique activity and transition IDs, transitions referencing existing
//     activities, no self loops;
//   - every activity reachable from Begin, and End reachable from every
//     activity;
//   - every condition expression parses.
func (p *ProcessDescription) Validate() error {
	if p.validated {
		return p.validErr
	}
	p.index()
	var problems []string
	addf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	parse := func(src, format, id string) expr.Node {
		if src == "" {
			return nil
		}
		node, err := expr.Parse(src)
		if err != nil {
			addf(format, id, err)
		}
		return node
	}

	for i, a := range p.Activities {
		if a.ID == "" {
			addf("activity %q has empty ID", a.Name)
			continue
		}
		if p.pos(a.ID) != i {
			addf("duplicate activity ID %q", a.ID)
		}
		if a.Kind == KindEndUser && a.Service == "" {
			addf("end-user activity %s has no service", a.ID)
		}
		if a.Kind != KindEndUser && a.Service != "" {
			addf("flow-control activity %s names service %q", a.ID, a.Service)
		}
		a.constraint = parse(a.Constraint, "activity %s constraint: %v", a.ID)
	}

	if n := p.CountKind(KindBegin); n != 1 {
		addf("want exactly 1 Begin activity, have %d", n)
	}
	if n := p.CountKind(KindEnd); n != 1 {
		addf("want exactly 1 End activity, have %d", n)
	}

	ids := make([]string, 0, len(p.Transitions))
	for _, t := range p.Transitions {
		if t.ID == "" {
			addf("transition %s->%s has empty ID", t.Source, t.Dest)
		} else {
			ids = append(ids, t.ID)
		}
		if p.pos(t.Source) < 0 {
			addf("transition %s: unknown source %q", t.ID, t.Source)
		}
		if p.pos(t.Dest) < 0 {
			addf("transition %s: unknown destination %q", t.ID, t.Dest)
		}
		if t.Source == t.Dest {
			addf("transition %s: self loop on %q", t.ID, t.Source)
		}
		if t.cond == nil || t.condSrc != t.Condition {
			t.cond, t.condSrc = parse(t.Condition, "transition %s condition: %v", t.ID), t.Condition
		}
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			addf("duplicate transition ID %q", ids[i])
		}
	}

	for _, a := range p.Activities {
		inMin, inMax, outMin, outMax := a.Kind.minMaxDegree()
		in, out := len(p.In(a.ID)), len(p.Out(a.ID))
		if in < inMin || (inMax >= 0 && in > inMax) {
			addf("%s activity %s has in-degree %d", a.Kind, a.ID, in)
		}
		if out < outMin || (outMax >= 0 && out > outMax) {
			addf("%s activity %s has out-degree %d", a.Kind, a.ID, out)
		}
	}

	if len(problems) == 0 {
		n := len(p.Activities)
		seen, stack := make([]bool, 2*n), make([]int32, 0, n)
		fromBegin, toEnd := seen[:n], seen[n:]
		p.reach(p.pos(p.Begin().ID), false, fromBegin, stack)
		p.reach(p.pos(p.End().ID), true, toEnd, stack)
		for i, a := range p.Activities {
			if !fromBegin[i] {
				addf("activity %s unreachable from Begin", a.ID)
			}
			if !toEnd[i] {
				addf("End unreachable from activity %s", a.ID)
			}
		}
	}

	p.validated = true
	p.validErr = nil
	if len(problems) > 0 {
		sort.Strings(problems)
		p.validErr = &ValidationError{Process: p.Name, Problems: problems}
	}
	return p.validErr
}

// reach marks in visited, by position, the activities reachable from the one
// at start, following transitions backwards when reverse is true. Every
// transition end must be a known activity; stack is room for the walk.
func (p *ProcessDescription) reach(start int, reverse bool, visited []bool, stack []int32) {
	runs := p.out
	if reverse {
		runs = p.in
	}
	visited[start] = true
	stack = append(stack[:0], int32(start))
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range runs[i] {
			next := t.Dest
			if reverse {
				next = t.Source
			}
			if j := p.pos(next); !visited[j] {
				visited[j] = true
				stack = append(stack, int32(j))
			}
		}
	}
}
