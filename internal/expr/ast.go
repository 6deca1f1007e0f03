package expr

import (
	"fmt"
	"strings"
)

// Env resolves property references during evaluation. Lookup returns the
// value of property prop on the object named obj (typically a data item such
// as D10, or a formal parameter such as A), and whether it exists.
type Env interface {
	Lookup(obj, prop string) (Value, bool)
}

// MapEnv is an Env backed by nested maps: object name -> property -> value.
type MapEnv map[string]map[string]Value

// Lookup implements Env.
func (m MapEnv) Lookup(obj, prop string) (Value, bool) {
	props, ok := m[obj]
	if !ok {
		return Value{}, false
	}
	v, ok := props[prop]
	return v, ok
}

// Op is a comparison operator.
type Op int

// Comparison operators. The paper's grammar lists <, >, =; we add the
// obvious completions.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpGt
	OpLe
	OpGe
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpGt:
		return ">"
	case OpLe:
		return "<="
	case OpGe:
		return ">="
	}
	return "?"
}

// Node is a parsed condition expression.
type Node interface {
	// Eval evaluates the node against env. A missing reference is not an
	// error: a comparison over a missing property is simply false, matching
	// the paper's semantics where a precondition on absent data fails.
	Eval(env Env) bool
	// Refs appends every (object, property) reference in the subtree to dst.
	Refs(dst []Ref) []Ref
	fmt.Stringer
}

// Ref is a property reference obj.prop.
type Ref struct {
	Obj  string
	Prop string
}

func (r Ref) String() string { return r.Obj + "." + r.Prop }

// Operand is either a Ref or a Lit.
type Operand struct {
	IsRef bool
	Ref   Ref
	Lit   Value
}

func (o Operand) String() string {
	if o.IsRef {
		return o.Ref.String()
	}
	if o.Lit.Kind() == KindString {
		return fmt.Sprintf("%q", o.Lit.Str())
	}
	return o.Lit.Str()
}

// resolve returns the operand's value under env.
func (o Operand) resolve(env Env) (Value, bool) {
	if !o.IsRef {
		return o.Lit, true
	}
	if env == nil {
		return Value{}, false
	}
	return env.Lookup(o.Ref.Obj, o.Ref.Prop)
}

// Cmp is a comparison node: Left Op Right.
type Cmp struct {
	Left  Operand
	Op    Op
	Right Operand
}

// Eval implements Node.
func (c *Cmp) Eval(env Env) bool {
	l, ok := c.Left.resolve(env)
	if !ok {
		return false
	}
	r, ok := c.Right.resolve(env)
	if !ok {
		return false
	}
	switch c.Op {
	case OpEq:
		return l.Equal(r)
	case OpNe:
		return !l.Equal(r)
	case OpLt:
		return l.Compare(r) < 0
	case OpGt:
		return l.Compare(r) > 0
	case OpLe:
		return l.Compare(r) <= 0
	case OpGe:
		return l.Compare(r) >= 0
	}
	return false
}

// Refs implements Node.
func (c *Cmp) Refs(dst []Ref) []Ref {
	if c.Left.IsRef {
		dst = append(dst, c.Left.Ref)
	}
	if c.Right.IsRef {
		dst = append(dst, c.Right.Ref)
	}
	return dst
}

func (c *Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
}

// And is a conjunction of one or more terms.
type And struct{ Terms []Node }

// Eval implements Node.
func (a *And) Eval(env Env) bool {
	for _, t := range a.Terms {
		if !t.Eval(env) {
			return false
		}
	}
	return true
}

// Refs implements Node.
func (a *And) Refs(dst []Ref) []Ref {
	for _, t := range a.Terms {
		dst = t.Refs(dst)
	}
	return dst
}

func (a *And) String() string { return joinTerms(a.Terms, " and ") }

// Or is a disjunction of one or more terms.
type Or struct{ Terms []Node }

// Eval implements Node.
func (o *Or) Eval(env Env) bool {
	for _, t := range o.Terms {
		if t.Eval(env) {
			return true
		}
	}
	return false
}

// Refs implements Node.
func (o *Or) Refs(dst []Ref) []Ref {
	for _, t := range o.Terms {
		dst = t.Refs(dst)
	}
	return dst
}

func (o *Or) String() string { return joinTerms(o.Terms, " or ") }

// Not negates its operand.
type Not struct{ Term Node }

// Eval implements Node.
func (n *Not) Eval(env Env) bool { return !n.Term.Eval(env) }

// Refs implements Node.
func (n *Not) Refs(dst []Ref) []Ref { return n.Term.Refs(dst) }

func (n *Not) String() string { return "not (" + n.Term.String() + ")" }

// Const is a constant truth value (the parse of "true"/"false" and of the
// empty condition, which is vacuously true).
type Const struct{ Val bool }

// Eval implements Node.
func (c *Const) Eval(Env) bool { return c.Val }

// Refs implements Node.
func (c *Const) Refs(dst []Ref) []Ref { return dst }

func (c *Const) String() string {
	if c.Val {
		return "true"
	}
	return "false"
}

func joinTerms(terms []Node, sep string) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		s := t.String()
		if needsParens(t) {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

func needsParens(n Node) bool {
	switch n.(type) {
	case *And, *Or:
		return true
	}
	return false
}
