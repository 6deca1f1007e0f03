// Package expr implements the small condition-expression language used
// throughout the grid environment: by process-description transition
// conditions, by activity pre- and postconditions (the C1..C8 conditions of
// the virus-reconstruction case study), and by case-description constraints
// such as Cons1.
//
// The grammar follows the BNF of the paper's Section 2:
//
//	condition  := or
//	or         := and { "or" and }
//	and        := not { "and" not }
//	not        := [ "not" ] primary
//	primary    := comparison | "(" condition ")" | "true" | "false"
//	comparison := ref op literal | ref op ref
//	ref        := Ident "." Ident          // e.g. D10.Classification
//	op         := "<" | ">" | "=" | "!=" | "<=" | ">="
//	literal    := String | Number
//
// Property names are the data attributes of the paper's ontology (Figure 12):
// Classification, Size, Location, Value, Format, Type, Owner, and so on.
package expr

import (
	"fmt"
	"strconv"
)

// Kind discriminates the dynamic type of a Value.
type Kind int

// The kinds of values a condition expression can manipulate.
const (
	KindString Kind = iota
	KindNumber
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindNumber:
		return "number"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a dynamically typed scalar: the value of a data-item property or
// of a literal in a condition. The zero Value is the empty string.
type Value struct {
	kind Kind
	s    string
	n    float64
	b    bool
}

// String constructs a string Value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Number constructs a numeric Value.
func Number(n float64) Value { return Value{kind: KindNumber, n: n} }

// Bool constructs a boolean Value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// Str returns the string payload; for non-string kinds it returns the
// canonical textual form.
func (v Value) Str() string {
	switch v.kind {
	case KindString:
		return v.s
	case KindNumber:
		var buf [24]byte
		return string(v.AppendStr(buf[:0]))
	case KindBool:
		return strconv.FormatBool(v.b)
	}
	return ""
}

// AppendStr appends v as Str renders it; a number is formatted straight into
// b, without building the string.
func (v Value) AppendStr(b []byte) []byte {
	if v.kind == KindNumber {
		return strconv.AppendFloat(b, v.n, 'g', -1, 64)
	}
	return append(b, v.Str()...)
}

// Num returns the numeric payload and whether the value is (or parses as) a
// number. String values that look like numbers coerce, matching the paper's
// untyped slot values (e.g. D10.value > 8 where the value arrives as text).
func (v Value) Num() (float64, bool) {
	switch v.kind {
	case KindNumber:
		return v.n, true
	case KindString:
		n, err := strconv.ParseFloat(v.s, 64)
		return n, err == nil
	case KindBool:
		if v.b {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// Equal reports deep equality with numeric coercion: "8" equals 8.
func (v Value) Equal(w Value) bool {
	if v.kind == w.kind {
		switch v.kind {
		case KindString:
			return v.s == w.s
		case KindNumber:
			return v.n == w.n
		case KindBool:
			return v.b == w.b
		}
	}
	vn, vok := v.Num()
	wn, wok := w.Num()
	if vok && wok {
		return vn == wn
	}
	return v.Str() == w.Str()
}

// Compare returns -1, 0, or +1 ordering v against w. Numbers (and strings
// that parse as numbers) order numerically; everything else orders
// lexicographically on the textual form.
func (v Value) Compare(w Value) int {
	vn, vok := v.Num()
	wn, wok := w.Num()
	if vok && wok {
		switch {
		case vn < wn:
			return -1
		case vn > wn:
			return 1
		default:
			return 0
		}
	}
	vs, ws := v.Str(), w.Str()
	switch {
	case vs < ws:
		return -1
	case vs > ws:
		return 1
	default:
		return 0
	}
}

// GoString makes test failures readable.
func (v Value) GoString() string {
	switch v.kind {
	case KindString:
		return strconv.Quote(v.s)
	case KindNumber:
		return strconv.FormatFloat(v.n, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	}
	return "?"
}
