package workflow

import (
	"fmt"

	"repro/internal/expr"
)

// The JSON form is the interchange form of a process description. Unlike
// the PDL text (which carries only structure and conditions), it is
// complete: it preserves activity data-set bindings and constraints, so
// checkpointed enactments can resume exactly. AppendJSON writes it and
// UnmarshalJSON reads it, both without encoding/json's reflection.

// MarshalJSON implements json.Marshaler with a complete, deterministic
// rendering of the process description.
func (p *ProcessDescription) MarshalJSON() ([]byte, error) { return p.AppendJSON(nil), nil }

// AppendJSON appends the MarshalJSON rendering to b: what encoding/json
// writes for the interchange struct of p, byte for byte, without building it
// (TestProcessJSONMatchesEncodingJSON).
func (p *ProcessDescription) AppendJSON(b []byte) []byte {
	b = expr.AppendJSONField(b, `{"name":`, p.Name, false)
	b = appendList(append(b, `,"activities":`...), p.Activities, func(b []byte, a *Activity) []byte {
		b = expr.AppendJSONField(b, `{"id":`, a.ID, false)
		b = expr.AppendJSONField(b, `,"name":`, a.Name, true)
		b = expr.AppendJSONField(b, `,"kind":`, a.Kind.String(), false)
		b = expr.AppendJSONField(b, `,"service":`, a.Service, true)
		b = expr.AppendJSONStrings(b, `,"inputs":`, a.Inputs)
		b = expr.AppendJSONStrings(b, `,"outputs":`, a.Outputs)
		return append(expr.AppendJSONField(b, `,"constraint":`, a.Constraint, true), '}')
	})
	b = appendList(append(b, `,"transitions":`...), p.Transitions, func(b []byte, t *Transition) []byte {
		b = expr.AppendJSONField(b, `{"id":`, t.ID, false)
		b = expr.AppendJSONField(b, `,"source":`, t.Source, false)
		b = expr.AppendJSONField(b, `,"dest":`, t.Dest, false)
		return append(expr.AppendJSONField(b, `,"condition":`, t.Condition, true), '}')
	})
	return append(b, '}')
}

// appendList appends xs as a JSON array of elem's renderings; an empty list
// is null, as encoding/json writes a nil slice.
func appendList[T any](b []byte, xs []T, elem func([]byte, T) []byte) []byte {
	if len(xs) == 0 {
		return append(b, "null"...)
	}
	sep := byte('[')
	for _, x := range xs {
		b, sep = elem(append(b, sep), x), ','
	}
	return append(b, ']')
}

// UnmarshalJSON implements json.Unmarshaler with an expr.JSONReader. A
// transition's source and dest share the strings of the activities they name.
func (p *ProcessDescription) UnmarshalJSON(data []byte) error {
	var in ProcessDescription
	r := expr.NewJSONReader(data)
	r.Object(func(key []byte) {
		switch string(key) {
		case "name":
			r.String(&in.Name)
		case "activities":
			expr.ReadSlice(&r, &in.Activities, func(a **Activity) {
				if *a == nil {
					*a = new(Activity)
				}
				(*a).decode(&r)
			})
		case "transitions":
			expr.ReadSlice(&r, &in.Transitions, func(t **Transition) {
				if *t == nil {
					*t = new(Transition)
				}
				(*t).decode(&r, in.Activities)
			})
		default:
			r.Skip()
		}
	})
	if err := r.End(); err != nil {
		return err
	}
	p.Name, p.Activities, p.Transitions = in.Name, in.Activities, in.Transitions
	p.indexed, p.validated = false, false
	return nil
}

func (a *Activity) decode(r *expr.JSONReader) {
	var kind []byte
	r.Object(func(key []byte) {
		switch string(key) {
		case "id":
			r.String(&a.ID)
		case "name":
			r.String(&a.Name)
		case "kind":
			if text, ok := r.Text(nil); ok {
				kind = text
			}
		case "service":
			r.String(&a.Service)
		case "inputs":
			expr.ReadSlice(r, &a.Inputs, r.String)
		case "outputs":
			expr.ReadSlice(r, &a.Outputs, r.String)
		case "constraint":
			r.String(&a.Constraint)
		default:
			r.Skip()
		}
	})
	k, err := kindOf(kind)
	if err != nil {
		r.Fail(fmt.Errorf("workflow: activity %s: %w", a.ID, err))
	}
	a.Kind = k
}

// kindOf is ParseKind for a name's bytes, making no string of the spellings
// Kind.String writes.
func kindOf(name []byte) (Kind, error) {
	for k := KindEndUser; k <= KindMerge; k++ {
		if string(name) == k.String() {
			return k, nil
		}
	}
	return ParseKind(string(name))
}

func (t *Transition) decode(r *expr.JSONReader, acts []*Activity) {
	// id reads an activity ID into *dst as the string of the activity that
	// has it, when one has.
	id := func(dst *string) {
		var buf [16]byte
		text, ok := r.Text(buf[:0])
		if !ok {
			return
		}
		for _, a := range acts {
			if a != nil && a.ID == string(text) {
				*dst = a.ID
				return
			}
		}
		*dst = string(text)
	}
	r.Object(func(key []byte) {
		switch string(key) {
		case "id":
			r.String(&t.ID)
		case "source":
			id(&t.Source)
		case "dest":
			id(&t.Dest)
		case "condition":
			r.String(&t.Condition)
		default:
			r.Skip()
		}
	})
}

// DecodeProcess parses a process description from its JSON form and
// validates it.
func DecodeProcess(data []byte) (*ProcessDescription, error) {
	p := &ProcessDescription{}
	if err := p.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
