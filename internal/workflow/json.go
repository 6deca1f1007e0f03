package workflow

import (
	"encoding/json"
	"fmt"

	"repro/internal/expr"
)

// jsonActivity, jsonTransition, and jsonProcess are the interchange forms.
// Unlike the PDL text (which carries only structure and conditions), the
// JSON form is complete: it preserves activity data-set bindings and
// constraints, so checkpointed enactments can resume exactly.
type jsonActivity struct {
	ID         string   `json:"id"`
	Name       string   `json:"name,omitempty"`
	Kind       string   `json:"kind"`
	Service    string   `json:"service,omitempty"`
	Inputs     []string `json:"inputs,omitempty"`
	Outputs    []string `json:"outputs,omitempty"`
	Constraint string   `json:"constraint,omitempty"`
}

type jsonTransition struct {
	ID        string `json:"id"`
	Source    string `json:"source"`
	Dest      string `json:"dest"`
	Condition string `json:"condition,omitempty"`
}

type jsonProcess struct {
	Name        string           `json:"name"`
	Activities  []jsonActivity   `json:"activities"`
	Transitions []jsonTransition `json:"transitions"`
}

// MarshalJSON implements json.Marshaler with a complete, deterministic
// rendering of the process description.
func (p *ProcessDescription) MarshalJSON() ([]byte, error) { return p.AppendJSON(nil), nil }

// AppendJSON appends the MarshalJSON rendering to b: what encoding/json
// writes for the jsonProcess of p, byte for byte, without building it.
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
// is null, as the nil slice jsonProcess would hold.
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

// UnmarshalJSON implements json.Unmarshaler.
func (p *ProcessDescription) UnmarshalJSON(data []byte) error {
	var in jsonProcess
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	p.Name = in.Name
	p.Activities = nil
	p.Transitions = nil
	p.indexed = false
	p.validated = false
	for _, ja := range in.Activities {
		kind, err := ParseKind(ja.Kind)
		if err != nil {
			return fmt.Errorf("workflow: activity %s: %w", ja.ID, err)
		}
		p.Activities = append(p.Activities, &Activity{
			ID: ja.ID, Name: ja.Name, Kind: kind, Service: ja.Service,
			Inputs: ja.Inputs, Outputs: ja.Outputs, Constraint: ja.Constraint,
		})
	}
	for _, jt := range in.Transitions {
		p.Transitions = append(p.Transitions, &Transition{
			ID: jt.ID, Source: jt.Source, Dest: jt.Dest, Condition: jt.Condition,
		})
	}
	return nil
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
