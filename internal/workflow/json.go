package workflow

import (
	"encoding/json"
	"fmt"
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
func (p *ProcessDescription) MarshalJSON() ([]byte, error) { return p.AppendJSON(nil) }

// AppendJSON appends the MarshalJSON rendering to b. The rendering of an
// unchanged graph is memoized, and handed out only as a copy.
func (p *ProcessDescription) AppendJSON(b []byte) ([]byte, error) {
	if p.encJSON == nil {
		out := jsonProcess{Name: p.Name}
		for _, a := range p.Activities {
			out.Activities = append(out.Activities, jsonActivity{
				ID: a.ID, Name: a.Name, Kind: a.Kind.String(), Service: a.Service,
				Inputs: a.Inputs, Outputs: a.Outputs, Constraint: a.Constraint,
			})
		}
		for _, t := range p.Transitions {
			out.Transitions = append(out.Transitions, jsonTransition{
				ID: t.ID, Source: t.Source, Dest: t.Dest, Condition: t.Condition,
			})
		}
		data, err := json.Marshal(out)
		if err != nil {
			return nil, err
		}
		p.encJSON = data
	}
	return append(b, p.encJSON...), nil
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
	p.encJSON = nil
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
