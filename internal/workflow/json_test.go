package workflow

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// The interchange form as encoding/json wrote and read it before AppendJSON
// and UnmarshalJSON: the reference for both.
type (
	refActivity struct {
		ID         string   `json:"id"`
		Name       string   `json:"name,omitempty"`
		Kind       string   `json:"kind"`
		Service    string   `json:"service,omitempty"`
		Inputs     []string `json:"inputs,omitempty"`
		Outputs    []string `json:"outputs,omitempty"`
		Constraint string   `json:"constraint,omitempty"`
	}
	refTransition struct {
		ID        string `json:"id"`
		Source    string `json:"source"`
		Dest      string `json:"dest"`
		Condition string `json:"condition,omitempty"`
	}
	refProcess struct {
		Name        string          `json:"name"`
		Activities  []refActivity   `json:"activities"`
		Transitions []refTransition `json:"transitions"`
	}
)

// refProcessOf is the interchange form of p, field by field, for
// encoding/json to render.
func refProcessOf(p *ProcessDescription) refProcess {
	out := refProcess{Name: p.Name}
	for _, a := range p.Activities {
		out.Activities = append(out.Activities, refActivity{
			ID: a.ID, Name: a.Name, Kind: a.Kind.String(), Service: a.Service,
			Inputs: a.Inputs, Outputs: a.Outputs, Constraint: a.Constraint,
		})
	}
	for _, t := range p.Transitions {
		out.Transitions = append(out.Transitions, refTransition{
			ID: t.ID, Source: t.Source, Dest: t.Dest, Condition: t.Condition,
		})
	}
	return out
}

// refUnmarshal reads data as UnmarshalJSON did through encoding/json.
func refUnmarshal(data []byte) (*ProcessDescription, error) {
	var in refProcess
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	p := &ProcessDescription{Name: in.Name}
	for _, ja := range in.Activities {
		kind, err := ParseKind(ja.Kind)
		if err != nil {
			return nil, err
		}
		p.Activities = append(p.Activities, &Activity{
			ID: ja.ID, Name: ja.Name, Kind: kind, Service: ja.Service,
			Inputs: ja.Inputs, Outputs: ja.Outputs, Constraint: ja.Constraint,
		})
	}
	for _, jt := range in.Transitions {
		p.Transitions = append(p.Transitions, &Transition{ID: jt.ID, Source: jt.Source, Dest: jt.Dest, Condition: jt.Condition})
	}
	return p, nil
}

// checkUnmarshal holds UnmarshalJSON to the reference on data: the same
// description (an empty activity or transition list read as none, as the
// reference builds it), or both an error.
func checkUnmarshal(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := refUnmarshal(data)
	got := &ProcessDescription{}
	gotErr := got.UnmarshalJSON(data)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: UnmarshalJSON error %v, encoding/json error %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(got.Activities) == 0 {
		got.Activities = nil
	}
	if len(got.Transitions) == 0 {
		got.Transitions = nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: UnmarshalJSON reads\n%+v, encoding/json\n%+v", data, got, want)
	}
}

// Strings on every branch of encoding/json's string encoder: HTML escapes,
// control characters, U+2028/U+2029, invalid UTF-8.
var jsonNastyStrings = []string{"", "A3", "P3DR1", `quo"te`, `back\slash`, "<tag> & </tag>",
	"tab\tnl\ncr\rbs\bff\f", "ctl\x00\x01\x1f\x7f", "ünïcödé 日本語 🚀", "line para ", "bad\xff\xfeutf8",
	`D10.Classification = "Resolution File" and D10.value > 8`}

// TestProcessJSONMatchesEncodingJSON is the byte-identity contract of the
// process description's append encoder, which the journal's accepted record
// and every checkpoint carry.
func TestProcessJSONMatchesEncodingJSON(t *testing.T) {
	check := func(p *ProcessDescription) {
		t.Helper()
		want, err := json.Marshal(refProcessOf(p))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON differs from encoding/json\n got %s\nwant %s", got, want)
		}
		if got := p.AppendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendJSON does not append: %s", got)
		}
		checkUnmarshal(t, want)
	}
	check(NewProcess(""))
	check(buildSequential())
	check(buildForkJoin())
	check(buildChoiceMerge())

	rng := rand.New(rand.NewSource(30))
	str := func() string { return jsonNastyStrings[rng.Intn(len(jsonNastyStrings))] }
	strs := func() []string {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []string{}
		}
		out := make([]string, 1+rng.Intn(3))
		for i := range out {
			out[i] = str()
		}
		return out
	}
	for i := 0; i < 2000; i++ {
		p := NewProcess(str())
		for j, n := 0, rng.Intn(5); j < n; j++ {
			p.Add(&Activity{ID: str(), Name: str(), Kind: Kind(rng.Intn(8)), Service: str(),
				Inputs: strs(), Outputs: strs(), Constraint: str()})
		}
		for j, n := 0, rng.Intn(5); j < n; j++ {
			p.Transitions = append(p.Transitions, &Transition{ID: str(), Source: str(), Dest: str(), Condition: str()})
		}
		check(p)
	}
	for _, text := range processTexts {
		checkUnmarshal(t, []byte(text))
	}
}

// Process texts AppendJSON never writes, each on a branch of UnmarshalJSON.
var processTexts = []string{
	`null`, `{}`, `{"name":null,"activities":null,"transitions":null}`, `{"activities":[],"transitions":[]}`,
	`{"activities":[null]}`, `{"activities":[{"id":"a"}]}`, `{"activities":[{"id":"a","kind":"BEGIN"}]}`,
	`{"activities":[{"id":"a","kind":"\u0042egin","inputs":[],"outputs":["x",null]}]}`,
	`{"activities":[{"id":"a","kind":"weird"}]}`, `{"activities":[{"id":"a","kind":7}]}`, `{"activities":{}}`,
	`{"transitions":[{"id":"t","source":"a","dest":"b"}],"activities":[{"id":"a","kind":"End"}]}`,
	`{"activities":[{"id":"a","kind":"Fork","x":{"y":[1]}}],"transitions":[{"source":"a","dest":"a","z":null}]}`,
	`{"name":"n","name":"m","activities":[{"id":"a","kind":"Join"}],"transitions":[null,{"id":"t"}]}`,
	`{"name":"n"} `, `{"name":"n"}x`, `{"name":"n"`, `{"name":1}`, `[]`, `"p"`, ``,
}
