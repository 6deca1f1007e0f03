package workflow

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// jsonProcessOf is the reference for AppendJSON: the interchange form of p,
// field by field, for encoding/json to render.
func jsonProcessOf(p *ProcessDescription) jsonProcess {
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
	return out
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
		want, err := json.Marshal(jsonProcessOf(p))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON differs from encoding/json\n got %s\nwant %s", got, want)
		}
		if got := p.AppendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendJSON does not append: %s", got)
		}
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
}
