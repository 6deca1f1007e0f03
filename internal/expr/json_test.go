package expr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

// refValue is the reference for the interchange form of a Value: the struct
// encoding/json wrote and read it through before the Append functions and
// JSONReader.
type refValue struct {
	K string  `json:"k"`
	S string  `json:"s,omitempty"`
	N float64 `json:"n,omitempty"`
	B bool    `json:"b,omitempty"`
}

// refDecode decodes data as Value.UnmarshalJSON did with encoding/json.
func refDecode(data []byte) (Value, error) {
	var rv refValue
	if err := json.Unmarshal(data, &rv); err != nil {
		return Value{}, err
	}
	switch rv.K {
	case "s":
		return String(rv.S), nil
	case "n":
		return Number(rv.N), nil
	case "b":
		return Bool(rv.B), nil
	}
	return Value{}, fmt.Errorf("unknown value kind %q", rv.K)
}

// checkValueDecode holds Value.UnmarshalJSON to the reference on data: the
// same value, or both an error. Keys that only encoding/json's
// case-insensitive match would take are out of the contract.
func checkValueDecode(t *testing.T, data []byte) {
	t.Helper()
	var members map[string]json.RawMessage
	if json.Unmarshal(data, &members) == nil {
		for k := range members {
			for _, known := range []string{"k", "s", "n", "b"} {
				if k != known && strings.EqualFold(k, known) {
					return
				}
			}
		}
	}
	want, wantErr := refDecode(data)
	var got Value
	gotErr := got.UnmarshalJSON(data)
	if (gotErr != nil) != (wantErr != nil) || gotErr == nil && (got.kind != want.kind || !got.Equal(want) ||
		math.Signbit(got.n) != math.Signbit(want.n)) {
		t.Fatalf("%q: reader reads %#v (%v), encoding/json %#v (%v)", data, got, gotErr, want, wantErr)
	}
}

// Strings on every branch of encoding/json's string encoder and decoder.
var jsonStrings = []string{"", "plain", `quo"te`, `back\slash`, "<b>&</b>", "tab\tnl\n\b\f\x00\x7f\x1f", "ü 日本 🚀",
	"bad\xffutf8", "\xed\xa0\x80 surrogate half", "\xef\xbf\xbd real U+FFFD", " ", "/slash"}

// Value texts the encoders never write, each on a branch of the reader.
var valueTexts = []string{
	`{"k":"s"}`, ` { "k" : "n" , "n" : -0 } `, `{"k":"n","n":1E+2}`, `{"k":"n","n":1e400}`, `{"k":"n","n":1e-400}`,
	`{"k":"n","n":01}`, `{"k":"n","n":1.}`, `{"k":"n","n":-}`, `{"k":"n","n":.5}`, `{"k":"n","n":"5"}`,
	`{"k":"b","b":true,"b":false}`, `{"k":"b","b":null}`, `{"k":"b","b":1}`, `{"k":"b","b":tru}`,
	`{"k":"s","s":null}`, `{"k":null}`, `null`, `{}`, `[]`, `"s"`, `{"k":"x"}`, `{"k":"s","k":"n","n":2}`,
	`{"k":"s","x":[1,{"y":[null,true,false,"z"]},-2.5e-3],"s":"v"}`, `{"x":{"k":"n"},"k":"s"}`,
	`{"k":"s","s":"🚀 \ud83d\ude80 \ud83d \ude80 \ud83dx \ude80\ud83d \ud83dA é \/\"\\\b\f\n\r\t"}`, `{"k":"s","s":"\u12"}`,
	`{"k":"s","s":"\x"}`, "{\"k\":\"s\",\"s\":\"ctl\x01\"}", "{\"k\":\"s\",\"s\":\"bad\xff\"}",
	`{"k":"s","s":"escaped key"}`, `{"k":"s",}`, `{"k":"s"`, `{"k" "s"}`, `{"k":"s"} x`, `{"k":"s"}{}`,
	`{k:"s"}`, `{"k":"s"]`, ``, ` `, `{"k":"s","deep":[[[[[[[[[[]]]]]]]]]]}`, `{"k":"b","b":true}` + "\n\t\r ",
	"{\"k\":\"s\"}\x00", `{"k":"s","s":"x` + strings.Repeat(`\\`, 3),
}

// The append-style encoders against what they replace: encoding/json over
// the interchange struct, and over a bare string or float64. The reader
// against encoding/json on what they write and on texts they never write.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	numbers := []float64{0, math.Copysign(0, -1), 1, -1.5, 1e21, 9.99e20, 1e-6, 9.99e-7, 1e-7, 1 << 53, 1<<53 + 1, math.MaxFloat64, 5e-324}
	values := []Value{Bool(true), Bool(false)}
	for _, s := range jsonStrings {
		values = append(values, String(s))
		want, _ := json.Marshal(s)
		if got := AppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendJSONString(%q) = %s, encoding/json writes %s", s, got, want)
		}
		var ref, back string
		json.Unmarshal(want, &ref)
		r := NewJSONReader(want)
		if r.String(&back); r.End() != nil || back != ref {
			t.Errorf("reader reads %s as %q (%v), encoding/json as %q", want, back, r.End(), ref)
		}
	}
	for _, n := range numbers {
		values = append(values, Number(n))
		want, _ := json.Marshal(n)
		if got, err := AppendJSONFloat(nil, n); err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendJSONFloat(%v) = %s (%v), encoding/json writes %s", n, got, err, want)
		}
	}
	for _, v := range values {
		ref := refValue{K: "s", S: v.s}
		switch v.kind {
		case KindNumber:
			ref = refValue{K: "n", N: v.n}
		case KindBool:
			ref = refValue{K: "b", B: v.b}
		}
		want, _ := json.Marshal(ref)
		got, err := v.AppendJSON(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%#v: AppendJSON = %s (%v), encoding/json writes %s", v, got, err, want)
		}
		checkValueDecode(t, got)
		var back Value
		if v.kind == KindString && !utf8.ValidString(v.s) {
			continue // encoding/json writes U+FFFD for the bad bytes: no round trip to check
		}
		if err := json.Unmarshal(got, &back); err != nil || !back.Equal(v) || back.kind != v.kind {
			t.Errorf("%#v round-trips to %#v (%v)", v, back, err)
		}
	}
	for _, text := range valueTexts {
		checkValueDecode(t, []byte(text))
	}
	deep := strings.Repeat("[", 10001) + strings.Repeat("]", 10001)
	checkValueDecode(t, []byte(`{"k":"s","x":`+deep+`}`))
	checkValueDecode(t, []byte(`{"k":"s","x":`+deep[1:len(deep)-1]+`}`))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Number(bad).AppendJSON(nil); err == nil {
			t.Errorf("AppendJSON accepted the number %v", bad)
		}
	}
	if _, err := (Value{kind: 7}).AppendJSON(nil); err == nil {
		t.Error("AppendJSON accepted a value of no kind")
	}
}

// FuzzValueDecode holds the reader to encoding/json on arbitrary bytes: the
// same Value or both an error, and never a panic.
func FuzzValueDecode(f *testing.F) {
	for _, text := range valueTexts {
		f.Add([]byte(text))
	}
	for _, s := range jsonStrings {
		data, _ := String(s).AppendJSON(nil)
		f.Add(data)
	}
	f.Fuzz(checkValueDecode)
}
