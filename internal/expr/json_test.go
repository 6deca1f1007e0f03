package expr

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"
)

// The append-style encoders against what they replace: encoding/json over
// the interchange struct, and over a bare string or float64.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	stringsToTry := []string{"", "plain", `quo"te`, `back\slash`, "<b>&</b>", "tab\tnl\n\b\f\x00\x7f", "ü 日本 🚀", "bad\xffutf8", " "}
	numbers := []float64{0, math.Copysign(0, -1), 1, -1.5, 1e21, 9.99e20, 1e-6, 9.99e-7, 1e-7, 1 << 53, 1<<53 + 1, math.MaxFloat64, 5e-324}
	values := []Value{Bool(true), Bool(false)}
	for _, s := range stringsToTry {
		values = append(values, String(s))
		want, _ := json.Marshal(s)
		if got := AppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendJSONString(%q) = %s, encoding/json writes %s", s, got, want)
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
		ref := jsonValue{K: "s", S: v.s}
		switch v.kind {
		case KindNumber:
			ref = jsonValue{K: "n", N: v.n}
		case KindBool:
			ref = jsonValue{K: "b", B: v.b}
		}
		want, _ := json.Marshal(ref)
		got, err := v.AppendJSON(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%#v: AppendJSON = %s (%v), encoding/json writes %s", v, got, err, want)
		}
		var back Value
		if v.kind == KindString && !utf8.ValidString(v.s) {
			continue // encoding/json writes U+FFFD for the bad bytes: no round trip to check
		}
		if err := json.Unmarshal(got, &back); err != nil || !back.Equal(v) || back.kind != v.kind {
			t.Errorf("%#v round-trips to %#v (%v)", v, back, err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Number(bad).AppendJSON(nil); err == nil {
			t.Errorf("AppendJSON accepted the number %v", bad)
		}
	}
	if _, err := (Value{kind: 7}).AppendJSON(nil); err == nil {
		t.Error("AppendJSON accepted a value of no kind")
	}
}
