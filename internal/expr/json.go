package expr

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// jsonValue is the interchange form of a Value: {"k":"s","s":...},
// {"k":"n","n":...} or {"k":"b","b":...}, the payload left out when zero.
type jsonValue struct {
	K string  `json:"k"`
	S string  `json:"s,omitempty"`
	N float64 `json:"n,omitempty"`
	B bool    `json:"b,omitempty"`
}

// The Append functions write what encoding/json writes for the same value,
// byte for byte, without its reflection: the engine's journal is rendered
// with them and read back with json.Unmarshal (the engine's
// TestJournalEncodingMatchesEncodingJSON holds them to it).

// AppendJSONString appends s as a JSON string. Printable ASCII that needs no
// escape is copied; anything else is left to encoding/json itself.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// AppendJSONField appends key and s as a JSON string; with omitEmpty, an
// empty s appends nothing.
func AppendJSONField(b []byte, key, s string, omitEmpty bool) []byte {
	if s == "" && omitEmpty {
		return b
	}
	return AppendJSONString(append(b, key...), s)
}

// AppendJSONStrings appends key and ss as a JSON array of strings, or nothing
// when ss is empty (omitempty).
func AppendJSONStrings(b []byte, key string, ss []string) []byte {
	if len(ss) == 0 {
		return b
	}
	b, sep := append(b, key...), byte('[')
	for _, s := range ss {
		b, sep = AppendJSONString(append(b, sep), s), ','
	}
	return append(b, ']')
}

// AppendJSONFloat appends f in encoding/json's float64 form, which has none
// for NaN and the infinities.
func AppendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("expr: cannot marshal number %v", f)
	}
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-2] == '0' { // e-09 is written e-9
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b, nil
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64), nil
}

// AppendJSON appends the interchange form of v.
func (v Value) AppendJSON(b []byte) ([]byte, error) {
	switch {
	case v.kind == KindString && v.s != "":
		return append(AppendJSONString(append(b, `{"k":"s","s":`...), v.s), '}'), nil
	case v.kind == KindNumber && v.n != 0:
		b, err := AppendJSONFloat(append(b, `{"k":"n","n":`...), v.n)
		return append(b, '}'), err
	case v.kind == KindBool && v.b:
		return append(b, `{"k":"b","b":true}`...), nil
	case v.kind == KindString:
		return append(b, `{"k":"s"}`...), nil
	case v.kind == KindNumber:
		return append(b, `{"k":"n"}`...), nil
	case v.kind == KindBool:
		return append(b, `{"k":"b"}`...), nil
	}
	return b, fmt.Errorf("expr: cannot marshal value of kind %v", v.kind)
}

// MarshalJSON implements json.Marshaler, so data-item properties can be
// checkpointed by the coordination service.
func (v Value) MarshalJSON() ([]byte, error) { return v.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	var jv jsonValue
	if err := json.Unmarshal(data, &jv); err != nil {
		return err
	}
	switch jv.K {
	case "s":
		*v = String(jv.S)
	case "n":
		*v = Number(jv.N)
	case "b":
		*v = Bool(jv.B)
	default:
		return fmt.Errorf("expr: unknown value kind %q", jv.K)
	}
	return nil
}
