package expr

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The Append functions write what encoding/json writes for the same value,
// byte for byte, without its reflection, and JSONReader reads it back: the
// engine's journal is rendered and read with them (the engine's
// TestJournalEncodingMatchesEncodingJSON and TestJournalDecodeMatchesEncodingJSON
// hold them to encoding/json).

// AppendJSONString appends s as a JSON string, escaped as encoding/json
// escapes it: `"` and `\` with a backslash, \b \f \n \r \t by name, the
// other control characters, <, >, &, U+2028 and U+2029 as \u00XX / \u20XX,
// and each byte of invalid UTF-8 as \ufffd.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		switch {
		case c >= utf8.RuneSelf:
			if c, size = utf8.DecodeRuneInString(s[i:]); (c != utf8.RuneError || size > 1) && c != '\u2028' && c != '\u2029' {
				i += size
				continue
			}
		case c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&':
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', byte(c))
		case '\b':
			b = append(b, `\b`...)
		case '\f':
			b = append(b, `\f`...)
		case '\n':
			b = append(b, `\n`...)
		case '\r':
			b = append(b, `\r`...)
		case '\t':
			b = append(b, `\t`...)
		default:
			b = append(b, '\\', 'u', hex[c>>12&0xf], hex[c>>8&0xf], hex[c>>4&0xf], hex[c&0xf])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
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

// UnmarshalJSON implements json.Unmarshaler with JSONReader.Value.
func (v *Value) UnmarshalJSON(data []byte) error {
	r := NewJSONReader(data)
	var w Value
	r.Value(&w)
	if err := r.End(); err != nil {
		return err
	}
	*v = w
	return nil
}
