package expr

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// JSONReader reads one JSON text in place, for the decoders of the forms the
// Append functions write (a Value here, a process description, a journal
// record): the caller walks the text with Object, ReadSlice and ReadMap and
// reads each member with String, Float, ReadInt, Bool, Value, Raw or Skip.
// It reads what json.Unmarshal reads into the same Go types, without its
// reflection:
//
//   - The grammar is RFC 8259's, as strict as encoding/json's: no trailing
//     data (End), no control characters in strings, the same nesting limit.
//   - Strings unescape to exactly what encoding/json produces, \u surrogate
//     pairs and U+FFFD for invalid UTF-8 included: appendUnescaped reads the
//     escapes AppendJSONString writes.
//   - Keys match exactly (encoding/json also matches them case-insensitively;
//     the forms were only ever written one way); unknown ones are Skipped.
//   - null leaves a string, number, bool or struct as it was, and sets a
//     slice, map or pointer to nil (the callers' Null check).
//   - A key met twice reads into what the first left, as encoding/json does:
//     an object into the same struct, a map into the same map, an array
//     element into the element already at its index.
//
// The first error sticks: every later read does nothing, and End reports it.
type JSONReader struct {
	data  []byte
	pos   int
	depth int
	err   error
}

// NewJSONReader returns a reader positioned at the start of data.
func NewJSONReader(data []byte) JSONReader { return JSONReader{data: data} }

// End reports the first error, or data left after the value.
func (r *JSONReader) End() error {
	if r.peek(); r.pos < len(r.data) {
		r.syntax()
	}
	return r.err
}

// Fail records err as the reader's error, unless one is recorded already.
func (r *JSONReader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *JSONReader) syntax() {
	if r.pos >= len(r.data) {
		r.Fail(errors.New("expr: json: unexpected end of input"))
	} else {
		r.Fail(fmt.Errorf("expr: json: invalid character %q at offset %d", r.data[r.pos], r.pos))
	}
}

// peek skips whitespace and returns the next byte: 0 at the end of the data
// and after an error.
func (r *JSONReader) peek() byte {
	for ; r.pos < len(r.data); r.pos++ {
		if c := r.data[r.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			if r.err != nil {
				return 0
			}
			return c
		}
	}
	return 0
}

// open consumes c, the opening of a container, and reports whether a member
// follows: false when the container closes at once.
func (r *JSONReader) open(c, end byte) bool {
	if r.peek() != c {
		r.syntax()
		return false
	}
	r.pos++
	if r.depth++; r.depth > 10000 { // encoding/json's limit
		r.Fail(errors.New("expr: json: exceeded max depth"))
	}
	return !r.closed(end)
}

// more reads what follows a member: a comma before another (true), or the
// end of the container.
func (r *JSONReader) more(end byte) bool {
	if r.peek() == ',' {
		r.pos++
		return true
	}
	if !r.closed(end) {
		r.syntax()
	}
	return false
}

// closed consumes end if it comes next; after an error it reports true, so
// that every loop over a container stops.
func (r *JSONReader) closed(end byte) bool {
	if r.peek() != end {
		return r.err != nil
	}
	r.pos++
	r.depth--
	return true
}

// Null consumes a null and reports whether there was one.
func (r *JSONReader) Null() bool {
	if r.peek() != 'n' {
		return false
	}
	r.literal("null")
	return true
}

func (r *JSONReader) literal(word string) {
	if len(r.data)-r.pos < len(word) || string(r.data[r.pos:r.pos+len(word)]) != word {
		r.syntax()
		return
	}
	r.pos += len(word)
}

// Object reads an object, calling member with each key for it to read that
// key's value (or Skip it); the key is valid during the call. A null reads as
// nothing.
func (r *JSONReader) Object(member func(key []byte)) {
	if r.Null() {
		return
	}
	for more := r.open('{', '}'); more; more = r.more('}') {
		if key := r.key(); r.err == nil {
			member(key)
		}
	}
}

// ReadSlice reads an array into *s, element by element with elem; an empty
// array is an empty slice and null is nil. Element i is read into what *s
// already holds at i, when it does.
func ReadSlice[T any](r *JSONReader, s *[]T, elem func(*T)) {
	if r.Null() {
		*s = nil
		return
	}
	n := 0
	for more := r.open('[', ']'); more; more = r.more(']') {
		if n == cap(*s) { // room for four at the first element, then doubling
			*s = slices.Grow(*s, max(4, n))
		}
		if n == len(*s) {
			*s = (*s)[:n+1]
		}
		elem(&(*s)[n])
		n++
	}
	if n == 0 {
		*s = []T{}
	} else {
		*s = (*s)[:n]
	}
}

// ReadMap reads an object into the map *m, made if nil: member reads the
// value of each key and stores it. null sets *m to nil.
func ReadMap[V any](r *JSONReader, m *map[string]V, member func(key string)) {
	if r.Null() {
		*m = nil
		return
	}
	if *m == nil && r.peek() == '{' {
		*m = make(map[string]V)
	}
	r.Object(func(key []byte) { member(string(key)) })
}

// Skip reads any value and drops it.
func (r *JSONReader) Skip() {
	switch c := r.peek(); {
	case c == '{':
		for more := r.open('{', '}'); more; more = r.more('}') {
			r.key()
			r.Skip()
		}
	case c == '[':
		for more := r.open('[', ']'); more; more = r.more(']') {
			r.Skip()
		}
	case c == '"':
		r.str()
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	default:
		r.number()
	}
}

// Raw reads any value and returns its bytes, a sub-slice of the input.
func (r *JSONReader) Raw() []byte {
	r.peek()
	start := r.pos
	if r.Skip(); r.err != nil {
		return nil
	}
	return r.data[start:r.pos]
}

// Text reads a string and returns what it unescapes to: a sub-slice of the
// input when it holds no escape and no invalid UTF-8, else buf with the
// unescaped bytes appended. ok is false when the value is null, and after an
// error.
func (r *JSONReader) Text(buf []byte) (text []byte, ok bool) {
	if r.Null() {
		return nil, false
	}
	raw, plain := r.str()
	if plain || r.err != nil {
		return raw, r.err == nil
	}
	return appendUnescaped(buf, raw), true
}

// String reads a string into *dst; null leaves *dst as it was.
func (r *JSONReader) String(dst *string) {
	var buf [64]byte
	if text, ok := r.Text(buf[:0]); ok {
		*dst = string(text)
	}
}

// Bool reads true or false into *dst; null leaves *dst as it was.
func (r *JSONReader) Bool(dst *bool) {
	switch c := r.peek(); {
	case c == 't' || c == 'f':
		*dst = c == 't'
		r.literal(strconv.FormatBool(*dst))
	case !r.Null():
		r.syntax()
	}
}

// Float reads a number into *dst; null leaves *dst as it was, and a number
// out of float64's range is an error.
func (r *JSONReader) Float(dst *float64) {
	if num := r.num(); num != nil {
		if f, err := strconv.ParseFloat(string(num), 64); err != nil {
			r.Fail(fmt.Errorf("expr: json: number %s: %w", num, err))
		} else {
			*dst = f
		}
	}
}

// ReadInt reads an integer into *dst; null leaves *dst as it was, and a
// fraction, an exponent or a number out of T's range is an error.
func ReadInt[T int | int64](r *JSONReader, dst *T) {
	if num := r.num(); num != nil {
		n, err := strconv.ParseInt(string(num), 10, 64)
		if err == nil && int64(T(n)) != n {
			err = strconv.ErrRange
		}
		if err != nil {
			r.Fail(fmt.Errorf("expr: json: number %s: %w", num, err))
		} else {
			*dst = T(n)
		}
	}
}

// num reads a number token, or a null (returning nil).
func (r *JSONReader) num() []byte {
	if r.Null() {
		return nil
	}
	return r.number()
}

// Value reads the interchange form of a Value into *v, which a null or an
// unknown kind leaves as it was (and is an error).
func (r *JSONReader) Value(v *Value) {
	var (
		kind, s string
		n       float64
		b       bool
	)
	r.Object(func(key []byte) {
		switch string(key) {
		case "k":
			r.String(&kind)
		case "s":
			r.String(&s)
		case "n":
			r.Float(&n)
		case "b":
			r.Bool(&b)
		default:
			r.Skip()
		}
	})
	switch {
	case r.err != nil:
	case kind == "s":
		*v = String(s)
	case kind == "n":
		*v = Number(n)
	case kind == "b":
		*v = Bool(b)
	default:
		r.Fail(fmt.Errorf("expr: unknown value kind %q", kind))
	}
}

// key reads an object key, unescaped, and the colon after it.
func (r *JSONReader) key() []byte {
	raw, plain := r.str()
	if !plain && r.err == nil {
		raw = appendUnescaped(nil, raw)
	}
	if r.peek() != ':' {
		r.syntax()
	} else {
		r.pos++
	}
	return raw
}

// str reads a string token and returns what stands between its quotes, and
// whether that is already its value (no escape, no invalid UTF-8).
func (r *JSONReader) str() (raw []byte, plain bool) {
	if r.peek() != '"' {
		r.syntax()
		return nil, false
	}
	start, ascii, escaped := r.pos+1, true, false
	for r.pos = start; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; {
		case c == '"':
			raw = r.data[start:r.pos]
			r.pos++
			return raw, !escaped && (ascii || utf8.Valid(raw))
		case c == '\\':
			escaped = true
			switch {
			case r.pos+1 < len(r.data) && strings.IndexByte(`"\/bfnrt`, r.data[r.pos+1]) >= 0:
				r.pos++
			case getu4(r.data[r.pos:]) >= 0:
				r.pos += 5
			default:
				r.syntax()
				return nil, false
			}
		case c < ' ':
			r.syntax()
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	r.syntax()
	return nil, false
}

// number reads a number token, by RFC 8259's grammar.
func (r *JSONReader) number() []byte {
	d, start := r.data, r.pos
	digits := func() int {
		n := r.pos
		for r.pos < len(d) && '0' <= d[r.pos] && d[r.pos] <= '9' {
			r.pos++
		}
		return r.pos - n
	}
	if r.pos < len(d) && d[r.pos] == '-' {
		r.pos++
	}
	ok := true
	if n := digits(); n == 0 || n > 1 && d[r.pos-n] == '0' {
		ok = false
	}
	if ok && r.pos < len(d) && d[r.pos] == '.' {
		r.pos++
		ok = digits() > 0
	}
	if ok && r.pos < len(d) && (d[r.pos] == 'e' || d[r.pos] == 'E') {
		if r.pos++; r.pos < len(d) && (d[r.pos] == '+' || d[r.pos] == '-') {
			r.pos++
		}
		ok = digits() > 0
	}
	if !ok {
		r.syntax()
		return nil
	}
	return d[start:r.pos]
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	n, err := strconv.ParseUint(string(s[2:6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(n)
}

// appendUnescaped appends the value of a string token's contents, which str
// has checked, as encoding/json unquotes it: a lone or broken surrogate and
// each byte of invalid UTF-8 become U+FFFD.
func appendUnescaped(b, s []byte) []byte {
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\' && s[i+1] == 'u':
			rr := getu4(s[i:])
			i += 6
			if utf16.IsSurrogate(rr) {
				if rr = utf16.DecodeRune(rr, getu4(s[i:])); rr != unicode.ReplacementChar {
					i += 6
				}
			}
			b = utf8.AppendRune(b, rr)
		case c == '\\':
			b = append(b, "\"\\/\b\f\n\r\t"[strings.IndexByte(`"\/bfnrt`, s[i+1])])
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, rr)
			i += size
		}
	}
	return b
}
