package expr

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind classifies lexical tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokDot
	tokLParen
	tokRParen
	tokOp // = != < > <= >=
	tokAnd
	tokOr
	tokNot
	tokTrue
	tokFalse
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokDot:
		return "'.'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokOp:
		return "operator"
	case tokAnd:
		return "'and'"
	case tokOr:
		return "'or'"
	case tokNot:
		return "'not'"
	case tokTrue:
		return "'true'"
	case tokFalse:
		return "'false'"
	}
	return "unknown token"
}

type token struct {
	kind tokKind
	text string
	pos  int
}

// lexer produces a token stream over a condition expression.
type lexer struct {
	src string
	pos int
}

// SyntaxError describes a lexical or parse failure at a byte offset.
type SyntaxError struct {
	Src string
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("condition syntax error at offset %d: %s (in %q)", e.Pos, e.Msg, e.Src)
}

func (l *lexer) errorf(pos int, format string, args ...any) error {
	return &SyntaxError{Src: l.src, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !unicode.IsSpace(r) {
			break
		}
		l.pos += size
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	r, size := utf8.DecodeRuneInString(l.src[l.pos:])
	switch {
	case r == '.':
		l.pos += size
		return token{kind: tokDot, text: ".", pos: start}, nil
	case r == '(':
		l.pos += size
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case r == ')':
		l.pos += size
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case r == '"' || r == '\'':
		return l.lexString(r)
	case r == '=':
		l.pos += size
		// Accept both = and == for equality.
		if strings.HasPrefix(l.src[l.pos:], "=") {
			l.pos++
		}
		return token{kind: tokOp, text: "=", pos: start}, nil
	case r == '!':
		l.pos += size
		if !strings.HasPrefix(l.src[l.pos:], "=") {
			return token{}, l.errorf(start, "expected '=' after '!'")
		}
		l.pos++
		return token{kind: tokOp, text: "!=", pos: start}, nil
	case r == '<' || r == '>':
		l.pos += size
		text := string(r)
		if strings.HasPrefix(l.src[l.pos:], "=") {
			l.pos++
			text += "="
		} else if r == '<' && strings.HasPrefix(l.src[l.pos:], ">") {
			// <> is an alternative not-equal spelling.
			l.pos++
			text = "!="
		}
		return token{kind: tokOp, text: text, pos: start}, nil
	case unicode.IsDigit(r) || (r == '-' && l.pos+size < len(l.src) && isDigitByte(l.src[l.pos+size])):
		return l.lexNumber()
	case unicode.IsLetter(r) || r == '_':
		return l.lexIdent()
	default:
		return token{}, l.errorf(start, "unexpected character %q", r)
	}
}

func isDigitByte(b byte) bool { return b >= '0' && b <= '9' }

func (l *lexer) lexString(quote rune) (token, error) {
	start := l.pos
	l.pos++ // consume opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		l.pos += size
		if r == quote {
			return token{kind: tokString, text: sb.String(), pos: start}, nil
		}
		if r == '\\' && l.pos < len(l.src) {
			esc, esize := utf8.DecodeRuneInString(l.src[l.pos:])
			l.pos += esize
			switch esc {
			case 'n':
				sb.WriteRune('\n')
			case 't':
				sb.WriteRune('\t')
			default:
				sb.WriteRune(esc)
			}
			continue
		}
		sb.WriteRune(r)
	}
	return token{}, l.errorf(start, "unterminated string literal")
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigitByte(c) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot && l.pos+1 < len(l.src) && isDigitByte(l.src[l.pos+1]) {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
}

func (l *lexer) lexIdent() (token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-' {
			break
		}
		l.pos += size
	}
	text := l.src[start:l.pos]
	switch lowerWord(text) {
	case "and":
		return token{kind: tokAnd, text: text, pos: start}, nil
	case "or":
		return token{kind: tokOr, text: text, pos: start}, nil
	case "not":
		return token{kind: tokNot, text: text, pos: start}, nil
	case "true":
		return token{kind: tokTrue, text: text, pos: start}, nil
	case "false":
		return token{kind: tokFalse, text: text, pos: start}, nil
	}
	return token{kind: tokIdent, text: text, pos: start}, nil
}

// lowerWord returns the words that can spell a keyword in lower case, and ""
// for any other. Only ASCII letters lower to a keyword's letters, so a short
// ASCII word is lowered in a buffer, allocating nothing.
func lowerWord(text string) string {
	var buf [len("false")]byte
	if len(text) > len(buf) {
		return ""
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= utf8.RuneSelf {
			return ""
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	return string(buf[:len(text)])
}
