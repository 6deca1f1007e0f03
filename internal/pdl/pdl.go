// Package pdl implements the textual process description language of the
// paper's Section 2 BNF. A process description is a BEGIN..END block whose
// body composes activities with the three structured constructs:
//
//	process     := "BEGIN" "," body "," "END"
//	body        := element { ";" element }
//	element     := activity | concurrent | selective | iterative
//	activity    := Ident [ "=" Ident ] [ "(" names [ "->" names ] ")" ]
//	names       := Ident { "," Ident } | ""      // input / output data sets
//	concurrent  := "{" "FORK"   branch branch+ "JOIN" "}"
//	selective   := "{" "CHOICE" guarded guarded+ "MERGE" "}"
//	iterative   := "{" "ITERATIVE" "{" "COND" condition "}" branch "}"
//	branch      := "{" body "}"
//	guarded     := [ "{" "COND" condition "}" ] branch
//	condition   := condition-expression (see package expr)
//
// An example corresponding to Figure 10:
//
//	BEGIN,
//	  POD;
//	  P3DR1 = P3DR;
//	  {ITERATIVE {COND D10.value > 8}
//	    {POR;
//	     {FORK {P3DR2 = P3DR} {P3DR3 = P3DR} {P3DR4 = P3DR} JOIN};
//	     PSF}
//	  },
//	END
//
// PDL is the wire and archive form of a process: what HTTP clients send and
// read and what the knowledge base stores. The form a process is enacted in
// is the validated process description (package workflow), and ParseProcess
// compiles text to it: Parse produces a plan tree (package plantree) whose
// conditions carry their parse, and plantree.ToProcess converts it losslessly
// without parsing a condition again. Format inverts Parse. Inside one
// process a plan travels compiled: the planning service's reply carries its
// process description beside the text, and the coordinator never parses PDL.
package pdl

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/expr"
	"repro/internal/plantree"
	"repro/internal/workflow"
)

// Error describes a PDL parse failure with line/column position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("pdl: %d:%d: %s", e.Line, e.Col, e.Msg)
}

type tkind int

const (
	tEOF tkind = iota
	tIdent
	tLBrace
	tRBrace
	tSemi
	tComma
	tEquals
	tLParen
	tRParen
	tArrow
	tCondText // raw condition text captured after COND
)

type tok struct {
	kind      tkind
	text      string
	line, col int
}

type scanner struct {
	src       string
	pos       int
	line, col int
}

func (s *scanner) errf(line, col int, format string, args ...any) error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (s *scanner) advance(r rune, size int) {
	s.pos += size
	if r == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
}

func (s *scanner) skipSpaceAndComments() {
	for s.pos < len(s.src) {
		r, size := utf8.DecodeRuneInString(s.src[s.pos:])
		if unicode.IsSpace(r) {
			s.advance(r, size)
			continue
		}
		// Line comments: #... or //...
		if r == '#' || (r == '/' && strings.HasPrefix(s.src[s.pos:], "//")) {
			for s.pos < len(s.src) {
				r, size = utf8.DecodeRuneInString(s.src[s.pos:])
				s.advance(r, size)
				if r == '\n' {
					break
				}
			}
			continue
		}
		return
	}
}

func (s *scanner) next() (tok, error) {
	s.skipSpaceAndComments()
	line, col := s.line, s.col
	if s.pos >= len(s.src) {
		return tok{kind: tEOF, line: line, col: col}, nil
	}
	r, size := utf8.DecodeRuneInString(s.src[s.pos:])
	switch r {
	case '{':
		s.advance(r, size)
		return tok{kind: tLBrace, text: "{", line: line, col: col}, nil
	case '}':
		s.advance(r, size)
		return tok{kind: tRBrace, text: "}", line: line, col: col}, nil
	case ';':
		s.advance(r, size)
		return tok{kind: tSemi, text: ";", line: line, col: col}, nil
	case ',':
		s.advance(r, size)
		return tok{kind: tComma, text: ",", line: line, col: col}, nil
	case '=':
		s.advance(r, size)
		return tok{kind: tEquals, text: "=", line: line, col: col}, nil
	case '(':
		s.advance(r, size)
		return tok{kind: tLParen, text: "(", line: line, col: col}, nil
	case ')':
		s.advance(r, size)
		return tok{kind: tRParen, text: ")", line: line, col: col}, nil
	case '-':
		s.advance(r, size)
		if s.pos < len(s.src) && s.src[s.pos] == '>' {
			s.advance('>', 1)
			return tok{kind: tArrow, text: "->", line: line, col: col}, nil
		}
		return tok{}, s.errf(line, col, "expected '->' after '-'")
	}
	if unicode.IsLetter(r) || r == '_' {
		start := s.pos
		for s.pos < len(s.src) {
			r, size = utf8.DecodeRuneInString(s.src[s.pos:])
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-' {
				break
			}
			s.advance(r, size)
		}
		return tok{kind: tIdent, text: s.src[start:s.pos], line: line, col: col}, nil
	}
	return tok{}, s.errf(line, col, "unexpected character %q", r)
}

// condText captures raw text until the next unmatched '}' (conditions never
// contain braces), leaving the '}' unconsumed.
func (s *scanner) condText() (string, error) {
	start := s.pos
	for s.pos < len(s.src) {
		r, size := utf8.DecodeRuneInString(s.src[s.pos:])
		if r == '}' {
			return strings.TrimSpace(s.src[start:s.pos]), nil
		}
		if r == '{' {
			return "", s.errf(s.line, s.col, "'{' not allowed inside a condition")
		}
		s.advance(r, size)
	}
	return "", s.errf(s.line, s.col, "unterminated condition")
}

// parser is a recursive-descent parser building a plan tree. The tree is
// cut from a few chunks, not allocated a node, a child list or a name at a
// time: nodes, child lists and binding names each have a chunk, and the
// elements of the bodies and the names of the binding being read wait on
// two stacks until their list is complete.
type parser struct {
	s   scanner
	tok tok

	nodes []plantree.Node
	kids  []*plantree.Node
	names []string

	elems []*plantree.Node
	list  []string
}

// cut returns k consecutive elements of *chunk, capped at k. When the chunk
// has no room it starts a new one, so nothing handed out before moves.
func cut[T any](chunk *[]T, k int) []T {
	if cap(*chunk)-len(*chunk) < k {
		*chunk = make([]T, 0, max(k, 2*cap(*chunk), 16))
	}
	i := len(*chunk)
	*chunk = (*chunk)[:i+k]
	return (*chunk)[i : i+k : i+k]
}

// node returns a node of the kind whose children are the elements stacked
// since base, moved to a child list.
func (p *parser) node(kind plantree.Kind, base int) *plantree.Node {
	n := &cut(&p.nodes, 1)[0]
	n.Kind = kind
	if k := len(p.elems) - base; k > 0 {
		n.Children = cut(&p.kids, k)
		copy(n.Children, p.elems[base:])
		p.elems = p.elems[:base]
	}
	return n
}

// wrap returns a node of the kind over one child.
func (p *parser) wrap(kind plantree.Kind, child *plantree.Node) *plantree.Node {
	p.elems = append(p.elems, child)
	return p.node(kind, len(p.elems)-1)
}

func (p *parser) advance() error {
	t, err := p.s.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return p.s.errf(p.tok.line, p.tok.col, format, args...)
}

func (p *parser) expect(kind tkind, what string) error {
	if p.tok.kind != kind {
		return p.errf("expected %s, found %q", what, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectKeyword(kw string) error {
	if p.tok.kind != tIdent || !strings.EqualFold(p.tok.text, kw) {
		return p.errf("expected %s, found %q", kw, p.tok.text)
	}
	return p.advance()
}

func (p *parser) atKeyword(kw string) bool {
	return p.tok.kind == tIdent && strings.EqualFold(p.tok.text, kw)
}

// Parse parses PDL source into a plan tree. Every condition in it carries
// its parse (Node.Cond).
func Parse(src string) (*plantree.Node, error) {
	p := &parser{s: scanner{src: src, line: 1, col: 1}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("BEGIN"); err != nil {
		return nil, err
	}
	if err := p.expect(tComma, "','"); err != nil {
		return nil, err
	}
	body, err := p.parseBody(tComma)
	if err != nil {
		return nil, err
	}
	if err := p.expect(tComma, "','"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	if p.tok.kind != tEOF {
		return nil, p.errf("unexpected %q after END", p.tok.text)
	}
	root := body.Normalize()
	if err := root.Validate(0); err != nil {
		return nil, err
	}
	return root, nil
}

// parseBody parses element {";" element} until the body is done, at end (a
// ',' before END) or at a closing '}', and returns it as a single node
// (wrapping multi-element bodies in a sequential).
func (p *parser) parseBody(end tkind) (*plantree.Node, error) {
	base := len(p.elems)
	for {
		n, err := p.parseElement()
		if err != nil {
			return nil, err
		}
		p.elems = append(p.elems, n)
		if p.tok.kind == tSemi {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		if p.tok.kind == end || p.tok.kind == tRBrace {
			if len(p.elems)-base == 1 {
				n = p.elems[base]
				p.elems = p.elems[:base]
				return n, nil
			}
			return p.node(plantree.KindSequential, base), nil
		}
		return nil, p.errf("expected ';', found %q", p.tok.text)
	}
}

func (p *parser) parseElement() (*plantree.Node, error) {
	if p.tok.kind == tLBrace {
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch {
		case p.atKeyword("FORK"):
			return p.parseFork()
		case p.atKeyword("CHOICE"):
			return p.parseChoice()
		case p.atKeyword("ITERATIVE"):
			return p.parseIterative()
		default:
			return nil, p.errf("expected FORK, CHOICE, or ITERATIVE, found %q", p.tok.text)
		}
	}
	if p.tok.kind != tIdent {
		return nil, p.errf("expected activity name, found %q", p.tok.text)
	}
	name := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	service := name
	if p.tok.kind == tEquals {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tIdent {
			return nil, p.errf("expected service name after '=', found %q", p.tok.text)
		}
		service = p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	a := p.node(plantree.KindActivity, len(p.elems))
	a.Service = service
	if name != service {
		a.Name = name
	}
	if p.tok.kind == tLParen {
		inputs, outputs, err := p.parseBindings()
		if err != nil {
			return nil, err
		}
		a.Inputs = inputs
		a.Outputs = outputs
	}
	return a, nil
}

// parseBindings parses "(" names ["->" names] ")".
func (p *parser) parseBindings() (inputs, outputs []string, err error) {
	if err := p.advance(); err != nil { // consume '('
		return nil, nil, err
	}
	inputs, err = p.readNames()
	if err != nil {
		return nil, nil, err
	}
	if p.tok.kind == tArrow {
		if err := p.advance(); err != nil {
			return nil, nil, err
		}
		outputs, err = p.readNames()
		if err != nil {
			return nil, nil, err
		}
	}
	if p.tok.kind != tRParen {
		return nil, nil, p.errf("expected ')' after data bindings, found %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return nil, nil, err
	}
	return inputs, outputs, nil
}

// readNames reads Ident {"," Ident}, or nothing (nil).
func (p *parser) readNames() ([]string, error) {
	p.list = p.list[:0]
	for p.tok.kind == tIdent {
		p.list = append(p.list, p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if len(p.list) == 0 {
		return nil, nil
	}
	names := cut(&p.names, len(p.list))
	copy(names, p.list)
	return names, nil
}

// parseBranch parses "{" body "}".
func (p *parser) parseBranch() (*plantree.Node, error) {
	if err := p.expect(tLBrace, "'{'"); err != nil {
		return nil, err
	}
	body, err := p.parseBody(tRBrace)
	if err != nil {
		return nil, err
	}
	if err := p.expect(tRBrace, "'}'"); err != nil {
		return nil, err
	}
	return body, nil
}

// parseCond parses "{" "COND" text "}" and returns the condition with its
// parse (nil for an empty condition). The condition text is captured raw
// from the scanner (it is a different language, handled by package expr),
// so it may contain characters the PDL tokenizer does not know.
func (p *parser) parseCond() (string, expr.Node, error) {
	if err := p.expect(tLBrace, "'{'"); err != nil {
		return "", nil, err
	}
	if !p.atKeyword("COND") {
		return "", nil, p.errf("expected COND, found %q", p.tok.text)
	}
	// Capture everything between COND and the closing brace without
	// tokenizing it.
	cond, err := p.s.condText()
	if err != nil {
		return "", nil, err
	}
	var node expr.Node
	if cond != "" {
		if node, err = expr.Parse(cond); err != nil {
			return "", nil, p.errf("bad condition %q: %v", cond, err)
		}
	}
	// Re-prime the token stream: the next token is the closing brace.
	if err := p.advance(); err != nil {
		return "", nil, err
	}
	if err := p.expect(tRBrace, "'}' after condition"); err != nil {
		return "", nil, err
	}
	return cond, node, nil
}

func (p *parser) parseFork() (*plantree.Node, error) {
	if err := p.advance(); err != nil { // consume FORK
		return nil, err
	}
	base := len(p.elems)
	for p.tok.kind == tLBrace {
		br, err := p.parseBranch()
		if err != nil {
			return nil, err
		}
		p.elems = append(p.elems, br)
	}
	if err := p.expectKeyword("JOIN"); err != nil {
		return nil, err
	}
	if err := p.expect(tRBrace, "'}'"); err != nil {
		return nil, err
	}
	if n := len(p.elems) - base; n < 2 {
		return nil, p.errf("FORK needs at least two branches, has %d", n)
	}
	return p.node(plantree.KindConcurrent, base), nil
}

func (p *parser) parseChoice() (*plantree.Node, error) {
	if err := p.advance(); err != nil { // consume CHOICE
		return nil, err
	}
	base := len(p.elems)
	for p.tok.kind == tLBrace {
		// Peek: a brace group starting with COND is a guard for the next
		// branch; otherwise it is an unguarded branch.
		var cond string
		var guard expr.Node
		save, saveTok := p.s, p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		guarded := p.atKeyword("COND")
		p.s, p.tok = save, saveTok
		if guarded {
			c, g, err := p.parseCond()
			if err != nil {
				return nil, err
			}
			cond, guard = c, g
			if p.tok.kind != tLBrace {
				return nil, p.errf("expected branch after condition, found %q", p.tok.text)
			}
		}
		br, err := p.parseBranch()
		if err != nil {
			return nil, err
		}
		if cond != "" {
			// An iterative alternative keeps its loop condition; its guard
			// goes on a sequential wrapper (same convention as plantree).
			if br.Kind == plantree.KindIterative || br.Condition != "" {
				br = p.wrap(plantree.KindSequential, br)
			}
			br.Condition, br.Cond = cond, guard
		}
		p.elems = append(p.elems, br)
	}
	if err := p.expectKeyword("MERGE"); err != nil {
		return nil, err
	}
	if err := p.expect(tRBrace, "'}'"); err != nil {
		return nil, err
	}
	if n := len(p.elems) - base; n < 2 {
		return nil, p.errf("CHOICE needs at least two alternatives, has %d", n)
	}
	return p.node(plantree.KindSelective, base), nil
}

func (p *parser) parseIterative() (*plantree.Node, error) {
	if err := p.advance(); err != nil { // consume ITERATIVE
		return nil, err
	}
	cond, parsed, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBranch()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tRBrace, "'}'"); err != nil {
		return nil, err
	}
	node := p.wrap(plantree.KindIterative, body)
	if body.Kind == plantree.KindSequential && body.Condition == "" {
		node.Children = body.Children
	}
	node.Condition, node.Cond = cond, parsed
	return node, nil
}

// ParseProcess parses PDL source and converts it to a graph-form process
// description with the given name.
func ParseProcess(name, src string) (*workflow.ProcessDescription, error) {
	tree, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return plantree.ToProcess(name, tree)
}
