package expr

import "strconv"

// Parse parses a condition expression. The empty (or all-whitespace) source
// parses to the constant true, matching the paper's convention that an
// unconditioned transition always fires.
func Parse(src string) (Node, error) {
	p := &parser{lex: lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind == tokEOF {
		return &Const{Val: true}, nil
	}
	n, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.lex.errorf(p.tok.pos, "unexpected %s after expression", p.tok.kind)
	}
	return n, nil
}

type parser struct {
	lex lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) parseOr() (Node, error) {
	first, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	terms := []Node{first}
	for p.tok.kind == tokOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		t, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	if len(terms) == 1 {
		return first, nil
	}
	return &Or{Terms: terms}, nil
}

func (p *parser) parseAnd() (Node, error) {
	first, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	terms := []Node{first}
	for p.tok.kind == tokAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		t, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	if len(terms) == 1 {
		return first, nil
	}
	return &And{Terms: terms}, nil
}

func (p *parser) parseNot() (Node, error) {
	if p.tok.kind == tokNot {
		if err := p.advance(); err != nil {
			return nil, err
		}
		t, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{Term: t}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Node, error) {
	switch p.tok.kind {
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.lex.errorf(p.tok.pos, "expected ')', found %s", p.tok.kind)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return n, nil
	case tokTrue:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Const{Val: true}, nil
	case tokFalse:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Const{Val: false}, nil
	case tokIdent, tokNumber, tokString:
		return p.parseComparison()
	default:
		return nil, p.lex.errorf(p.tok.pos, "expected condition, found %s", p.tok.kind)
	}
}

func (p *parser) parseComparison() (Node, error) {
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokOp {
		return nil, p.lex.errorf(p.tok.pos, "expected comparison operator, found %s", p.tok.kind)
	}
	op, err := parseOp(p.tok.text)
	if err != nil {
		return nil, p.lex.errorf(p.tok.pos, "%v", err)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return &Cmp{Left: left, Op: op, Right: right}, nil
}

func (p *parser) parseOperand() (Operand, error) {
	switch p.tok.kind {
	case tokNumber:
		n, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return Operand{}, p.lex.errorf(p.tok.pos, "bad number %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return Operand{}, err
		}
		return Operand{Lit: Number(n)}, nil
	case tokString:
		s := p.tok.text
		if err := p.advance(); err != nil {
			return Operand{}, err
		}
		return Operand{Lit: String(s)}, nil
	case tokIdent:
		obj := p.tok.text
		if err := p.advance(); err != nil {
			return Operand{}, err
		}
		if p.tok.kind != tokDot {
			// A bare identifier is a string literal; this keeps conditions
			// like Classification = POD-Parameter readable without quotes.
			return Operand{Lit: String(obj)}, nil
		}
		if err := p.advance(); err != nil {
			return Operand{}, err
		}
		if p.tok.kind != tokIdent {
			return Operand{}, p.lex.errorf(p.tok.pos, "expected property name after '.', found %s", p.tok.kind)
		}
		prop := p.tok.text
		if err := p.advance(); err != nil {
			return Operand{}, err
		}
		return Operand{IsRef: true, Ref: Ref{Obj: obj, Prop: prop}}, nil
	default:
		return Operand{}, p.lex.errorf(p.tok.pos, "expected operand, found %s", p.tok.kind)
	}
}

func parseOp(text string) (Op, error) {
	switch text {
	case "=":
		return OpEq, nil
	case "!=":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case ">":
		return OpGt, nil
	case "<=":
		return OpLe, nil
	case ">=":
		return OpGe, nil
	}
	return 0, &SyntaxError{Msg: "unknown operator " + text}
}
