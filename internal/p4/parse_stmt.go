package p4

import (
	"fmt"
	"strings"
)

// block parses "{ stmt* }".
func (p *pparser) block() ([]Stmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.accept("}") {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			out = append(out, s)
		}
	}
	return out, nil
}

func (p *pparser) stmt() (Stmt, error) {
	switch {
	case p.isIdent("if"):
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		var then, els []Stmt
		if p.isPunct("{") {
			then, err = p.block()
		} else {
			var s Stmt
			s, err = p.stmt()
			then = []Stmt{s}
		}
		if err != nil {
			return nil, err
		}
		if p.accept("else") {
			if p.isPunct("{") {
				els, err = p.block()
			} else {
				var s Stmt
				s, err = p.stmt()
				els = []Stmt{s}
			}
			if err != nil {
				return nil, err
			}
		}
		return &If{Cond: cond, Then: then, Else: els}, nil

	case p.isIdent("exit"):
		p.next()
		p.accept(";")
		return &Exit{}, nil

	case p.isPunct(";"):
		p.next()
		return nil, nil
	}

	// Path-based statement: assignment, call, or table apply.
	path, err := p.fieldPath()
	if err != nil {
		return nil, err
	}
	if p.accept("=") {
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.accept(";")
		return assignOrApply(path, rhs), nil
	}
	if p.isPunct("(") {
		// Method or action call.
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var args []Expr
		for !p.accept(")") {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			p.accept(",")
		}
		p.accept(";")
		return callFromPath(path, args)
	}
	return nil, fmt.Errorf("line %d: unexpected statement near %q", p.tok().line, path.String())
}

// assignOrApply reconstructs the ApplyTable-with-hit form printed as
// "x = tbl.apply().hit ? 1w1 : 1w0;".
func assignOrApply(lhs *FieldRef, rhs Expr) Stmt {
	if t, ok := rhs.(*TernaryExpr); ok {
		if call, ok2 := t.Cond.(*CallExpr); ok2 && call.Method == "apply_hit" {
			a, aok := t.A.(*IntLit)
			b, bok := t.B.(*IntLit)
			if aok && bok && a.Val == 1 && b.Val == 0 && len(lhs.Parts) == 1 {
				return &ApplyTable{Table: call.Recv, HitVar: lhs.Parts[0]}
			}
		}
	}
	// Strip a cast around the same pattern.
	if c, ok := rhs.(*Cast); ok {
		if s := assignOrApply(lhs, c.X); s != nil {
			if at, ok2 := s.(*ApplyTable); ok2 {
				return at
			}
		}
	}
	return &Assign{LHS: lhs, RHS: rhs}
}

// callFromPath classifies a parsed "a.b.c(args)" statement.
func callFromPath(path *FieldRef, args []Expr) (Stmt, error) {
	parts := path.Parts
	last := parts[len(parts)-1]
	recv := strings.Join(parts[:len(parts)-1], ".")
	switch last {
	case "apply":
		return &ApplyTable{Table: recv}, nil
	case "setValid", "setInvalid":
		hdrName := recv
		hdrName = strings.TrimPrefix(hdrName, "hdr.")
		return &SetValid{Header: hdrName, Valid: last == "setValid"}, nil
	}
	if len(parts) == 1 {
		// Plain action invocation.
		return &CallStmt{Method: last, Args: args}, nil
	}
	return &CallStmt{Recv: recv, Method: last, Args: args}, nil
}

// Expressions.

func (p *pparser) expr() (Expr, error) { return p.ternaryExpr() }

func (p *pparser) ternaryExpr() (Expr, error) {
	c, err := p.binExpr(0)
	if err != nil {
		return nil, err
	}
	if p.accept("?") {
		a, err := p.ternaryExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		b, err := p.ternaryExpr()
		if err != nil {
			return nil, err
		}
		return &TernaryExpr{Cond: c, A: a, B: b}, nil
	}
	return c, nil
}

var p4Prec = map[string]int{
	"||": 1, "&&": 2,
	"|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7, "s<": 7, "s<=": 7, "s>": 7, "s>=": 7,
	"<<": 8, ">>": 8, "s>>": 8,
	"+": 9, "-": 9, "|+|": 9, "|-|": 9,
	"*": 10, "/": 10, "%": 10, "s/": 10, "s%": 10,
}

func (p *pparser) binExpr(minPrec int) (Expr, error) {
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		if p.tok().kind != tokPunct {
			return lhs, nil
		}
		op := p.cur()
		prec, ok := p4Prec[op]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		// '>' could close a template; tables/types never reach here.
		p.next()
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Bin{Op: op, X: lhs, Y: rhs}
	}
}

func (p *pparser) unaryExpr() (Expr, error) {
	if p.isPunct("~") || p.isPunct("!") || p.isPunct("-") {
		op := p.text(p.next())
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &Un{Op: op, X: x}, nil
	}
	return p.primaryExpr()
}

func (p *pparser) primaryExpr() (Expr, error) {
	t := p.tok()
	switch {
	case t.kind == tokInt:
		p.next()
		v, bits := p.num(*t)
		return &IntLit{Val: v, Bits: bits}, nil
	case p.isPunct("("):
		// Cast "(bit<N>)x" / "(int<N>)x" or parenthesized expression.
		save := p.pos
		p.next()
		if p.isIdent("bit") || p.isIdent("int") {
			signed := p.isIdent("int")
			if w, err := p.bitType(); err == nil {
				if p.accept(")") {
					x, err := p.unaryExpr()
					if err != nil {
						return nil, err
					}
					// Collapse the printed (bit<N>)(int<N>)x pattern.
					if inner, ok := x.(*Cast); ok && inner.Signed && inner.Bits == w && !signed {
						return inner, nil
					}
					return &Cast{Bits: w, Signed: signed, X: x}, nil
				}
			}
			p.pos = save
			p.next()
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		path, err := p.fieldPath()
		if err != nil {
			return nil, err
		}
		if p.isPunct("(") {
			p.next()
			var args []Expr
			for !p.accept(")") {
				// Field lists {a, b} used by hash .get calls.
				if p.accept("{") {
					for !p.accept("}") {
						a, err := p.expr()
						if err != nil {
							return nil, err
						}
						args = append(args, a)
						p.accept(",")
					}
				} else {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
				}
				p.accept(",")
			}
			parts := path.Parts
			method := parts[len(parts)-1]
			recv := strings.Join(parts[:len(parts)-1], ".")
			call := &CallExpr{Recv: recv, Method: method, Args: args}
			// "t.apply().hit" → apply_hit.
			if method == "apply" && p.isPunct(".") {
				p.next()
				sel, err := p.ident()
				if err != nil {
					return nil, err
				}
				if sel == "hit" {
					return &CallExpr{Recv: recv, Method: "apply_hit"}, nil
				}
				if sel == "miss" {
					return &Un{Op: "!", X: &CallExpr{Recv: recv, Method: "apply_hit"}}, nil
				}
				return nil, fmt.Errorf("line %d: unsupported apply().%s", t.line, sel)
			}
			return call, nil
		}
		return path, nil
	}
	return nil, fmt.Errorf("line %d: unexpected token %q in expression", t.line, p.text(*t))
}

// fieldPath parses a dotted identifier path.
func (p *pparser) fieldPath() (*FieldRef, error) {
	first, err := p.ident()
	if err != nil {
		return nil, err
	}
	fr := &FieldRef{Parts: []string{first}}
	for p.isPunct(".") {
		// Stop before method call segments handled by callers? No:
		// include them; callers split the last segment as needed.
		save := p.pos
		p.next()
		if p.tok().kind != tokIdent {
			p.pos = save
			break
		}
		fr.Parts = append(fr.Parts, p.text(p.next()))
		if p.isPunct("(") {
			break
		}
	}
	return fr, nil
}
