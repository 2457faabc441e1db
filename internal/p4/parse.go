package p4

import (
	"fmt"
	"slices"
	"strings"
)

// Parse reads a P4-16 program in the subset this package models. It
// accepts both generated output (round-trip) and the handwritten
// baseline applications. The target is inferred from the include line
// style if present, else from the top-level package instantiation.
func Parse(name, src string) (*Program, error) {
	toks, err := lexP4(src)
	if err != nil {
		return nil, err
	}
	p := &pparser{src: src, toks: toks, typedefs: map[string]int{}}
	prog := &Program{Name: name, Target: TargetTNA}
	if strings.Contains(src, "v1model.p4") || strings.Contains(src, "V1Switch") {
		prog.Target = TargetV1Model
	}
	if err := p.program(prog); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return prog, nil
}

type pparser struct {
	src      string
	toks     []tok
	pos      int
	typedefs map[string]int
}

func (p *pparser) tok() *tok { return &p.toks[p.pos] }

// text is t's source text, and cur the current token's.
func (p *pparser) text(t tok) string { return p.src[t.start:t.end] }
func (p *pparser) cur() string       { return p.text(p.toks[p.pos]) }

// num decodes an integer token's value and width (0 if unsized); the
// lexer has checked its syntax.
func (p *pparser) num(t tok) (v uint64, bits int) {
	_, v, bits, _ = lexP4Number(p.src, int(t.start), int(t.line))
	return
}

func (p *pparser) val(t tok) uint64 {
	v, _ := p.num(t)
	return v
}
func (p *pparser) next() tok {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *pparser) isIdent(s string) bool { return p.tok().kind == tokIdent && p.cur() == s }
func (p *pparser) isPunct(s string) bool { return p.tok().kind == tokPunct && p.cur() == s }

func (p *pparser) accept(s string) bool {
	// Nested template closers lex as ">>" (e.g. bit<32>>); split them
	// when a single ">" is requested.
	if s == ">" && p.tok().kind == tokPunct && p.cur() == ">>" {
		p.toks[p.pos].start++
		return true
	}
	if p.isPunct(s) || p.isIdent(s) {
		p.next()
		return true
	}
	return false
}

func (p *pparser) expect(s string) error {
	if p.accept(s) {
		return nil
	}
	return fmt.Errorf("line %d: expected %q, found %q", p.tok().line, s, p.cur())
}

func (p *pparser) ident() (string, error) {
	if p.tok().kind != tokIdent {
		return "", fmt.Errorf("line %d: expected identifier, found %q", p.tok().line, p.cur())
	}
	return p.text(p.next()), nil
}

// skipBalanced consumes a balanced (..) or {..} group, assuming the
// opener is the current token.
func (p *pparser) skipBalanced(open, close string) error {
	if err := p.expect(open); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		if p.tok().kind == tokEOF {
			return fmt.Errorf("unexpected EOF in %s%s group", open, close)
		}
		if p.isPunct(open) {
			depth++
		}
		if p.isPunct(close) {
			depth--
		}
		p.next()
	}
	return nil
}

func (p *pparser) skipToSemi() {
	for p.tok().kind != tokEOF && !p.isPunct(";") {
		p.next()
	}
	p.accept(";")
}

// bitType parses bit<N> / int<N> / bool / a typedef name, returning
// the width.
func (p *pparser) bitType() (int, error) {
	if p.isIdent("bit") || p.isIdent("int") {
		p.next()
		if err := p.expect("<"); err != nil {
			return 0, err
		}
		if p.tok().kind != tokInt {
			return 0, fmt.Errorf("line %d: expected width", p.tok().line)
		}
		w := int(p.val(p.next()))
		if err := p.expect(">"); err != nil {
			return 0, err
		}
		return w, nil
	}
	if p.isIdent("bool") {
		p.next()
		return 1, nil
	}
	name, err := p.ident()
	if err != nil {
		return 0, err
	}
	if w, ok := p.typedefs[name]; ok {
		return w, nil
	}
	return 0, fmt.Errorf("line %d: unknown type %q", p.tok().line, name)
}

func (p *pparser) program(prog *Program) error {
	for p.tok().kind != tokEOF {
		switch {
		case p.isIdent("header"):
			if err := p.header(prog); err != nil {
				return err
			}
		case p.isIdent("struct"):
			if err := p.structDecl(prog); err != nil {
				return err
			}
		case p.isIdent("typedef"):
			p.next()
			w, err := p.bitType()
			if err != nil {
				return err
			}
			name, err := p.ident()
			if err != nil {
				return err
			}
			p.typedefs[name] = w
			p.accept(";")
		case p.isIdent("parser"):
			if err := p.parserDecl(prog); err != nil {
				return err
			}
		case p.isIdent("control"):
			if err := p.controlDecl(prog); err != nil {
				return err
			}
		case p.isIdent("const"):
			p.skipToSemi()
		case p.isIdent("Pipeline") || p.isIdent("Switch") || p.isIdent("V1Switch"):
			p.skipToSemi()
		case p.isIdent("error") || p.isIdent("enum"):
			p.next()
			for p.tok().kind != tokEOF && !p.isPunct("{") {
				p.next()
			}
			if err := p.skipBalanced("{", "}"); err != nil {
				return err
			}
		default:
			return fmt.Errorf("line %d: unexpected top-level token %q", p.tok().line, p.cur())
		}
	}
	if prog.Parser == nil {
		return fmt.Errorf("line %d: program has no parser", p.tok().line)
	}
	if prog.Ingress == nil {
		return fmt.Errorf("line %d: program has no ingress control", p.tok().line)
	}
	return nil
}

func (p *pparser) header(prog *Program) error {
	p.next() // header
	name, err := p.ident()
	if err != nil {
		return err
	}
	name = strings.TrimSuffix(name, "_t")
	h := &HeaderDecl{Name: name}
	if err := p.expect("{"); err != nil {
		return err
	}
	for !p.accept("}") {
		w, err := p.bitType()
		if err != nil {
			return err
		}
		fn, err := p.ident()
		if err != nil {
			return err
		}
		if err := p.expect(";"); err != nil {
			return err
		}
		h.Fields = append(h.Fields, &Field{Name: fn, Bits: w})
	}
	prog.Headers = append(prog.Headers, h)
	return nil
}

func (p *pparser) structDecl(prog *Program) error {
	p.next() // struct
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	for !p.accept("}") {
		if p.tok().kind == tokEOF {
			return fmt.Errorf("line %d: unexpected EOF in struct %s", p.tok().line, name)
		}
		if name == "metadata_t" {
			w, err := p.bitType()
			if err != nil {
				return err
			}
			fn, err := p.ident()
			if err != nil {
				return err
			}
			if err := p.expect(";"); err != nil {
				return err
			}
			prog.Metadata = append(prog.Metadata, &Field{Name: fn, Bits: w})
			continue
		}
		// headers_t and friends: skip "type name;" entries.
		p.skipToSemi()
	}
	return nil
}

func (p *pparser) parserDecl(prog *Program) error {
	p.next() // parser
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.skipBalanced("(", ")"); err != nil {
		return err
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	// Secondary parsers (egress) are skipped.
	if prog.Parser != nil {
		depth := 1
		for depth > 0 && p.tok().kind != tokEOF {
			if p.isPunct("{") {
				depth++
			}
			if p.isPunct("}") {
				depth--
			}
			p.next()
		}
		return nil
	}
	ps := &Parser{Name: name}
	for !p.accept("}") {
		if err := p.expect("state"); err != nil {
			return err
		}
		sname, err := p.ident()
		if err != nil {
			return err
		}
		st := &ParserState{Name: sname}
		if err := p.expect("{"); err != nil {
			return err
		}
		for !p.accept("}") {
			switch {
			case p.isIdent("pkt") || p.isIdent("packet"):
				p.next()
				if err := p.expect("."); err != nil {
					return err
				}
				if err := p.expect("extract"); err != nil {
					return err
				}
				if err := p.expect("("); err != nil {
					return err
				}
				ref, err := p.fieldPath()
				if err != nil {
					return err
				}
				parts := ref.Parts
				hn := parts[len(parts)-1]
				st.Extracts = append(st.Extracts, hn)
				if err := p.expect(")"); err != nil {
					return err
				}
				p.accept(";")
			case p.isIdent("transition"):
				p.next()
				if p.isIdent("select") {
					p.next()
					if err := p.expect("("); err != nil {
						return err
					}
					key, err := p.expr()
					if err != nil {
						return err
					}
					if err := p.expect(")"); err != nil {
						return err
					}
					sel := &Select{Key: key, Default: "accept"}
					if err := p.expect("{"); err != nil {
						return err
					}
					for !p.accept("}") {
						if p.isIdent("default") {
							p.next()
							if err := p.expect(":"); err != nil {
								return err
							}
							dst, err := p.ident()
							if err != nil {
								return err
							}
							sel.Default = dst
							p.accept(";")
							continue
						}
						if p.tok().kind != tokInt {
							return fmt.Errorf("line %d: expected select case value", p.tok().line)
						}
						v := p.val(p.next())
						var mask uint64
						if p.accept("&&&") {
							if p.tok().kind != tokInt {
								return fmt.Errorf("line %d: expected mask", p.tok().line)
							}
							mask = p.val(p.next())
						}
						if err := p.expect(":"); err != nil {
							return err
						}
						dst, err := p.ident()
						if err != nil {
							return err
						}
						sel.Cases = append(sel.Cases, SelectCase{Value: v, Mask: mask, State: dst})
						p.accept(";")
					}
					st.Select = sel
				} else {
					dst, err := p.ident()
					if err != nil {
						return err
					}
					st.Next = dst
					p.accept(";")
				}
			default:
				return fmt.Errorf("line %d: unexpected parser statement %q", p.tok().line, p.cur())
			}
		}
		ps.States = append(ps.States, st)
	}
	prog.Parser = ps
	return nil
}

// skippedControls are boilerplate controls ignored by the parser.
var skippedControls = map[string]bool{
	"IgDeparser": true, "EgDeparser": true, "verifyChecksum": true,
	"computeChecksum": true, "EmptyEgress": true, "DeparserImpl": true,
}

func (p *pparser) controlDecl(prog *Program) error {
	p.next() // control
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.skipBalanced("(", ")"); err != nil {
		return err
	}
	if skippedControls[name] {
		return p.skipBalanced("{", "}")
	}
	c := &Control{Name: name}
	if err := p.expect("{"); err != nil {
		return err
	}
	for !p.accept("}") {
		switch {
		case p.isIdent("bit") || p.isIdent("bool") || p.isIdent("int"):
			w, err := p.bitType()
			if err != nil {
				return err
			}
			n, err := p.ident()
			if err != nil {
				return err
			}
			if err := p.expect(";"); err != nil {
				return err
			}
			c.Locals = append(c.Locals, &Field{Name: n, Bits: w})
		case p.isIdent("Register") || p.isIdent("register"):
			if err := p.registerDecl(c); err != nil {
				return err
			}
		case p.isIdent("RegisterAction"):
			if err := p.regActionDecl(c); err != nil {
				return err
			}
		case p.isIdent("Hash") || p.isIdent("Random"):
			if err := p.hashDecl(c); err != nil {
				return err
			}
		case p.isIdent("action"):
			if err := p.actionDecl(c); err != nil {
				return err
			}
		case p.isIdent("table"):
			if err := p.tableDecl(c); err != nil {
				return err
			}
		case p.isIdent("apply"):
			p.next()
			body, err := p.block()
			if err != nil {
				return err
			}
			c.Apply = body
		default:
			return fmt.Errorf("line %d: unexpected control member %q", p.tok().line, p.cur())
		}
	}
	if prog.Ingress == nil {
		prog.Ingress = c
	} else if prog.Egress == nil {
		prog.Egress = c
	}
	return nil
}

func (p *pparser) registerDecl(c *Control) error {
	tna := p.isIdent("Register")
	p.next()
	if err := p.expect("<"); err != nil {
		return err
	}
	bits, err := p.bitType()
	if err != nil {
		return err
	}
	if p.accept(",") {
		if _, err := p.bitType(); err != nil { // index type (TNA)
			return err
		}
	}
	if err := p.expect(">"); err != nil {
		return err
	}
	if err := p.expect("("); err != nil {
		return err
	}
	if p.tok().kind != tokInt {
		return fmt.Errorf("line %d: expected register size", p.tok().line)
	}
	size := int(p.val(p.next()))
	// TNA allows an initial-value second argument.
	if p.accept(",") {
		p.next()
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	_ = tna
	c.Registers = append(c.Registers, &Register{Name: name, Bits: bits, Size: size})
	return nil
}

func (p *pparser) regActionDecl(c *Control) error {
	p.next() // RegisterAction
	if err := p.expect("<"); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		switch {
		case p.tok().kind == tokEOF:
			return fmt.Errorf("unexpected EOF in RegisterAction template arguments")
		case p.isPunct("<"):
			depth++
		case p.isPunct(">"):
			depth--
		case p.isPunct(">>"):
			depth -= 2
		}
		p.next()
	}
	if err := p.expect("("); err != nil {
		return err
	}
	regName, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	raName, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect("="); err != nil {
		return err
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	if err := p.expect("void"); err != nil {
		return err
	}
	if err := p.expect("apply"); err != nil {
		return err
	}
	if err := p.expect("("); err != nil {
		return err
	}
	// Parameter names: first is the cell, second (optional) the output.
	var declared []string
	for !p.accept(")") {
		if p.accept("inout") || p.accept("out") || p.accept("in") {
		}
		if _, err := p.bitType(); err != nil {
			return err
		}
		n, err := p.ident()
		if err != nil {
			return err
		}
		declared = append(declared, n)
		p.accept(",")
	}
	body, err := p.block()
	if err != nil {
		return err
	}
	if err := p.expect("}"); err != nil {
		return err
	}
	p.accept(";")
	// Canonicalize parameter names to m/o.
	canon := map[string]string{}
	if len(declared) > 0 {
		canon[declared[0]] = "m"
	}
	if len(declared) > 1 {
		canon[declared[1]] = "o"
	}
	renameRefs(body, canon)
	c.RegActs = append(c.RegActs, &RegisterAction{Name: raName, Register: regName, Body: body})
	return nil
}

func renameRefs(body []Stmt, canon map[string]string) {
	WalkExprs(body, func(e Expr) {
		if fr, ok := e.(*FieldRef); ok && len(fr.Parts) == 1 {
			if to, ok2 := canon[fr.Parts[0]]; ok2 {
				fr.Parts[0] = to
			}
		}
	})
	Walk(body, func(s Stmt) {
		if a, ok := s.(*Assign); ok && len(a.LHS.Parts) == 1 {
			if to, ok2 := canon[a.LHS.Parts[0]]; ok2 {
				a.LHS.Parts[0] = to
			}
		}
	})
}

func (p *pparser) hashDecl(c *Control) error {
	random := p.isIdent("Random")
	p.next()
	if err := p.expect("<"); err != nil {
		return err
	}
	bits, err := p.bitType()
	if err != nil {
		return err
	}
	if err := p.expect(">"); err != nil {
		return err
	}
	if err := p.expect("("); err != nil {
		return err
	}
	algo := "random"
	if !random {
		// HashAlgorithm_t.CRC16 or HashAlgorithm.crc16.
		if _, err := p.ident(); err != nil {
			return err
		}
		if err := p.expect("."); err != nil {
			return err
		}
		line := p.tok().line
		a, err := p.ident()
		if err != nil {
			return err
		}
		if algo = strings.ToLower(a); !slices.Contains(HashAlgos, algo) {
			return fmt.Errorf("line %d: unknown hash algorithm %q", line, a)
		}
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	c.Hashes = append(c.Hashes, &HashDecl{Name: name, Algo: algo, Bits: bits})
	return nil
}

func (p *pparser) actionDecl(c *Control) error {
	p.next() // action
	name, err := p.ident()
	if err != nil {
		return err
	}
	a := &ActionDecl{Name: name}
	if err := p.expect("("); err != nil {
		return err
	}
	for !p.accept(")") {
		w, err := p.bitType()
		if err != nil {
			return err
		}
		n, err := p.ident()
		if err != nil {
			return err
		}
		a.Params = append(a.Params, &Field{Name: n, Bits: w})
		p.accept(",")
	}
	body, err := p.block()
	if err != nil {
		return err
	}
	a.Body = body
	c.Actions = append(c.Actions, a)
	return nil
}

func (p *pparser) tableDecl(c *Control) error {
	p.next() // table
	name, err := p.ident()
	if err != nil {
		return err
	}
	t := &Table{Name: name}
	if err := p.expect("{"); err != nil {
		return err
	}
	for !p.accept("}") {
		switch {
		case p.isIdent("key"):
			p.next()
			if err := p.expect("="); err != nil {
				return err
			}
			if err := p.expect("{"); err != nil {
				return err
			}
			for !p.accept("}") {
				e, err := p.expr()
				if err != nil {
					return err
				}
				if err := p.expect(":"); err != nil {
					return err
				}
				mk, err := p.ident()
				if err != nil {
					return err
				}
				t.Keys = append(t.Keys, &TableKey{Expr: e, Match: MatchKind(mk)})
				p.accept(";")
			}
		case p.isIdent("actions"):
			p.next()
			if err := p.expect("="); err != nil {
				return err
			}
			if err := p.expect("{"); err != nil {
				return err
			}
			for !p.accept("}") {
				an, err := p.ident()
				if err != nil {
					return err
				}
				t.Actions = append(t.Actions, an)
				p.accept(";")
				p.accept(",")
			}
		case p.isIdent("const") || p.isIdent("entries"):
			if p.accept("const") {
				t.Const = true
			}
			if err := p.expect("entries"); err != nil {
				return err
			}
			if err := p.expect("="); err != nil {
				return err
			}
			if err := p.expect("{"); err != nil {
				return err
			}
			for !p.accept("}") {
				e, err := p.entry(len(t.Entries))
				if err != nil {
					return err
				}
				t.Entries = append(t.Entries, e)
			}
		case p.isIdent("default_action"):
			p.next()
			if err := p.expect("="); err != nil {
				return err
			}
			ac, err := p.actionCall()
			if err != nil {
				return err
			}
			t.Default = ac
			p.accept(";")
		case p.isIdent("size"):
			p.next()
			if err := p.expect("="); err != nil {
				return err
			}
			if p.tok().kind != tokInt {
				return fmt.Errorf("line %d: expected size", p.tok().line)
			}
			t.Size = int(p.val(p.next()))
			p.accept(";")
		default:
			return fmt.Errorf("line %d: unexpected table property %q", p.tok().line, p.cur())
		}
	}
	c.Tables = append(c.Tables, t)
	return nil
}

// entry parses one "keys : action(args);" entry.
func (p *pparser) entry(ordinal int) (*Entry, error) {
	e := &Entry{Priority: ordinal}
	parseKV := func() (KeyValue, error) {
		kv := KeyValue{PrefixLen: -1}
		if p.tok().kind != tokInt {
			return kv, fmt.Errorf("line %d: expected entry key", p.tok().line)
		}
		kv.Value = p.val(p.next())
		switch {
		case p.accept("&&&"):
			if p.tok().kind != tokInt {
				return kv, fmt.Errorf("line %d: expected mask", p.tok().line)
			}
			kv.Mask = p.val(p.next())
		case p.accept(".."):
			if p.tok().kind != tokInt {
				return kv, fmt.Errorf("line %d: expected range end", p.tok().line)
			}
			kv.Hi = p.val(p.next())
		case p.accept("/"):
			if p.tok().kind != tokInt {
				return kv, fmt.Errorf("line %d: expected prefix length", p.tok().line)
			}
			kv.PrefixLen = int(p.val(p.next()))
		}
		return kv, nil
	}
	if p.accept("(") {
		for !p.accept(")") {
			kv, err := parseKV()
			if err != nil {
				return nil, err
			}
			e.Keys = append(e.Keys, kv)
			p.accept(",")
		}
	} else {
		kv, err := parseKV()
		if err != nil {
			return nil, err
		}
		e.Keys = append(e.Keys, kv)
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	ac, err := p.actionCall()
	if err != nil {
		return nil, err
	}
	e.Action = ac
	p.accept(";")
	return e, nil
}

func (p *pparser) actionCall() (*ActionCall, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ac := &ActionCall{Name: name}
	if p.accept("(") {
		for !p.accept(")") {
			if p.tok().kind != tokInt {
				return nil, fmt.Errorf("line %d: action arguments in entries must be literals", p.tok().line)
			}
			ac.Args = append(ac.Args, p.val(p.next()))
			p.accept(",")
		}
	}
	return ac, nil
}
