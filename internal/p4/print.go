package p4

import (
	"strconv"
	"strings"
)

// LineCat classifies a printed P4 line by construct, following the
// categories of the paper's Figure 12 code-breakdown.
type LineCat string

// Line categories.
const (
	CatHeader    LineCat = "header"    // header definitions
	CatParser    LineCat = "parser"    // parser states and deparsers
	CatMAT       LineCat = "mat"       // tables and their actions
	CatRegAction LineCat = "regaction" // registers, register actions, hashes
	CatControl   LineCat = "control"   // apply blocks and control locals
	CatOther     LineCat = "other"     // includes, structs, pipeline decls
	CatBlank     LineCat = "blank"
)

// printer appends the program text to one buffer, a line at a time,
// and records each line's category. A line is begun by open or w and
// ended by end or w; s, d, u, x and e append to the open line.
type printer struct {
	buf  []byte
	cats []LineCat
	ind  int
}

// open begins a line of category cat at the current indentation.
func (pr *printer) open(cat LineCat, parts ...string) {
	pr.cats = append(pr.cats, cat)
	for n := 0; n < pr.ind; n++ {
		pr.buf = append(pr.buf, "    "...)
	}
	pr.s(parts...)
}

// end finishes the open line.
func (pr *printer) end(parts ...string) {
	pr.s(parts...)
	pr.buf = append(pr.buf, '\n')
}

// w writes one whole line.
func (pr *printer) w(cat LineCat, parts ...string) {
	pr.open(cat, parts...)
	pr.end()
}

func (pr *printer) blank() { pr.w(CatBlank) }

func (pr *printer) s(parts ...string) {
	for _, p := range parts {
		pr.buf = append(pr.buf, p...)
	}
}

func (pr *printer) d(v int)    { pr.buf = strconv.AppendInt(pr.buf, int64(v), 10) }
func (pr *printer) u(v uint64) { pr.buf = strconv.AppendUint(pr.buf, v, 10) }
func (pr *printer) x(v uint64) { pr.buf = strconv.AppendUint(append(pr.buf, "0x"...), v, 16) }
func (pr *printer) e(ex Expr)  { pr.buf = appendExpr(pr.buf, ex) }

// bits appends "bit<n>".
func (pr *printer) bits(n int) {
	pr.s("bit<")
	pr.d(n)
	pr.s(">")
}

// Print renders the program as P4-16 source for its target.
func Print(p *Program) string {
	text, _ := PrintClassified(p)
	return text
}

// PrintClassified renders the program and reports each line's
// construct category (for the Figure 12 breakdown).
func PrintClassified(p *Program) (string, []LineCat) {
	pr := &printer{buf: make([]byte, 0, 8192)}
	pr.open(CatOther, "// Generated or handwritten P4-16 program ")
	pr.buf = strconv.AppendQuote(pr.buf, p.Name)
	pr.end(" for ", string(p.Target), ".")
	pr.w(CatOther, "#include <core.p4>")
	if p.Target == TargetTNA {
		pr.w(CatOther, "#include <tna.p4>")
	} else {
		pr.w(CatOther, "#include <v1model.p4>")
	}
	pr.blank()

	for _, h := range p.Headers {
		pr.w(CatHeader, "header ", h.Name, "_t {")
		pr.ind++
		for _, f := range h.Fields {
			pr.open(CatHeader)
			pr.bits(f.Bits)
			pr.end(" ", f.Name, ";")
		}
		pr.ind--
		pr.w(CatHeader, "}")
	}
	pr.blank()

	pr.w(CatOther, "struct headers_t {")
	pr.ind++
	for _, h := range p.Headers {
		pr.w(CatOther, h.Name, "_t ", h.Name, ";")
	}
	pr.ind--
	pr.w(CatOther, "}")
	pr.w(CatOther, "struct metadata_t {")
	pr.ind++
	for _, f := range p.Metadata {
		pr.open(CatOther)
		pr.bits(f.Bits)
		pr.end(" ", f.Name, ";")
	}
	pr.ind--
	pr.w(CatOther, "}")
	pr.blank()

	printParser(pr, p)
	pr.blank()
	printControl(pr, p, p.Ingress)
	if p.Egress != nil {
		pr.blank()
		printControl(pr, p, p.Egress)
	}
	pr.blank()
	printDeparser(pr, p)
	pr.blank()
	if p.Target == TargetTNA {
		pr.w(CatOther, "Pipeline(IgParser(), ", p.Ingress.Name, "(), IgDeparser(), EgParser(), ", egressName(p), "(), EgDeparser()) pipe;")
		pr.w(CatOther, "Switch(pipe) main;")
	} else {
		pr.w(CatOther, "V1Switch(IgParser(), verifyChecksum(), ", p.Ingress.Name, "(), ", egressName(p), "(), computeChecksum(), IgDeparser()) main;")
	}
	return string(pr.buf), pr.cats
}

func egressName(p *Program) string {
	if p.Egress != nil {
		return p.Egress.Name
	}
	return "EmptyEgress"
}

func printParser(pr *printer, p *Program) {
	if p.Target == TargetTNA {
		pr.w(CatParser, "parser IgParser(packet_in pkt, out headers_t hdr, out metadata_t meta,")
		pr.w(CatParser, "                out ingress_intrinsic_metadata_t ig_intr_md) {")
	} else {
		pr.w(CatParser, "parser IgParser(packet_in pkt, out headers_t hdr, inout metadata_t meta,")
		pr.w(CatParser, "                inout standard_metadata_t standard_metadata) {")
	}
	pr.ind++
	for _, s := range p.Parser.States {
		pr.w(CatParser, "state ", s.Name, " {")
		pr.ind++
		for _, ext := range s.Extracts {
			pr.w(CatParser, "pkt.extract(hdr.", ext, ");")
		}
		if s.Select != nil {
			pr.open(CatParser, "transition select(")
			pr.e(s.Select.Key)
			pr.end(") {")
			pr.ind++
			for _, c := range s.Select.Cases {
				pr.open(CatParser)
				if c.Mask != 0 {
					pr.x(c.Value)
					pr.s(" &&& ")
					pr.x(c.Mask)
				} else {
					pr.u(c.Value)
				}
				pr.end(" : ", c.State, ";")
			}
			pr.w(CatParser, "default : ", s.Select.Default, ";")
			pr.ind--
			pr.w(CatParser, "}")
		} else {
			next := s.Next
			if next == "" {
				next = "accept"
			}
			pr.w(CatParser, "transition ", next, ";")
		}
		pr.ind--
		pr.w(CatParser, "}")
	}
	pr.ind--
	pr.w(CatParser, "}")
}

func printDeparser(pr *printer, p *Program) {
	pr.w(CatParser, "control IgDeparser(packet_out pkt, inout headers_t hdr) {")
	pr.ind++
	pr.w(CatParser, "apply {")
	pr.ind++
	for _, h := range p.Headers {
		pr.w(CatParser, "pkt.emit(hdr.", h.Name, ");")
	}
	pr.ind--
	pr.w(CatParser, "}")
	pr.ind--
	pr.w(CatParser, "}")
}

func printControl(pr *printer, p *Program, c *Control) {
	pr.w(CatControl, "control ", c.Name, "(inout headers_t hdr, inout metadata_t meta,")
	if p.Target == TargetTNA {
		pr.w(CatControl, "        in ingress_intrinsic_metadata_t ig_intr_md,")
		pr.w(CatControl, "        inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {")
	} else {
		pr.w(CatControl, "        inout standard_metadata_t standard_metadata) {")
	}
	pr.ind++
	for _, l := range c.Locals {
		pr.open(CatControl)
		pr.bits(l.Bits)
		pr.end(" ", l.Name, ";")
	}
	for _, h := range c.Hashes {
		if h.Algo == "random" {
			pr.open(CatRegAction, "Random<")
			pr.bits(h.Bits)
			pr.end(">() ", h.Name, ";")
			continue
		}
		pr.open(CatRegAction, "Hash<")
		pr.bits(h.Bits)
		if p.Target == TargetTNA {
			pr.end(">(HashAlgorithm_t.", strings.ToUpper(h.Algo), ") ", h.Name, ";")
		} else {
			pr.end(">(HashAlgorithm.", h.Algo, ") ", h.Name, ";")
		}
	}
	for _, r := range c.Registers {
		if p.Target == TargetTNA {
			pr.open(CatRegAction, "Register<")
			pr.bits(r.Bits)
			pr.s(", bit<32>>(")
		} else {
			pr.open(CatRegAction, "register<")
			pr.bits(r.Bits)
			pr.s(">(")
		}
		pr.d(r.Size)
		pr.end(") ", r.Name, ";")
	}
	for _, ra := range c.RegActs {
		printRegAct(pr, p, c, ra)
	}
	for _, a := range c.Actions {
		pr.open(CatMAT, "action ", a.Name, "(")
		for n, f := range a.Params {
			if n > 0 {
				pr.s(", ")
			}
			pr.bits(f.Bits)
			pr.s(" ", f.Name)
		}
		pr.end(") {")
		pr.ind++
		printStmts(pr, CatMAT, a.Body)
		pr.ind--
		pr.w(CatMAT, "}")
	}
	for _, t := range c.Tables {
		printTable(pr, t)
	}
	pr.w(CatControl, "apply {")
	pr.ind++
	printStmts(pr, CatControl, c.Apply)
	pr.ind--
	pr.w(CatControl, "}")
	pr.ind--
	pr.w(CatControl, "}")
}

func printRegAct(pr *printer, p *Program, c *Control, ra *RegisterAction) {
	if p.Target != TargetTNA {
		pr.w(CatRegAction, "// register action ", ra.Name, " over ", ra.Register, " (expanded to read/modify/write)")
		return
	}
	bits := 32
	if reg := c.RegisterByName(ra.Register); reg != nil {
		bits = reg.Bits
	}
	pr.open(CatRegAction, "RegisterAction<")
	pr.bits(bits)
	pr.s(", bit<32>, ")
	pr.bits(bits)
	pr.end(">(", ra.Register, ") ", ra.Name, " = {")
	pr.ind++
	pr.open(CatRegAction, "void apply(inout ")
	pr.bits(bits)
	pr.s(" m, out ")
	pr.bits(bits)
	pr.end(" o) {")
	pr.ind++
	printStmts(pr, CatRegAction, ra.Body)
	pr.ind--
	pr.w(CatRegAction, "}")
	pr.ind--
	pr.w(CatRegAction, "};")
}

func printTable(pr *printer, t *Table) {
	pr.w(CatMAT, "table ", t.Name, " {")
	pr.ind++
	if len(t.Keys) > 0 {
		pr.w(CatMAT, "key = {")
		pr.ind++
		for _, k := range t.Keys {
			pr.open(CatMAT)
			pr.e(k.Expr)
			pr.end(" : ", string(k.Match), ";")
		}
		pr.ind--
		pr.w(CatMAT, "}")
	}
	acts := "" // each action ends in "; ", so an empty list prints "{ }"
	for _, a := range t.Actions {
		acts += a + "; "
	}
	pr.w(CatMAT, "actions = { ", acts, "}")
	if len(t.Entries) > 0 {
		kw := "entries"
		if t.Const {
			kw = "const entries"
		}
		pr.w(CatMAT, kw, " = {")
		pr.ind++
		for _, e := range t.Entries {
			pr.open(CatMAT)
			pr.entryKey(e)
			pr.s(" : ")
			pr.actionCall(e.Action)
			pr.end(";")
		}
		pr.ind--
		pr.w(CatMAT, "}")
	}
	if t.Default != nil {
		pr.open(CatMAT, "default_action = ")
		pr.actionCall(t.Default)
		pr.end(";")
	}
	if t.Size > 0 {
		pr.open(CatMAT, "size = ")
		pr.d(t.Size)
		pr.end(";")
	}
	pr.ind--
	pr.w(CatMAT, "}")
}

func (pr *printer) entryKey(e *Entry) {
	if len(e.Keys) != 1 {
		pr.s("(")
	}
	for n, kv := range e.Keys {
		if n > 0 {
			pr.s(", ")
		}
		switch {
		case kv.Mask != 0:
			pr.x(kv.Value)
			pr.s(" &&& ")
			pr.x(kv.Mask)
		case kv.Hi != 0 && kv.Hi != kv.Value:
			pr.u(kv.Value)
			pr.s("..")
			pr.u(kv.Hi)
		case kv.PrefixLen > 0:
			pr.x(kv.Value)
			pr.s("/")
			pr.d(kv.PrefixLen)
		default:
			pr.u(kv.Value)
		}
	}
	if len(e.Keys) != 1 {
		pr.s(")")
	}
}

func (pr *printer) actionCall(a *ActionCall) {
	pr.s(a.Name, "(")
	for n, v := range a.Args {
		if n > 0 {
			pr.s(", ")
		}
		pr.u(v)
	}
	pr.s(")")
}

func printStmts(pr *printer, cat LineCat, body []Stmt) {
	for _, s := range body {
		switch st := s.(type) {
		case *Assign:
			pr.open(cat)
			pr.e(st.LHS)
			pr.s(" = ")
			pr.e(st.RHS)
			pr.end(";")
		case *If:
			pr.open(cat, "if (")
			pr.e(st.Cond)
			pr.end(") {")
			pr.ind++
			printStmts(pr, cat, st.Then)
			pr.ind--
			if len(st.Else) > 0 {
				pr.w(cat, "} else {")
				pr.ind++
				printStmts(pr, cat, st.Else)
				pr.ind--
			}
			pr.w(cat, "}")
		case *ApplyTable:
			if st.HitVar != "" {
				pr.w(cat, st.HitVar, " = (bit<1>)(", st.Table, ".apply().hit ? 1w1 : 1w0);")
			} else {
				pr.w(cat, st.Table, ".apply();")
			}
		case *CallStmt:
			if st.Recv != "" {
				pr.open(cat, st.Recv, ".", st.Method, "(")
			} else {
				pr.open(cat, st.Method, "(")
			}
			pr.buf = appendArgs(pr.buf, st.Args)
			pr.end(");")
		case *SetValid:
			m := "setInvalid"
			if st.Valid {
				m = "setValid"
			}
			pr.w(cat, "hdr.", st.Header, ".", m, "();")
		case *Exit:
			pr.w(cat, "exit;")
		case *Comment:
			pr.w(cat, "// ", st.Text)
		}
	}
}

// appendExpr appends e as P4 source.
func appendExpr(b []byte, e Expr) []byte {
	switch x := e.(type) {
	case *FieldRef:
		for n, p := range x.Parts {
			if n > 0 {
				b = append(b, '.')
			}
			b = append(b, p...)
		}
		return b
	case *IntLit:
		if x.Bits > 0 {
			b = strconv.AppendInt(b, int64(x.Bits), 10)
			b = append(b, 'w')
		}
		return strconv.AppendUint(b, x.Val, 10)
	case *Bin:
		b = appendExpr(append(b, '('), x.X)
		b = append(append(append(b, ' '), x.Op...), ' ')
		return append(appendExpr(b, x.Y), ')')
	case *Un:
		b = append(append(b, '('), x.Op...)
		return append(appendExpr(b, x.X), ')')
	case *Cast:
		b = append(b, "(bit<"...)
		b = strconv.AppendInt(b, int64(x.Bits), 10)
		b = append(b, ">)"...)
		if x.Signed {
			b = append(b, "(int<"...)
			b = strconv.AppendInt(b, int64(x.Bits), 10)
			b = append(b, ">)"...)
		}
		return appendExpr(b, x.X)
	case *CallExpr:
		if x.Method == "apply_hit" {
			return append(append(b, x.Recv...), ".apply().hit"...)
		}
		b = append(append(append(b, x.Recv...), '.'), x.Method...)
		return append(appendArgs(append(b, '('), x.Args), ')')
	case *TernaryExpr:
		b = appendExpr(append(b, '('), x.Cond)
		b = appendExpr(append(b, " ? "...), x.A)
		b = appendExpr(append(b, " : "...), x.B)
		return append(b, ')')
	}
	return append(b, "/*?*/"...)
}

// appendArgs appends a comma-separated expression list.
func appendArgs(b []byte, args []Expr) []byte {
	for n, a := range args {
		if n > 0 {
			b = append(b, ", "...)
		}
		b = appendExpr(b, a)
	}
	return b
}
