package p4

// check.go is the type checker at the P4 boundary. P4-16 is statically
// typed, so every width in a program is decided here, once: bmv2 (both
// engines) and p4c read the Widths that Validate returns instead of
// re-deriving them, and refuse what it refuses.

import (
	"fmt"
	"slices"
	"strings"
)

// Widths is the width in bits (1..64) of every expression node of a
// checked program. It lives beside the AST, not in it: Print never
// sees it. A typed literal's and a cast's width is their own, so the
// map holds only the other nodes; read it through Of.
type Widths map[Expr]int

// Of returns e's width.
func (w Widths) Of(e Expr) int {
	switch x := e.(type) {
	case *IntLit:
		return max(x.Bits, w[x])
	case *Cast:
		return x.Bits
	}
	return w[e]
}

// CheckError is Validate's refusal: the construct it could not type
// (a declaration, a name, an operator, a call) and why.
type CheckError struct {
	Program, Construct, Reason string
}

func (e *CheckError) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.Program, e.Construct, e.Reason)
}

// intBits is the width of an untyped literal that neither an operand
// nor a place types: a hash argument, a condition, a table or select
// key, a shift amount, an operand of other untyped literals with no
// place. It keeps the literal's value as written, up to 64 bits.
const intBits = 64

// indexBits is the type of a register index (P4-16's bit<32>).
const indexBits = 32

// checker carries one Validate run.
type checker struct {
	p      *Program
	w      Widths
	global map[string]int       // header fields, metadata, control locals
	regs   map[string]*Register // every control's, as bmv2's register files
	buf    []byte               // the name being looked up
	err    *CheckError
	cur    any   // the action, register action or table being checked; nil elsewhere
	edges  []any // every node's callees, cur's from edges[from:]
	from   int
	calls  map[any][]any // the callees of every node checked (acyclic)
}

// frame is the scope of an action or register-action body, name to
// width: its parameters (a repeated name binds last), or m and o.
type frame map[string]int

func (ck *checker) refuse(construct, format string, args ...any) {
	if ck.err == nil {
		ck.err = &CheckError{ck.p.Name, construct, fmt.Sprintf(format, args...)}
	}
}

// bits refuses a declared width outside 1..64; the construct's name
// is joined from its parts only then.
func (ck *checker) bits(b int, construct ...string) int {
	if b < 1 || b > 64 {
		ck.refuse(strings.Join(construct, " "), "width %d outside 1..64", b)
	}
	return b
}

// Validate type-checks the program and returns the width of every
// expression in it. It refuses, with a *CheckError naming the
// construct, a program without ingress, parser or start state; an
// undeclared name, header, table, action, register, register action,
// hash or extern method; a width outside 1..64; an operator outside
// the closed set; a table naming an undeclared action; a hash algorithm
// outside HashAlgos; a header declared twice; a parser transition to an
// undeclared state or an empty select target; recursion (acyclic).
// Scope is lexical: a body sees its own parameters (or m and o) and
// the globals, never its caller's. Operand and
// result widths follow P4-16: an untyped literal takes the type of the
// other operand, else of the place its value goes (an assignment's
// destination, an action parameter, a register cell or index, a cast),
// else intBits. Both operands typed, arithmetic takes the wider, a
// shift the left operand's, a comparison bit<1>.
func (p *Program) Validate() (Widths, error) {
	ck := &checker{p: p, regs: map[string]*Register{}}
	switch {
	case p.Ingress == nil:
		ck.refuse("control ingress", "missing")
	case p.Parser == nil:
		ck.refuse("parser", "missing")
	case p.Parser.StateByName("start") == nil:
		ck.refuse("parser", "no start state")
	}
	if ck.err != nil {
		return nil, ck.err
	}
	// The maps are sized up front: Validate runs on every program
	// codegen emits, bmv2 instantiates and p4c fits.
	nf, ne, nn := len(p.Metadata), 0, 0
	for _, h := range p.Headers {
		nf += len(h.Fields)
	}
	count := func(Expr) { ne++ }
	for _, c := range p.Controls() {
		nf += len(c.Locals)
		nn += len(c.Actions) + len(c.RegActs) + len(c.Tables)
		WalkExprs(c.Apply, count)
		for _, a := range c.Actions {
			WalkExprs(a.Body, count)
		}
		for _, ra := range c.RegActs {
			WalkExprs(ra.Body, count)
		}
	}
	ck.global = make(map[string]int, nf)
	ck.w = make(Widths, ne)
	// calls holds only the nodes that call: every table, few others.
	ck.calls, ck.edges = make(map[any][]any, nn/4), make([]any, 0, nn)
	for _, c := range p.Controls() {
		for _, l := range c.Locals {
			ck.global[l.Name] = ck.bits(l.Bits, "local", l.Name)
		}
		for _, r := range c.Registers {
			ck.regs[r.Name] = r
			ck.bits(r.Bits, "register", r.Name)
		}
		for _, h := range c.Hashes {
			ck.bits(h.Bits, "hash", h.Name)
			if !slices.Contains(HashAlgos, h.Algo) {
				ck.refuse("hash "+h.Name, "unknown algorithm %q", h.Algo)
			}
		}
	}
	for i, h := range p.Headers {
		if slices.IndexFunc(p.Headers, func(g *HeaderDecl) bool { return g.Name == h.Name }) != i {
			ck.refuse("header "+h.Name, "declared twice")
		}
		for _, f := range h.Fields {
			name := "hdr." + h.Name + "." + f.Name
			ck.global[name] = ck.bits(f.Bits, "field", name)
		}
	}
	for _, f := range p.Metadata {
		name := "meta." + f.Name
		ck.global[name] = ck.bits(f.Bits, "field", name)
	}
	for _, st := range p.Parser.States {
		for _, hn := range st.Extracts {
			if p.HeaderByName(hn) == nil {
				ck.refuse("parser state "+st.Name, "extracts undeclared header %q", hn)
			}
		}
		if st.Select == nil {
			ck.transition(st, st.Next, true)
			continue
		}
		ck.expr(p.Ingress, nil, st.Select.Key, intBits)
		ck.transition(st, st.Select.Default, false)
		for _, sc := range st.Select.Cases {
			ck.transition(st, sc.State, false)
		}
	}
	for _, c := range p.Controls() {
		ck.control(c)
	}
	ck.acyclic()
	if ck.err != nil {
		return nil, ck.err
	}
	return ck.w, nil
}

// transition refuses a target that names no state. An empty target is
// accept for an unconditional transition, and names nothing in a
// select.
func (ck *checker) transition(st *ParserState, to string, unconditional bool) {
	switch {
	case to == "accept" || to == "reject" || ck.p.Parser.StateByName(to) != nil:
	case to == "" && unconditional:
	case to == "":
		ck.refuse("parser state "+st.Name, "empty select target")
	default:
		ck.refuse("parser state "+st.Name, "transition to undeclared state %q", to)
	}
}

// acyclic refuses recursion, which P4 does not have: a cycle in the
// graph whose edges are an action call, a register action's execute
// and a table's apply (a statement, or apply_hit in an expression) to
// each action the table lists, its default included. A table's key
// expressions run when it applies, so their calls are its edges too.
// The type walk recorded the edges (ck.calls).
func (ck *checker) acyclic() {
	at := make(map[any]int, len(ck.calls)) // 1 + a node's index on the path; -1 once done
	var path []any
	var visit func(n any)
	visit = func(n any) {
		if len(ck.calls[n]) == 0 {
			return // a leaf is on no cycle
		}
		if i := at[n]; i > 0 {
			var cycle []string
			for _, m := range append(path[i-1:len(path):len(path)], n) {
				cycle = append(cycle, nodeName(m))
			}
			ck.refuse(cycle[0], "recursive: %s", strings.Join(cycle, " -> "))
			return
		} else if i < 0 {
			return
		}
		path = append(path, n)
		at[n] = len(path)
		for _, m := range ck.calls[n] {
			visit(m)
		}
		path = path[:len(path)-1]
		at[n] = -1
	}
	for _, c := range ck.p.Controls() { // in declaration order, so the refusal is deterministic
		for _, a := range c.Actions {
			visit(a)
		}
		for _, ra := range c.RegActs {
			visit(ra)
		}
		for _, t := range c.Tables {
			visit(t)
		}
	}
}

// enter starts checking n, an action, register action or table (nil:
// anything else), and stores the edges of the one checked before.
func (ck *checker) enter(n any) {
	if len(ck.edges) > ck.from {
		ck.calls[ck.cur] = ck.edges[ck.from:len(ck.edges):len(ck.edges)]
	}
	ck.cur, ck.from = n, len(ck.edges)
}

// edge records that the node being checked may run n.
func (ck *checker) edge(n any) {
	if ck.cur != nil {
		ck.edges = append(ck.edges, n)
	}
}

func nodeName(n any) string {
	switch x := n.(type) {
	case *ActionDecl:
		return "action " + x.Name
	case *RegisterAction:
		return "register action " + x.Name
	}
	return "table " + n.(*Table).Name
}

func (ck *checker) control(c *Control) {
	for _, a := range c.Actions {
		f := frame{}
		for _, prm := range a.Params {
			f[prm.Name] = ck.bits(prm.Bits, "action", a.Name, "parameter", prm.Name)
		}
		ck.enter(a)
		ck.body(c, f, a.Body)
	}
	for _, ra := range c.RegActs {
		reg := c.RegisterByName(ra.Register)
		if reg == nil {
			ck.refuse("register action "+ra.Name, "undeclared register %q", ra.Register)
			continue
		}
		ck.enter(ra)
		ck.body(c, frame{"m": reg.Bits, "o": reg.Bits}, ra.Body)
	}
	for _, t := range c.Tables {
		ck.enter(t)
		for _, an := range t.Actions {
			if a := c.ActionByName(an); a != nil {
				ck.edge(a)
			} else if an != "NoAction" {
				ck.refuse("table "+t.Name, "undeclared action %q", an)
			}
		}
		if t.Default != nil && c.ActionByName(t.Default.Name) != nil {
			ck.edge(c.ActionByName(t.Default.Name))
		}
		for _, k := range t.Keys {
			ck.expr(c, nil, k.Expr, intBits)
		}
	}
	ck.enter(nil)
	ck.body(c, nil, c.Apply)
}

func (ck *checker) body(c *Control, f frame, body []Stmt) {
	for _, s := range body {
		switch x := s.(type) {
		case *Assign:
			ck.expr(c, f, x.RHS, ck.expr(c, f, x.LHS, 0))
		case *If:
			ck.expr(c, f, x.Cond, intBits)
			ck.body(c, f, x.Then)
			ck.body(c, f, x.Else)
		case *ApplyTable:
			if t := c.TableByName(x.Table); t != nil {
				ck.edge(t)
			} else {
				ck.refuse("table "+x.Table, "undeclared")
			}
			if x.HitVar != "" {
				ck.name(f, append(ck.buf[:0], x.HitVar...))
			}
		case *SetValid:
			if ck.p.HeaderByName(x.Header) == nil {
				ck.refuse("header "+x.Header, "undeclared")
			}
		case *CallStmt:
			ck.callStmt(c, f, x)
		}
	}
}

// callStmt types an action call (arguments take their parameters'
// widths), register.read/write (register primitives first, as bmv2
// dispatches them) and a register action's execute.
func (ck *checker) callStmt(c *Control, f frame, x *CallStmt) {
	if x.Recv == "" {
		a := c.ActionByName(x.Method)
		if a == nil {
			ck.refuse("action "+x.Method, "undeclared")
			return
		}
		ck.edge(a)
		for i, arg := range x.Args {
			want := intBits
			if i < len(a.Params) {
				want = a.Params[i].Bits
			}
			ck.expr(c, f, arg, want)
		}
		return
	}
	if r := ck.regs[x.Recv]; r != nil && (x.Method == "read" || x.Method == "write") {
		if len(x.Args) < 2 {
			ck.refuse("call "+x.Recv+"."+x.Method, "needs two arguments")
			return
		}
		if x.Method == "write" {
			ck.expr(c, f, x.Args[0], indexBits)
			ck.expr(c, f, x.Args[1], r.Bits)
			return
		}
		if _, ok := x.Args[0].(*FieldRef); !ok {
			ck.refuse("call "+x.Recv+".read", "destination is not a field")
			return
		}
		ck.expr(c, f, x.Args[0], 0)
		ck.expr(c, f, x.Args[1], indexBits)
		return
	}
	if ra := c.RegActByName(x.Recv); ra != nil && x.Method == "execute" {
		ck.edge(ra)
		ck.args(c, f, x.Args, indexBits)
		return
	}
	ck.refuse("call "+x.Recv+"."+x.Method, "undeclared")
}

// args types call arguments: the first takes want, the rest intBits.
func (ck *checker) args(c *Control, f frame, args []Expr, want int) {
	for _, a := range args {
		ck.expr(c, f, a, want)
		want = intBits
	}
}

// name returns the width of a name: the body's own frame first, then
// the globals. The lookups copy no string.
func (ck *checker) name(f frame, name []byte) int {
	if b, ok := f[string(name)]; ok {
		return b
	}
	if b, ok := ck.global[string(name)]; ok {
		return b
	}
	ck.refuse("name "+string(name), "undeclared")
	return intBits
}

// expr types e, whose value goes to a place of width want, records its
// width and returns it. want decides only an untyped e's width.
func (ck *checker) expr(c *Control, f frame, e Expr, want int) int {
	w := ck.width(c, f, e, want)
	switch x := e.(type) {
	case *IntLit:
		if x.Bits != 0 {
			return w
		}
	case *Cast:
		return w
	}
	ck.w[e] = w
	return w
}

func (ck *checker) width(c *Control, f frame, e Expr, want int) int {
	switch x := e.(type) {
	case *IntLit:
		if x.Bits == 0 {
			return want
		}
		return ck.bits(x.Bits, "literal")
	case *FieldRef:
		ck.buf = ck.buf[:0]
		for i, part := range x.Parts {
			if i > 0 {
				ck.buf = append(ck.buf, '.')
			}
			ck.buf = append(ck.buf, part...)
		}
		return ck.name(f, ck.buf)
	case *Bin:
		switch opKind(x.Op) {
		case opArith:
			return ck.pair(c, f, x.X, x.Y, want)
		case opShift:
			ck.expr(c, f, x.Y, intBits)
			return ck.expr(c, f, x.X, want)
		case opCompare:
			ck.pair(c, f, x.X, x.Y, intBits)
			return 1
		case opLogic:
			ck.expr(c, f, x.X, intBits)
			ck.expr(c, f, x.Y, intBits)
			return 1
		}
		ck.refuse("operator "+x.Op, "unknown")
	case *Un:
		switch x.Op {
		case "~", "-", "+":
			return ck.expr(c, f, x.X, want)
		case "!":
			ck.expr(c, f, x.X, intBits)
			return 1
		}
		ck.refuse("operator "+x.Op, "unknown")
	case *Cast:
		ck.expr(c, f, x.X, x.Bits)
		return ck.bits(x.Bits, "cast")
	case *TernaryExpr:
		ck.expr(c, f, x.Cond, intBits)
		return ck.pair(c, f, x.A, x.B, want)
	case *CallExpr:
		return ck.call(c, f, x)
	default:
		ck.refuse(fmt.Sprintf("expression %T", e), "unsupported")
	}
	return intBits
}

// pair types two operands of one result: both typed, the wider; one
// typed, the other takes its width; neither, both take want.
func (ck *checker) pair(c *Control, f frame, x, y Expr, want int) int {
	switch tx, ty := typed(x), typed(y); {
	case tx && ty:
		return max(ck.expr(c, f, x, 0), ck.expr(c, f, y, 0))
	case ty:
		x, y = y, x
		fallthrough
	case tx:
		want = ck.expr(c, f, x, 0)
	}
	ck.expr(c, f, x, want)
	return ck.expr(c, f, y, want)
}

// call types a call in expression position. Register actions and
// tables resolve against the ingress control, hashes against ingress
// then egress, as bmv2 resolves them.
func (ck *checker) call(c *Control, f frame, x *CallExpr) int {
	ing := ck.p.Ingress
	switch {
	case x.Method == "execute" && ing.RegActByName(x.Recv) != nil:
		ra := ing.RegActByName(x.Recv)
		ck.edge(ra)
		ck.args(c, f, x.Args, indexBits)
		if r := ing.RegisterByName(ra.Register); r != nil {
			return r.Bits
		}
		return intBits // refused with the register action
	case x.Method == "isValid":
		if ck.p.HeaderByName(strings.TrimPrefix(x.Recv, "hdr.")) == nil {
			ck.refuse("header "+x.Recv, "undeclared")
		}
		return 1
	case x.Method == "apply_hit" && ing.TableByName(x.Recv) != nil:
		ck.edge(ing.TableByName(x.Recv))
		return 1
	case x.Method == "get":
		for _, ctl := range ck.p.Controls() {
			for _, h := range ctl.Hashes {
				if h.Name == x.Recv {
					ck.args(c, f, x.Args, intBits)
					return h.Bits
				}
			}
		}
	}
	ck.refuse("call "+x.Recv+"."+x.Method, "undeclared")
	return intBits
}

// Operator classes of the closed binary operator set.
const (
	opUnknown = iota
	opArith   // result: the operands' width
	opShift   // result: the left operand's width
	opCompare // bit<1> over operands of one width
	opLogic   // bit<1> over two conditions
)

func opKind(op string) int {
	switch op {
	case "+", "-", "*", "/", "%", "s/", "s%", "&", "|", "^", "|+|", "|-|":
		return opArith
	case "<<", ">>", "s>>":
		return opShift
	case "==", "!=", "<", "<=", ">", ">=", "s<", "s<=", "s>", "s>=":
		return opCompare
	case "&&", "||":
		return opLogic
	}
	return opUnknown
}

// typed reports whether e has a width of its own, before any place
// gives it one: false for an untyped literal and for what only
// untyped literals decide.
func typed(e Expr) bool {
	switch x := e.(type) {
	case *IntLit:
		return x.Bits != 0
	case *Bin:
		switch opKind(x.Op) {
		case opArith:
			return typed(x.X) || typed(x.Y)
		case opShift:
			return typed(x.X)
		}
	case *Un:
		return x.Op == "!" || typed(x.X)
	case *TernaryExpr:
		return typed(x.A) || typed(x.B)
	}
	return true
}
