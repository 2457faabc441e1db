// Package p4 models the P4-16 subset that NetCL generates and that the
// handwritten baseline applications use: headers, parsers, match-action
// tables, registers and register actions (TNA), hash externs, and
// imperative control bodies. One AST serves three consumers: the
// pretty-printer (P4 source output), the P4-16 subset parser (baseline
// input), and the bmv2-style interpreter (execution).
package p4

import "strings"

// Target identifies the P4 architecture flavor of a program.
type Target string

// Architectures (paper §VI: TNA and v1model were chosen as opposite
// extremes).
const (
	TargetTNA     Target = "tna"
	TargetV1Model Target = "v1model"
)

// Program is a P4 program.
type Program struct {
	Name    string
	Target  Target
	Headers []*HeaderDecl
	// Metadata fields (bridged/user metadata, flattened).
	Metadata []*Field
	Parser   *Parser
	// Ingress is the main control; NetCL embeds generated code there.
	Ingress *Control
	// Egress is optional (TNA offers an egress stage).
	Egress *Control
}

// HeaderDecl declares a packet header type/instance (one combined
// notion: every header type is instantiated exactly once, by name).
type HeaderDecl struct {
	Name   string
	Fields []*Field
}

// Bits returns the total header width.
func (h *HeaderDecl) Bits() int {
	n := 0
	for _, f := range h.Fields {
		n += f.Bits
	}
	return n
}

// FieldByName returns the field, or nil.
func (h *HeaderDecl) FieldByName(name string) *Field {
	for _, f := range h.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Field is a header or metadata field.
type Field struct {
	Name string
	Bits int
}

// Parser is the parse graph.
type Parser struct {
	Name   string
	States []*ParserState
}

// StateByName returns the named state, or nil.
func (p *Parser) StateByName(name string) *ParserState {
	for _, s := range p.States {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// ParserState extracts headers and transitions.
type ParserState struct {
	Name     string
	Extracts []string // header names, in order
	// Select is nil for unconditional transitions.
	Select *Select
	// Next is the unconditional next state ("accept"/"reject" allowed).
	Next string
}

// Select is a transition select over a field.
type Select struct {
	Key   Expr
	Cases []SelectCase
	// Default is the fallthrough state ("accept", "reject", ...).
	Default string
}

// SelectCase maps one value (with optional mask) to a state.
type SelectCase struct {
	Value uint64
	Mask  uint64 // 0 = exact
	State string
}

// Control is a P4 control block.
type Control struct {
	Name      string
	Locals    []*Field // control-scope variables (bit<N> x;)
	Registers []*Register
	RegActs   []*RegisterAction
	Hashes    []*HashDecl
	Actions   []*ActionDecl
	Tables    []*Table
	Apply     []Stmt
}

// ActionByName returns the named action, or nil.
func (c *Control) ActionByName(name string) *ActionDecl {
	for _, a := range c.Actions {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// TableByName returns the named table, or nil.
func (c *Control) TableByName(name string) *Table {
	for _, t := range c.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// RegisterByName returns the named register, or nil.
func (c *Control) RegisterByName(name string) *Register {
	for _, r := range c.Registers {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// RegActByName returns the named register action, or nil.
func (c *Control) RegActByName(name string) *RegisterAction {
	for _, r := range c.RegActs {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Register is stateful memory (TNA Register extern / v1model register).
type Register struct {
	Name string
	Bits int
	Size int
	Init []int64
}

// RegisterAction is a TNA SALU microprogram: a small body over the
// memory cell ("m") producing an optional output ("o"). On v1model the
// same semantics are emitted as read/modify/write sequences.
type RegisterAction struct {
	Name     string
	Register string
	// Params are run-time inputs referenced by the body (PHV operands).
	Params []*Field
	Body   []Stmt
}

// HashDecl declares a hash extern instance.
type HashDecl struct {
	Name string
	Algo string // one of HashAlgos
	Bits int
}

// HashAlgos is the closed set of hash algorithms a HashDecl may name:
// Parse refuses any other, and the behavioural switch refuses a
// program that declares one.
var HashAlgos = []string{"crc16", "crc32", "crc64", "xor16", "csum16", "csum16r", "identity", "random"}

// ActionDecl is a P4 action.
type ActionDecl struct {
	Name   string
	Params []*Field
	Body   []Stmt
}

// MatchKind is a table key match type.
type MatchKind string

// Match kinds.
const (
	MatchExact   MatchKind = "exact"
	MatchTernary MatchKind = "ternary"
	MatchLPM     MatchKind = "lpm"
	MatchRange   MatchKind = "range"
)

// TableKey is one table key element.
type TableKey struct {
	Expr  Expr
	Match MatchKind
}

// Table is a match-action table.
type Table struct {
	Name    string
	Keys    []*TableKey
	Actions []string
	Default *ActionCall
	Entries []*Entry
	Size    int
	// Const marks compile-time entries (non-managed lookup memory).
	Const bool
}

// Entry is a static or runtime-installed table entry.
type Entry struct {
	Keys   []KeyValue
	Action *ActionCall
	// Priority orders ternary/range entries (lower wins).
	Priority int
}

// KeyValue is a matched value for one key element.
type KeyValue struct {
	Value uint64
	Mask  uint64 // ternary mask (0 = exact)
	Hi    uint64 // range upper bound (range match: Value..Hi)
	// PrefixLen for lpm (bits); -1 = not lpm.
	PrefixLen int
}

// ActionCall invokes an action with constant arguments.
type ActionCall struct {
	Name string
	Args []uint64
}

// Expressions ----------------------------------------------------------

// Expr is a P4 expression.
type Expr interface{ exprNode() }

// FieldRef references a header/metadata field, local, or action param
// by dotted path (e.g. ["hdr","netcl","comp"] or ["tmp1"]).
type FieldRef struct {
	Parts []string
}

// String joins the path.
func (f *FieldRef) String() string { return strings.Join(f.Parts, ".") }

// FR builds a FieldRef.
func FR(parts ...string) *FieldRef { return &FieldRef{Parts: parts} }

// IntLit is a numeric literal; Bits 0 means unsized.
type IntLit struct {
	Val  uint64
	Bits int
}

// Bin is a binary operation. Op is the P4 operator token, including
// the saturating |+| and |-|.
type Bin struct {
	Op   string
	X, Y Expr
}

// Un is a unary operation: ~ ! -.
type Un struct {
	Op string
	X  Expr
}

// Cast converts to bit<Bits>; Signed casts sign-extend (printed as an
// int<N> round-trip).
type Cast struct {
	Bits   int
	Signed bool
	X      Expr
}

// CallExpr is an extern method call used as a value: hash.get({...}),
// ra.execute(idx), reg.read(idx), tbl.apply().hit.
type CallExpr struct {
	Recv   string // extern instance or table name
	Method string // get, execute, read, apply_hit
	Args   []Expr
}

// TernaryExpr is cond ? a : b — used only inside RegisterAction bodies
// where Tofino SALU predication supports it.
type TernaryExpr struct {
	Cond, A, B Expr
}

func (*FieldRef) exprNode()    {}
func (*IntLit) exprNode()      {}
func (*Bin) exprNode()         {}
func (*Un) exprNode()          {}
func (*Cast) exprNode()        {}
func (*CallExpr) exprNode()    {}
func (*TernaryExpr) exprNode() {}

// Statements -----------------------------------------------------------

// Stmt is a P4 statement.
type Stmt interface{ stmtNode() }

// Assign is lhs = rhs.
type Assign struct {
	LHS *FieldRef
	RHS Expr
}

// If is a conditional.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// ApplyTable applies a table; when HitVar is non-empty the hit result
// is stored into that local (bool encoded as bit<1>).
type ApplyTable struct {
	Table  string
	HitVar string
}

// CallStmt is an expression statement: action invocation, reg.write,
// extern call with side effects.
type CallStmt struct {
	Recv   string // empty for plain action calls
	Method string // action name when Recv is empty
	Args   []Expr
}

// SetValid marks a header valid/invalid.
type SetValid struct {
	Header string
	Valid  bool
}

// Exit aborts the control.
type Exit struct{}

// Comment carries a comment line through printing (ignored in
// execution); used to annotate generated code.
type Comment struct {
	Text string
}

func (*Assign) stmtNode()     {}
func (*If) stmtNode()         {}
func (*ApplyTable) stmtNode() {}
func (*CallStmt) stmtNode()   {}
func (*SetValid) stmtNode()   {}
func (*Exit) stmtNode()       {}
func (*Comment) stmtNode()    {}

// Walk visits every statement in a body, parents before children.
func Walk(body []Stmt, fn func(Stmt)) {
	for _, s := range body {
		fn(s)
		if ifs, ok := s.(*If); ok {
			Walk(ifs.Then, fn)
			Walk(ifs.Else, fn)
		}
	}
}

// WalkExprs visits every expression in a statement body.
func WalkExprs(body []Stmt, fn func(Expr)) {
	Walk(body, func(s Stmt) {
		switch st := s.(type) {
		case *Assign:
			walkExpr(st.LHS, fn)
			walkExpr(st.RHS, fn)
		case *If:
			walkExpr(st.Cond, fn)
		case *CallStmt:
			for _, a := range st.Args {
				walkExpr(a, fn)
			}
		}
	})
}

// walkExpr visits every expression inside e, parents before children.
func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Bin:
		walkExpr(x.X, fn)
		walkExpr(x.Y, fn)
	case *Un:
		walkExpr(x.X, fn)
	case *Cast:
		walkExpr(x.X, fn)
	case *CallExpr:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *TernaryExpr:
		walkExpr(x.Cond, fn)
		walkExpr(x.A, fn)
		walkExpr(x.B, fn)
	}
}

// AllExact reports whether every key of the table is an exact match —
// such tables are eligible for hash-index dispatch.
func (t *Table) AllExact() bool {
	for _, k := range t.Keys {
		if k.Match != MatchExact {
			return false
		}
	}
	return true
}

// Controls returns the program's control blocks in pipeline order
// (ingress, then egress when present).
func (p *Program) Controls() []*Control {
	if p.Egress == nil {
		return []*Control{p.Ingress}
	}
	return []*Control{p.Ingress, p.Egress}
}

// HeaderByName finds a header declaration in the program.
func (p *Program) HeaderByName(name string) *HeaderDecl {
	for _, h := range p.Headers {
		if h.Name == name {
			return h
		}
	}
	return nil
}
