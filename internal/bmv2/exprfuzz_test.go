package bmv2

// exprfuzz_test.go pins the width-static opcodes of the compiled
// engine (instr.go) to the operator table of ops.go: seeded random
// programs — expression trees over every operator token, casts,
// ternaries, calls, operands of every width class and scope — run on
// the engine and on the reference interpreter over random packets and
// must agree on output bytes, register contents and Result.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"netcl/internal/p4"
)

// fuzzWidths are the operand widths the fuzzer draws from: the
// single-bit case, odd widths below and above a byte, the power-of-two
// widths, and the two widths next to the 64-bit boundary.
var fuzzWidths = []int{1, 3, 8, 9, 13, 16, 32, 48, 63, 64}

// exprGen generates one random program.
type exprGen struct {
	rng *rand.Rand
	// reads are the names visible to an expression at the current
	// point; writes the assignable ones. Scopes push and pop suffixes.
	reads, writes []string
	// applyLevel: tables may be applied and actions called (inside
	// action or register-action bodies either would recurse or need
	// dynamic scoping).
	applyLevel bool
	// inRegact bounds register-action nesting.
	inRegact int
}

func (g *exprGen) pick(names []string) string { return names[g.rng.Intn(len(names))] }

func fr(name string) *p4.FieldRef { return p4.FR(strings.Split(name, ".")...) }

func (g *exprGen) lit() p4.Expr {
	w := 0
	if g.rng.Intn(3) > 0 {
		w = fuzzWidths[g.rng.Intn(len(fuzzWidths))]
	}
	var v uint64
	switch g.rng.Intn(5) {
	case 0:
		v = 0
	case 1:
		v = 1
	case 2:
		v = uint64(g.rng.Intn(70)) // shift counts on both sides of 63
	case 3:
		v = ^uint64(0) // wider than the literal's declared width
	default:
		v = g.rng.Uint64() >> uint(g.rng.Intn(64))
	}
	return &p4.IntLit{Val: v, Bits: w}
}

var fuzzBinOps = []string{
	"+", "-", "*", "/", "s/", "%", "s%", "&", "|", "^", "<<", ">>", "s>>", "|+|", "|-|",
	"==", "!=", "<", "<=", ">", ">=", "s<", "s<=", "s>", "s>=", "&&", "||",
	"**", // unknown token: zero of the combined width
}

var fuzzUnOps = []string{"~", "-", "!", "+"} // "+" is unknown: passes through

func (g *exprGen) expr(depth int) p4.Expr {
	if depth <= 0 || g.rng.Intn(5) == 0 {
		if g.rng.Intn(4) == 0 {
			return g.lit()
		}
		return fr(g.pick(g.reads))
	}
	switch g.rng.Intn(16) {
	case 0, 1, 2, 3, 4, 5, 6:
		return &p4.Bin{Op: fuzzBinOps[g.rng.Intn(len(fuzzBinOps))], X: g.expr(depth - 1), Y: g.expr(depth - 1)}
	case 7, 8:
		return &p4.Un{Op: fuzzUnOps[g.rng.Intn(len(fuzzUnOps))], X: g.expr(depth - 1)}
	case 9, 10, 11:
		w := fuzzWidths[g.rng.Intn(len(fuzzWidths))]
		if g.rng.Intn(12) == 0 {
			w = []int{0, 70}[g.rng.Intn(2)] // widths outside the static range
		}
		return &p4.Cast{Bits: w, Signed: g.rng.Intn(2) == 0, X: g.expr(depth - 1)}
	case 12:
		return &p4.TernaryExpr{Cond: g.cond(depth - 1), A: g.expr(depth - 1), B: g.expr(depth - 1)}
	case 13:
		return &p4.CallExpr{Recv: g.pick([]string{"hdr.h", "hdr.g", "g", "hdr.nosuch"}), Method: "isValid"}
	case 14:
		n := 1 + g.rng.Intn(3)
		args := make([]p4.Expr, n)
		for i := range args {
			args[i] = g.expr(depth - 1)
		}
		return &p4.CallExpr{Recv: g.pick([]string{"hx", "hc", "hi", "hr"}), Method: "get", Args: args}
	}
	return g.call(depth)
}

// call is an expression-position extern or table call: the impure
// operands that make evaluation order observable.
func (g *exprGen) call(depth int) p4.Expr {
	switch g.rng.Intn(8) {
	case 0:
		if g.applyLevel {
			return &p4.CallExpr{Recv: "t", Method: "apply_hit"}
		}
	case 1:
		return &p4.CallExpr{Recv: g.pick([]string{"nosuch", "t"}), Method: "frob"} // folds to val{0,32}
	case 2:
		return &p4.CallExpr{Recv: "ra_bad", Method: "execute", Args: []p4.Expr{g.expr(0)}}
	}
	if g.inRegact < 2 {
		ra := "ra0"
		if g.inRegact == 0 && g.rng.Intn(2) == 0 {
			ra = "ra1"
		}
		return &p4.CallExpr{Recv: ra, Method: "execute", Args: []p4.Expr{g.index(depth - 1)}}
	}
	return fr(g.pick(g.reads))
}

// cond is an expression biased toward the shapes conditions take:
// comparisons, logical chains, negation, validity.
func (g *exprGen) cond(depth int) p4.Expr {
	switch g.rng.Intn(8) {
	case 0, 1, 2:
		ops := []string{"==", "!=", "<", "<=", ">", ">=", "s<", "s<=", "s>", "s>="}
		return &p4.Bin{Op: ops[g.rng.Intn(len(ops))], X: g.expr(depth), Y: g.expr(depth)}
	case 3:
		return &p4.Bin{Op: g.pick([]string{"&&", "||"}), X: g.cond(depth - 1), Y: g.cond(depth - 1)}
	case 4:
		return &p4.Un{Op: "!", X: g.cond(depth - 1)}
	case 5:
		return &p4.CallExpr{Recv: g.pick([]string{"hdr.h", "hdr.g"}), Method: "isValid"}
	}
	return g.expr(depth)
}

// index is a register index: mostly in range, so cells are revisited.
func (g *exprGen) index(depth int) p4.Expr {
	if g.rng.Intn(4) == 0 {
		return g.expr(depth)
	}
	return &p4.Bin{Op: "&", X: g.expr(depth), Y: &p4.IntLit{Val: 7, Bits: 8}}
}

func (g *exprGen) stmts(n, depth int) []p4.Stmt {
	var out []p4.Stmt
	for i := 0; i < n; i++ {
		out = append(out, g.stmt(depth))
	}
	return out
}

func (g *exprGen) stmt(depth int) p4.Stmt {
	switch k := g.rng.Intn(20); {
	case k < 11 || depth <= 0:
		return &p4.Assign{LHS: fr(g.pick(g.writes)), RHS: g.expr(1 + g.rng.Intn(3))}
	case k < 14:
		st := &p4.If{Cond: g.cond(2), Then: g.stmts(1+g.rng.Intn(2), depth-1)}
		if g.rng.Intn(2) == 0 {
			st.Else = g.stmts(1+g.rng.Intn(2), depth-1)
		}
		return st
	case k == 14 && g.inRegact < 2:
		ra := "ra0"
		if g.inRegact == 0 && g.rng.Intn(2) == 0 {
			ra = "ra1"
		}
		return &p4.CallStmt{Recv: ra, Method: "execute", Args: []p4.Expr{g.index(1)}}
	case k == 15:
		if g.rng.Intn(2) == 0 {
			return &p4.CallStmt{Recv: "r2", Method: "read", Args: []p4.Expr{fr(g.pick(g.writes)), g.index(1)}}
		}
		return &p4.CallStmt{Recv: "r2", Method: "write", Args: []p4.Expr{g.index(1), g.expr(2)}}
	case k == 16 && g.applyLevel:
		n := g.rng.Intn(5) // fewer, as many, or more arguments than parameters
		args := make([]p4.Expr, n)
		for i := range args {
			args[i] = g.expr(2)
		}
		return &p4.CallStmt{Method: "act", Args: args}
	case k == 17 && g.applyLevel:
		return &p4.ApplyTable{Table: "t", HitVar: g.pick([]string{"", "hit_l", "dyn_hit"})}
	case k == 18:
		return &p4.SetValid{Header: "g", Valid: g.rng.Intn(3) > 0}
	case k == 19 && g.rng.Intn(6) == 0:
		return &p4.Exit{}
	case k == 19 && g.rng.Intn(6) == 0:
		// Fails: aborts the packet, or is folded where the enclosing
		// register action sits in an expression.
		return &p4.CallStmt{Recv: "ra_bad", Method: "execute"}
	}
	return &p4.Assign{LHS: fr(g.pick(g.writes)), RHS: g.expr(2)}
}

// program builds a one-table, one-action program around random bodies.
func (g *exprGen) program() *p4.Program {
	pp := &p4.Program{Name: "fz", Target: p4.TargetTNA}
	h := &p4.HeaderDecl{Name: "h"}
	var base, outs []string
	for _, w := range fuzzWidths {
		h.Fields = append(h.Fields, &p4.Field{Name: fmt.Sprintf("i%d", w), Bits: w})
		base = append(base, fmt.Sprintf("hdr.h.i%d", w))
	}
	h.Fields = append(h.Fields, &p4.Field{Name: "pad", Bits: 7}) // 257 input bits -> 33 bytes
	for i, w := range []int{64, 64, 64, 32, 16, 13, 8, 1} {
		h.Fields = append(h.Fields, &p4.Field{Name: fmt.Sprintf("o%d", i), Bits: w})
		outs = append(outs, fmt.Sprintf("hdr.h.o%d", i))
	}
	h.Fields = append(h.Fields, &p4.Field{Name: "tail", Bits: 6}) // 262 output bits + 6
	pp.Headers = []*p4.HeaderDecl{h, {Name: "g", Fields: []*p4.Field{{Name: "a", Bits: 8}, {Name: "b", Bits: 8}}}}
	pp.Metadata = []*p4.Field{
		{Name: "egress_port", Bits: 16}, {Name: "mcast_grp", Bits: 16}, {Name: "drop_flag", Bits: 1},
		{Name: "m32", Bits: 32}, {Name: "ingress_port", Bits: 3}, // narrower than the ports packets arrive on
	}
	pp.Parser = &p4.Parser{Name: "P", States: []*p4.ParserState{{Name: "start", Extracts: []string{"h"}, Next: "accept"}}}

	ctl := &p4.Control{Name: "In"}
	ctl.Locals = []*p4.Field{{Name: "l8", Bits: 8}, {Name: "l33", Bits: 33}, {Name: "l64", Bits: 64}, {Name: "hit_l", Bits: 1}}
	ctl.Registers = []*p4.Register{
		{Name: "r0", Bits: 16, Size: 8}, {Name: "r1", Bits: 64, Size: 4, Init: []int64{5, -1}}, {Name: "r2", Bits: 32, Size: 8},
	}
	ctl.Hashes = []*p4.HashDecl{{Name: "hx", Algo: "xor16", Bits: 16}, {Name: "hc", Algo: "crc32", Bits: 32}, {Name: "hi", Algo: "identity", Bits: 48},
		{Name: "hr", Algo: "random", Bits: 13}}
	locals := []string{"l8", "l33", "l64", "meta.m32", "meta.ingress_port", "hdr.g.a"}
	dyn := []string{"dyn0", "dyn1", "dyn_hit"} // never declared: dynamically typed
	base = append(append(base, outs...), append(locals, dyn...)...)
	writable := append(append(append([]string(nil), outs...), locals...), dyn...)

	scoped := func(names ...string) {
		g.reads = append(append([]string(nil), base...), names...)
		// Scoped names are drawn as often as all globals together.
		for i := 0; i < 4; i++ {
			g.reads = append(g.reads, names...)
			g.writes = append(g.writes, names...)
		}
	}
	// Register actions: ra0 is a leaf, ra1 may call ra0.
	for i, reg := range []string{"r0", "r1"} {
		g.writes = append([]string(nil), writable...)
		scoped("m", "o")
		g.inRegact = 2 - i
		ctl.RegActs = append(ctl.RegActs, &p4.RegisterAction{
			Name: fmt.Sprintf("ra%d", i), Register: reg, Body: g.stmts(1+g.rng.Intn(4), 2),
		})
	}
	ctl.RegActs = append(ctl.RegActs, &p4.RegisterAction{Name: "ra_bad", Register: "nosuch"})
	g.inRegact = 0

	g.writes = append([]string(nil), writable...)
	scoped("p8", "p16", "p33")
	ctl.Actions = []*p4.ActionDecl{{
		Name:   "act",
		Params: []*p4.Field{{Name: "p8", Bits: 8}, {Name: "p16", Bits: 16}, {Name: "p33", Bits: 33}},
		Body:   g.stmts(1+g.rng.Intn(4), 2),
	}}
	ctl.Tables = []*p4.Table{{
		Name:    "t",
		Keys:    []*p4.TableKey{{Expr: p4.FR("hdr", "h", "i3"), Match: p4.MatchExact}},
		Actions: []string{"act"},
		Default: &p4.ActionCall{Name: "act", Args: []uint64{0x1FF, 7}},
		Entries: []*p4.Entry{
			{Keys: []p4.KeyValue{{Value: 1}}, Action: &p4.ActionCall{Name: "act", Args: []uint64{3, 0x12345, ^uint64(0), 9}}},
			{Keys: []p4.KeyValue{{Value: 2}}, Action: &p4.ActionCall{Name: "NoAction"}},
			{Keys: []p4.KeyValue{{Value: 5}}, Action: &p4.ActionCall{Name: "nope"}}, // unknown: a run-time error
		},
	}}

	g.reads, g.writes, g.applyLevel = base, writable, true
	ctl.Apply = g.stmts(4+g.rng.Intn(8), 3)
	g.applyLevel = false
	if g.rng.Intn(4) > 0 {
		ctl.Apply = slices.Insert(ctl.Apply, g.rng.Intn(len(ctl.Apply)+1), g.specRun(h, ctl)...)
	}
	// Make the dynamically-typed names observable: value through a
	// declared output, width through the byte count a hash consumes.
	ctl.Apply = append(ctl.Apply,
		&p4.Assign{LHS: fr("hdr.h.o0"), RHS: &p4.Bin{Op: "^", X: fr("hdr.h.o0"), Y: fr("dyn0")}},
		&p4.Assign{LHS: fr("hdr.h.o3"), RHS: &p4.Bin{Op: "^", X: fr("hdr.h.o3"),
			Y: &p4.CallExpr{Recv: "hc", Method: "get", Args: []p4.Expr{fr("dyn0"), fr("dyn1"), fr("dyn_hit")}}}},
		&p4.Assign{LHS: fr("meta.egress_port"), RHS: &p4.Bin{Op: "|", X: fr("meta.egress_port"), Y: fr("l8")}},
	)
	pp.Ingress = ctl
	return pp
}

// Perturbations of a _spec run (specRun).
const (
	specOperand = iota // one lane reads another shared name at one operand
	specIndex          // one lane indexes with another field
	specSize           // one lane's register has another size
	specCross          // every body reads the field the next lane writes
	specVary           // every body branches on a per-lane field
	specNone
)

// specRun declares a _spec(k)-shaped run in h and ctl and returns its
// statements: k registers of one size and width, one register action
// each, whose bodies are one random body over the lane's own fields
// (h.v<i>, h.w<i>) and shared ones, executed back to back at one
// index. NetCL lowers an array of k values (AGG's 32 aggregation
// registers) to this shape, and bmv2 fuses it into lane-looped
// instructions (fuse.go). Half of the runs are perturbed so that
// fusing them would be wrong; the differential then checks that they
// stay scalar.
func (g *exprGen) specRun(h *p4.HeaderDecl, ctl *p4.Control) []p4.Stmt {
	k := 2 + g.rng.Intn(5)
	w := []int{8, 16, 32, 64}[g.rng.Intn(4)]
	for _, f := range []string{"v", "w"} {
		for i := 0; i <= k; i++ {
			h.Fields = append(h.Fields, &p4.Field{Name: fmt.Sprintf("%s%d", f, i), Bits: w})
		}
	}
	h.Fields = append(h.Fields, &p4.Field{Name: "u", Bits: w}) // shared, of the lanes' width
	kind := specNone
	if g.rng.Intn(2) == 0 {
		kind = g.rng.Intn(specNone)
	}
	odd, seed, expr, other := g.rng.Intn(k), g.rng.Int63(), g.rng.Intn(2) == 0, g.rng.Intn(4) == 0
	var run []p4.Stmt
	for i := 0; i < k; i++ {
		sg := &specGen{rng: rand.New(rand.NewSource(seed)), lane: i, w: w, flip: -1,
			cross: kind == specCross, vary: kind == specVary, other: other}
		size, idx := 8, "hdr.h.i3"
		if i == odd {
			switch kind {
			case specOperand:
				sg.flip = g.rng.Intn(4)
			case specIndex:
				idx = "hdr.h.i1"
			case specSize:
				size = 16
			}
		}
		reg, ra := fmt.Sprintf("sr%d", i), fmt.Sprintf("sa%d", i)
		ctl.Registers = append(ctl.Registers, &p4.Register{Name: reg, Bits: w, Size: size})
		ctl.RegActs = append(ctl.RegActs, &p4.RegisterAction{Name: ra, Register: reg, Body: sg.stmts(1+sg.rng.Intn(4), 2)})
		call := &p4.CallExpr{Recv: ra, Method: "execute", Args: []p4.Expr{fr(idx)}}
		if expr {
			run = append(run, &p4.Assign{LHS: fr(fmt.Sprintf("hdr.h.w%d", i)), RHS: call})
		} else {
			run = append(run, &p4.CallStmt{Recv: ra, Method: "execute", Args: call.Args})
		}
	}
	return run
}

// specGen draws one lane's body of a _spec run. Every lane draws from
// a source seeded alike, so the bodies have one shape: they differ
// only in the lane's own field names, and at leaf flip when one lane
// is perturbed.
type specGen struct {
	rng                *rand.Rand
	lane, w            int
	leaves             int
	flip               int
	cross, vary, other bool
}

func (s *specGen) field(f string, lane int) *p4.FieldRef {
	return fr(fmt.Sprintf("hdr.h.%s%d", f, lane))
}

// leaf draws an operand: the register action's m or o, the lane's own
// fields, names every lane shares, or a literal.
func (s *specGen) leaf() p4.Expr {
	c, v := s.rng.Intn(9), s.rng.Uint64()>>uint(s.rng.Intn(64))
	n := s.leaves
	s.leaves++
	if n == s.flip {
		c = 4 + (c+1)%2 // another shared name than lane 0 reads
	}
	switch c {
	case 0, 1:
		return fr(regactNames[c])
	case 2:
		return s.field("v", s.lane)
	case 3:
		return s.field("w", s.lane)
	case 4:
		return fr("hdr.h.i8")
	case 5:
		return fr("hdr.h.u")
	case 6:
		if s.cross {
			return s.field("w", s.lane+1)
		}
	}
	return &p4.IntLit{Val: v, Bits: s.w}
}

// specOps are the operators opLanes runs, then some it does not run,
// which keep a run scalar when specGen.other allows them.
var specOps = []string{"+", "-", "&", "|", "^", "<<", "*", "|+|"}

func (s *specGen) expr(depth int) p4.Expr {
	c, op := s.rng.Intn(8), s.rng.Intn(len(specOps))
	if !s.other {
		op %= 5
	}
	switch {
	case depth <= 0 || c < 3:
		return s.leaf()
	case c == 3 && s.other:
		return &p4.Un{Op: "~", X: s.expr(depth - 1)}
	}
	return &p4.Bin{Op: specOps[op], X: s.expr(depth - 1), Y: s.expr(depth - 1)}
}

func (s *specGen) stmts(n, depth int) []p4.Stmt {
	var out []p4.Stmt
	for i := 0; i < n; i++ {
		c, dst := s.rng.Intn(6), s.rng.Intn(3)
		switch {
		case c < 3 || depth <= 0:
			lhs := []*p4.FieldRef{fr("m"), fr("o"), s.field("w", s.lane)}[dst]
			out = append(out, &p4.Assign{LHS: lhs, RHS: s.expr(2)})
		case c < 5:
			// Shared operands: every lane takes the branch alike,
			// unless the run is perturbed to branch per lane.
			var x p4.Expr = fr("hdr.h.i8")
			if s.vary {
				x = s.field("v", s.lane)
			}
			out = append(out, &p4.If{Cond: &p4.Bin{Op: "<", X: x, Y: fr("hdr.h.i16")}, Then: s.stmts(1+s.rng.Intn(2), depth-1)})
		default:
			// A copy through o that the coalescer must leave alone: o
			// is read again after it is stored.
			out = append(out,
				&p4.Assign{LHS: fr("o"), RHS: fr("m")},
				&p4.Assign{LHS: s.field("w", s.lane), RHS: fr("o")},
				&p4.Assign{LHS: fr("m"), RHS: &p4.Bin{Op: "+", X: fr("o"), Y: &p4.IntLit{Val: 1, Bits: s.w}}})
		}
	}
	return out
}

// fuzzValue draws a field value biased toward the corner cases of its
// width and toward collisions between fields.
func fuzzValue(rng *rand.Rand, w int) uint64 {
	m := maskOf(w)
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return m
	case 3:
		return m >> 1 // largest positive as a signed value
	case 4:
		return uint64(rng.Intn(8))
	}
	return rng.Uint64() & m
}

// fuzzPacket packs one value per header field, bit by bit.
func fuzzPacket(rng *rand.Rand, h *p4.HeaderDecl) []byte {
	out := make([]byte, (h.Bits()+7)/8+rng.Intn(4))
	bit := 0
	for _, f := range h.Fields {
		v := fuzzValue(rng, f.Bits)
		for i := f.Bits - 1; i >= 0; i-- {
			if v>>uint(i)&1 != 0 {
				out[bit/8] |= 1 << uint(7-bit%8)
			}
			bit++
		}
	}
	for i := (bit + 7) / 8; i < len(out); i++ {
		out[i] = byte(rng.Intn(256))
	}
	return out
}

// diffEngines runs one packet through comp and through the reference
// interpreter over ref — a second switch, so each side steps its own
// registers — and demands the same error text, Result and register
// contents.
func diffEngines(t *testing.T, what string, comp, ref *Switch, pkt []byte, port int) {
	t.Helper()
	cr, cerr := comp.Process(append([]byte(nil), pkt...), port)
	rr, rerr := NewReference(ref).Process(append([]byte(nil), pkt...), port)
	if fmt.Sprint(cerr) != fmt.Sprint(rerr) {
		t.Fatalf("%s: error mismatch on pkt %x:\n  compiled:  %v\n  reference: %v", what, pkt, cerr, rerr)
	}
	if cerr == nil && (!bytes.Equal(cr.Data, rr.Data) || cr.Port != rr.Port || cr.Mcast != rr.Mcast ||
		cr.Dropped != rr.Dropped || cr.NoMatch != rr.NoMatch) {
		t.Fatalf("%s: diverged on pkt %x:\n  compiled:  %+v\n  reference: %+v", what, pkt, cr, rr)
	}
	for _, name := range ref.RegisterNames() {
		cv, _ := comp.ReadRegisters(name)
		rv, _ := ref.ReadRegisters(name)
		for i := range rv {
			if cv[i] != rv[i] {
				t.Fatalf("%s: register %s[%d] = %#x compiled, %#x reference after pkt %x", what, name, i, cv[i], rv[i], pkt)
			}
		}
	}
}

// TestExprDifferentialFuzz: every program the generator produces must
// compile, and the instruction form must match the tree-walker on
// every packet.
func TestExprDifferentialFuzz(t *testing.T) {
	programs, packets := 1500, 24
	if testing.Short() {
		programs = 200
	}
	for seed := 0; seed < programs; seed++ {
		g := &exprGen{rng: rand.New(rand.NewSource(int64(seed)))}
		pp := g.program()
		comp, ref := New(pp), New(pp)
		if comp.CompileErr() != nil {
			t.Fatalf("seed %d: compile refused: %v\n%s", seed, comp.CompileErr(), p4.Print(pp))
		}
		what := fmt.Sprintf("seed %d", seed)
		// The control plane may leave a cell wider than its register.
		for _, r := range pp.Ingress.Registers {
			idx, v := g.rng.Intn(r.Size), g.rng.Uint64()
			for _, sw := range []*Switch{comp, ref} {
				if _, err := sw.Write(NewWriteBatch().RegisterWrite(r.Name, idx, v)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < packets; i++ {
			diffEngines(t, what, comp, ref, fuzzPacket(g.rng, pp.Headers[0]), g.rng.Intn(20))
			if t.Failed() {
				return
			}
		}
	}
}

// TestSpecRunsFuse keeps TestExprDifferentialFuzz meaningful for
// fuse.go: enough of its programs must fuse a _spec run that the
// differential checks lane-looped code, not only the scalar fallback.
func TestSpecRunsFuse(t *testing.T) {
	fused := 0
	for seed := 0; seed < 200; seed++ {
		g := &exprGen{rng: rand.New(rand.NewSource(int64(seed)))}
		if sw := New(g.program()); sw.CompileErr() == nil && len(sw.prog.vregSites) > 0 {
			fused++
		}
	}
	if fused < 40 {
		t.Errorf("%d of the first 200 fuzz programs fuse a register run, want at least 40", fused)
	}
}
