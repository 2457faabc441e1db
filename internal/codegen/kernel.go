package codegen

import (
	"fmt"

	"netcl/internal/ir"
	"netcl/internal/p4"
	"netcl/internal/wire"
)

// kernel-emission state (reset per kernel).
type kernelState struct {
	f    *ir.Func
	pdt  *ir.PostDomTree
	uses map[ir.Value]int
	hdr  string // data header name
	// stored marks message parameters written somewhere in the kernel.
	stored map[*ir.MsgParam]bool
	// skip marks StoreMsg instructions whose value was sunk into the
	// producing instruction (result written straight to the header
	// field, saving a PHV temporary).
	skip map[*ir.Instr]bool
	// reach is strict block reachability (for join detection).
	reach map[*ir.Block]map[*ir.Block]bool
	// emitted guards against emitting side-effecting blocks twice
	// during structurization-by-duplication.
	emitted map[*ir.Block]bool
}

// sinkTarget reports whether i's only use is a constant-index StoreMsg
// in the same block with no intervening access to the same parameter;
// if so the producer can write the header field directly.
func (ks *kernelState) sinkTarget(i *ir.Instr) (*ir.Instr, bool) {
	if ks.uses[ir.Value(i)] != 1 {
		return nil, false
	}
	blk := i.Block()
	if blk == nil {
		return nil, false
	}
	seen := false
	for _, x := range blk.Instrs {
		if x == i {
			seen = true
			continue
		}
		if !seen {
			continue
		}
		if x.Op == ir.OpStoreMsg && len(x.Args) == 2 && x.Args[1] == ir.Value(i) {
			if _, isConst := x.Args[0].(*ir.Const); isConst {
				return x, true
			}
			return nil, false
		}
		// Any other access to the same argument between producer and
		// store forbids the sink.
		if (x.Op == ir.OpLoadMsg || x.Op == ir.OpStoreMsg) && usesValue(x, i) {
			return nil, false
		}
		for _, a := range x.Args {
			if a == ir.Value(i) {
				return nil, false // used before the store
			}
		}
	}
	return nil, false
}

func usesValue(x *ir.Instr, v *ir.Instr) bool {
	for _, a := range x.Args {
		if a == ir.Value(v) {
			return true
		}
	}
	return false
}

func (g *generator) genKernel(f *ir.Func) []p4.Stmt {
	g.curKernelTag = fmt.Sprintf("c%d", f.Comp)
	ks := &kernelState{
		f:       f,
		pdt:     ir.BuildPostDomTree(f),
		uses:    useCounts(f),
		hdr:     dataHeaderName(f.Comp),
		stored:  map[*ir.MsgParam]bool{},
		skip:    map[*ir.Instr]bool{},
		reach:   ir.Reach(f),
		emitted: map[*ir.Block]bool{},
	}
	f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpStoreMsg {
			ks.stored[i.Param] = true
		}
		return true
	})
	body := []p4.Stmt{
		&p4.Comment{Text: fmt.Sprintf("kernel %s (computation %d)", f.Name, f.Comp)},
		// Predicate variable for structurization (§VI-B): early kernel
		// returns set it so continuation regions can be guarded.
		&p4.Assign{LHS: p4.FR(g.doneVar()), RHS: &p4.IntLit{Val: 0, Bits: 1}},
	}
	g.declLocal(g.doneVar(), 1)
	return append(body, g.emitRegion(ks, f.Entry(), nil)...)
}

// doneVar names the current kernel's return-predicate variable.
func (g *generator) doneVar() string { return "done_" + g.curKernelTag }

func useCounts(f *ir.Func) map[ir.Value]int {
	uses := map[ir.Value]int{}
	f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
		for _, a := range i.Args {
			uses[a]++
		}
		return true
	})
	return uses
}

// emitRegion linearizes the DAG region [b, stop) into structured P4,
// following the paper's reverse-postorder scope construction: branch
// targets open sub-scopes and the join (immediate postdominator) is
// emitted in the parent scope.
func (g *generator) emitRegion(ks *kernelState, b, stop *ir.Block) []p4.Stmt {
	var out []p4.Stmt
	for b != nil && b != stop {
		if ks.emitted[b] && blockHasSideEffects(b) {
			g.fail("kernel %s: unstructured control flow would duplicate side-effecting block %s", ks.f.Name, b.Name)
			return out
		}
		ks.emitted[b] = true
		term := b.Term()
		for _, i := range b.Instrs {
			if i == term {
				break
			}
			if ks.skip[i] {
				continue
			}
			out = append(out, g.emitInstr(ks, i)...)
		}
		switch term.Op {
		case ir.OpJmp:
			b = term.Targets[0]
		case ir.OpRetAction:
			out = append(out, g.emitRet(ks, term)...)
			return out
		case ir.OpBr:
			tTgt, fTgt := term.Targets[0], term.Targets[1]
			join := ks.pdt.IPDom(b)
			cond := g.condExpr(term.Args[0])
			guarded := false
			if join == nil {
				// Some arm exits the kernel. The continuation is the
				// target the other arm can fall through to (an
				// if-without-else shape after early returns); since the
				// exiting paths must skip it, it is guarded by the
				// kernel's return predicate.
				switch {
				case ks.reach[tTgt][fTgt]:
					join = fTgt
					guarded = true
				case ks.reach[fTgt][tTgt]:
					join = tTgt
					guarded = true
				default:
					// Disjoint arms: both end in returns (or at the
					// enclosing join).
					join = stop
				}
			}
			thenS := g.emitRegion(ks, tTgt, join)
			elseS := g.emitRegion(ks, fTgt, join)
			out = append(out, &p4.If{Cond: cond, Then: thenS, Else: elseS})
			if guarded && join != nil && join != stop {
				rest := g.emitRegion(ks, join, stop)
				out = append(out, &p4.If{
					Cond: &p4.Bin{Op: "==", X: p4.FR(g.doneVar()), Y: &p4.IntLit{Val: 0, Bits: 1}},
					Then: rest,
				})
				return out
			}
			b = join
		default:
			g.fail("kernel %s: block %s has no terminator", ks.f.Name, b.Name)
			return out
		}
	}
	return out
}

func blockHasSideEffects(b *ir.Block) bool {
	for _, i := range b.Instrs {
		if i.IsTerminator() {
			continue
		}
		if i.HasSideEffects() || i.Op == ir.OpAtomicRMW {
			return true
		}
	}
	return false
}

// emitRet records the selected action in the NetCL header and applies
// the runtime's 4-tuple update *specialized for the statically-known
// action* (instead of a generic act-dispatch chain after the kernel,
// which would cost an extra dependent stage on Tofino).
func (g *generator) emitRet(ks *kernelState, t *ir.Instr) []p4.Stmt {
	code := map[ir.ActionKind]int{
		ir.ActPass: wire.ActPass, ir.ActDrop: wire.ActDrop,
		ir.ActSendHost: wire.ActSendHost, ir.ActSendDevice: wire.ActSendDevice,
		ir.ActMulticast: wire.ActMulticast, ir.ActReflect: wire.ActReflect,
		ir.ActReflectLong: wire.ActReflectLong,
	}[t.ActionKind]
	out := []p4.Stmt{
		&p4.Assign{LHS: p4.FR(g.doneVar()), RHS: &p4.IntLit{Val: 1, Bits: 1}},
		&p4.Assign{
			LHS: p4.FR("hdr", "netcl", "act"),
			RHS: &p4.IntLit{Val: uint64(code), Bits: 8},
		},
	}
	var arg p4.Expr
	if len(t.Args) > 0 {
		arg = g.valueExpr(t.Args[0])
		out = append(out, &p4.Assign{LHS: p4.FR("hdr", "netcl", "arg"), RHS: arg})
	}
	none := &p4.IntLit{Val: wire.None, Bits: 16}
	setNH := func(e p4.Expr) p4.Stmt { return &p4.Assign{LHS: p4.FR("meta", "nexthop"), RHS: e} }
	setTo := func(e p4.Expr) p4.Stmt { return &p4.Assign{LHS: p4.FR("hdr", "netcl", "to"), RHS: e} }
	setDst := func(e p4.Expr) p4.Stmt { return &p4.Assign{LHS: p4.FR("hdr", "netcl", "dst"), RHS: e} }
	switch t.ActionKind {
	case ir.ActDrop:
		out = append(out, &p4.CallStmt{Method: "mark_drop"})
	case ir.ActSendHost:
		out = append(out, setDst(arg), setTo(none), setNH(arg))
	case ir.ActSendDevice:
		out = append(out, setTo(arg), setNH(arg))
	case ir.ActMulticast:
		out = append(out,
			setTo(&p4.IntLit{Val: wire.AnyDevice, Bits: 16}),
			&p4.Assign{LHS: p4.FR("meta", "mcast_grp"), RHS: arg})
	case ir.ActReflect:
		out = append(out, &p4.If{
			Cond: &p4.Bin{Op: "==", X: p4.FR("hdr", "netcl", "from"), Y: none},
			Then: []p4.Stmt{setDst(p4.FR("hdr", "netcl", "src")), setTo(none), setNH(p4.FR("hdr", "netcl", "src"))},
			Else: []p4.Stmt{setTo(p4.FR("hdr", "netcl", "from")), setNH(p4.FR("hdr", "netcl", "from"))},
		})
	case ir.ActReflectLong:
		out = append(out, setDst(p4.FR("hdr", "netcl", "src")), setTo(none), setNH(p4.FR("hdr", "netcl", "src")))
	default: // pass(): continue to the destination host.
		out = append(out, setTo(none), setNH(p4.FR("hdr", "netcl", "dst")))
	}
	return out
}

// Value plumbing -------------------------------------------------------

func p4Bits(t ir.Type) int {
	if t.Bits < 1 {
		return 8
	}
	return t.Bits
}

// tempName is the P4 local holding an instruction result.
func (g *generator) tempName(i *ir.Instr) string {
	return fmt.Sprintf("t%d_%s", i.ID, g.curKernelTag)
}

// sinkOrTemp returns the destination for i's result: the header field
// of a single-use message store (sunk, saving PHV) or a fresh local.
func (g *generator) sinkOrTemp(ks *kernelState, i *ir.Instr) *p4.FieldRef {
	if st, ok := ks.sinkTarget(i); ok {
		k := int(st.Args[0].(*ir.Const).Uint()) % maxInt(st.Param.Count, 1)
		dest := p4.FR("hdr", ks.hdr, argField(st.Param, k))
		ks.skip[st] = true
		g.vals[i] = dest
		return dest
	}
	return g.declTemp(i)
}

// declTemp declares (once) and returns the local for i.
func (g *generator) declTemp(i *ir.Instr) *p4.FieldRef {
	name := g.tempName(i)
	g.declLocal(name, p4Bits(i.Ty))
	fr := p4.FR(name)
	g.vals[i] = fr
	return fr
}

func (g *generator) declLocal(name string, bits int) {
	for _, l := range g.ctl.Locals {
		if l.Name == name {
			return
		}
	}
	g.ctl.Locals = append(g.ctl.Locals, &p4.Field{Name: name, Bits: bits})
}

// valueExpr returns the P4 expression for an IR value.
func (g *generator) valueExpr(v ir.Value) p4.Expr {
	switch x := v.(type) {
	case *ir.Const:
		return &p4.IntLit{Val: x.Uint(), Bits: p4Bits(x.Ty)}
	case *ir.Instr:
		if e, ok := g.vals[x]; ok {
			return e
		}
		g.fail("use of unemitted value %s", x.Ref())
		return &p4.IntLit{Val: 0, Bits: p4Bits(x.Ty)}
	}
	g.fail("unknown value kind")
	return &p4.IntLit{}
}

// condExpr renders an i1 value as a P4 boolean expression.
func (g *generator) condExpr(v ir.Value) p4.Expr {
	e := g.valueExpr(v)
	if b, ok := e.(*p4.Bin); ok && isCmpOp(b.Op) {
		return b
	}
	if c, ok := e.(*p4.IntLit); ok {
		if c.Val != 0 {
			return &p4.Bin{Op: "==", X: &p4.IntLit{Val: 0, Bits: 1}, Y: &p4.IntLit{Val: 0, Bits: 1}}
		}
		return &p4.Bin{Op: "!=", X: &p4.IntLit{Val: 0, Bits: 1}, Y: &p4.IntLit{Val: 0, Bits: 1}}
	}
	return &p4.Bin{Op: "!=", X: e, Y: &p4.IntLit{Val: 0, Bits: 1}}
}

func isCmpOp(op string) bool {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=", "s<", "s<=", "s>", "s>=":
		return true
	}
	return false
}
