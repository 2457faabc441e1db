package codegen

import (
	"fmt"

	"netcl/internal/ir"
	"netcl/internal/p4"
)

// regName is the P4 register instance for a memory object.
func regName(m *ir.MemRef) string { return "reg_" + m.Name }

// ensureRegister declares the register backing a memory object.
func (g *generator) ensureRegister(m *ir.MemRef) *p4.Register {
	if r := g.ctl.RegisterByName(regName(m)); r != nil {
		return r
	}
	r := &p4.Register{
		Name: regName(m),
		Bits: p4Bits(m.Elem),
		Size: m.NumElems(),
		Init: append([]int64(nil), m.Init...),
	}
	g.ctl.Registers = append(g.ctl.Registers, r)
	return r
}

// flatIndex combines the leading NIdx index arguments into one linear
// register index expression. A constant index's term, (bit<32>)c *
// stride, folds (ir.Fold) to one literal.
func (g *generator) flatIndex(i *ir.Instr) p4.Expr {
	m := i.G
	if i.NIdx == 0 {
		return &p4.IntLit{Val: 0, Bits: 32}
	}
	var out p4.Expr
	for k := 0; k < i.NIdx; k++ {
		stride := 1
		for _, d := range m.Dims[k+1:] {
			stride *= d
		}
		term := p4.Expr(&p4.Cast{Bits: 32, X: g.valueExpr(i.Args[k])})
		if c, ok := i.Args[k].(*ir.Const); ok {
			c = ir.Fold(&ir.Instr{Op: ir.OpZExt, Ty: ir.U32, Args: []ir.Value{c}})
			c = ir.Fold(&ir.Instr{Op: ir.OpMul, Ty: ir.U32, Args: []ir.Value{c, ir.ConstOf(ir.U32, int64(stride))}})
			term = &p4.IntLit{Val: c.Uint(), Bits: 32}
		} else if stride != 1 {
			term = &p4.Bin{Op: "*", X: term, Y: &p4.IntLit{Val: uint64(stride), Bits: 32}}
		}
		if out == nil {
			out = term
		} else {
			out = &p4.Bin{Op: "+", X: out, Y: term}
		}
	}
	return out
}

// atomicOperands returns (cond, operands) expressions for an atomic.
func (g *generator) atomicOperands(i *ir.Instr) (p4.Expr, []p4.Expr) {
	rest := i.Args[i.NIdx:]
	var cond p4.Expr
	if i.Cond && len(rest) > 0 {
		cond = g.condExpr(rest[0])
		rest = rest[1:]
	}
	var ops []p4.Expr
	for _, a := range rest {
		ops = append(ops, g.valueExpr(a))
	}
	return cond, ops
}

// emitAtomicTNA generates a Register + RegisterAction pair and an
// execute() call — one SALU transaction (paper Fig. 9, second column).
func (g *generator) emitAtomicTNA(ks *kernelState, i *ir.Instr) []p4.Stmt {
	g.ensureRegister(i.G)
	cond, ops := g.atomicOperands(i)
	raName := fmt.Sprintf("ra_%s_%d_%s", i.G.Name, i.ID, g.curKernelTag)
	body := salulBody(i, cond, ops)
	g.ctl.RegActs = append(g.ctl.RegActs, &p4.RegisterAction{
		Name: raName, Register: regName(i.G), Body: body,
	})
	call := &p4.CallExpr{Recv: raName, Method: "execute", Args: []p4.Expr{g.flatIndex(i)}}
	if i.AOp == "write" {
		return []p4.Stmt{&p4.CallStmt{Recv: raName, Method: "execute", Args: []p4.Expr{g.flatIndex(i)}}}
	}
	// Sink the result straight into its header field when the only use
	// is a message store (saves one PHV temporary per atomic — vital
	// for AGG's 32 per-packet aggregation results).
	if st, ok := ks.sinkTarget(i); ok {
		k := int(st.Args[0].(*ir.Const).Uint()) % maxInt(st.Param.Count, 1)
		dest := p4.FR("hdr", ks.hdr, argField(st.Param, k))
		ks.skip[st] = true
		g.vals[i] = dest
		return []p4.Stmt{&p4.Assign{LHS: dest, RHS: call}}
	}
	t := g.declTemp(i)
	return []p4.Stmt{&p4.Assign{LHS: t, RHS: call}}
}

// salulBody builds the SALU microprogram over the cell "m" with output
// "o". Conditional variants guard the update; *_new returns the
// post-operation value (old value otherwise) — exactly the semantics
// of §V-D that let condition+result fit one stage.
func salulBody(i *ir.Instr, cond p4.Expr, ops []p4.Expr) []p4.Stmt {
	m := p4.FR("m")
	o := p4.FR("o")
	var update []p4.Stmt
	opExpr := func(op string) p4.Expr {
		var v p4.Expr = &p4.IntLit{Val: 1}
		if len(ops) > 0 {
			v = ops[0]
		}
		switch op {
		case "add":
			return &p4.Bin{Op: "+", X: m, Y: v}
		case "sub":
			return &p4.Bin{Op: "-", X: m, Y: v}
		case "sadd":
			return &p4.Bin{Op: "|+|", X: m, Y: v}
		case "ssub":
			return &p4.Bin{Op: "|-|", X: m, Y: v}
		case "or":
			return &p4.Bin{Op: "|", X: m, Y: v}
		case "and":
			return &p4.Bin{Op: "&", X: m, Y: v}
		case "xor":
			return &p4.Bin{Op: "^", X: m, Y: v}
		case "inc":
			return &p4.Bin{Op: "+", X: m, Y: &p4.IntLit{Val: 1}}
		case "dec":
			return &p4.Bin{Op: "|-|", X: m, Y: &p4.IntLit{Val: 1}}
		case "swap", "write":
			return v
		case "min":
			return &p4.TernaryExpr{Cond: &p4.Bin{Op: "<", X: v, Y: m}, A: v, B: m}
		case "max":
			return &p4.TernaryExpr{Cond: &p4.Bin{Op: ">", X: v, Y: m}, A: v, B: m}
		}
		return m
	}
	switch i.AOp {
	case "read":
		return []p4.Stmt{&p4.Assign{LHS: o, RHS: m}}
	case "write":
		return []p4.Stmt{&p4.Assign{LHS: m, RHS: opExpr("write")}}
	case "cas":
		var exp, des p4.Expr = &p4.IntLit{Val: 0}, &p4.IntLit{Val: 0}
		if len(ops) >= 2 {
			exp, des = ops[0], ops[1]
		}
		return []p4.Stmt{
			&p4.Assign{LHS: o, RHS: m},
			&p4.If{Cond: &p4.Bin{Op: "==", X: m, Y: exp},
				Then: []p4.Stmt{&p4.Assign{LHS: m, RHS: des}}},
		}
	default:
		update = []p4.Stmt{&p4.Assign{LHS: m, RHS: opExpr(i.AOp)}}
	}
	guarded := update
	if cond != nil {
		guarded = []p4.Stmt{&p4.If{Cond: cond, Then: update}}
	}
	if i.RetNew {
		// Update first, then return the (possibly unchanged) value.
		return append(guarded, &p4.Assign{LHS: o, RHS: m})
	}
	// Return the old value, then update.
	return append([]p4.Stmt{&p4.Assign{LHS: o, RHS: m}}, guarded...)
}

// emitAtomicV1 expands the atomic into an @atomic read/modify/write
// block using the v1model register primitives.
func (g *generator) emitAtomicV1(ks *kernelState, i *ir.Instr) []p4.Stmt {
	g.ensureRegister(i.G)
	cond, ops := g.atomicOperands(i)
	idx := g.flatIndex(i)
	reg := regName(i.G)
	bits := p4Bits(i.G.Elem)

	old := g.fresh("rm")
	g.declLocal(old, bits)
	var out []p4.Stmt
	out = append(out, &p4.CallStmt{Recv: reg, Method: "read", Args: []p4.Expr{p4.FR(old), idx}})

	if i.AOp == "read" {
		t := g.declTemp(i)
		return append(out, &p4.Assign{LHS: t, RHS: p4.FR(old)})
	}
	if i.AOp == "write" {
		var v p4.Expr = &p4.IntLit{Val: 0}
		if len(ops) > 0 {
			v = ops[0]
		}
		return []p4.Stmt{&p4.CallStmt{Recv: reg, Method: "write", Args: []p4.Expr{idx, v}}}
	}

	upd := g.fresh("ru")
	g.declLocal(upd, bits)
	var updExpr p4.Expr
	var v p4.Expr = &p4.IntLit{Val: 1}
	if len(ops) > 0 {
		v = ops[0]
	}
	switch i.AOp {
	case "add":
		updExpr = &p4.Bin{Op: "+", X: p4.FR(old), Y: v}
	case "sub":
		updExpr = &p4.Bin{Op: "-", X: p4.FR(old), Y: v}
	case "sadd":
		updExpr = &p4.Bin{Op: "|+|", X: p4.FR(old), Y: v}
	case "ssub":
		updExpr = &p4.Bin{Op: "|-|", X: p4.FR(old), Y: v}
	case "or":
		updExpr = &p4.Bin{Op: "|", X: p4.FR(old), Y: v}
	case "and":
		updExpr = &p4.Bin{Op: "&", X: p4.FR(old), Y: v}
	case "xor":
		updExpr = &p4.Bin{Op: "^", X: p4.FR(old), Y: v}
	case "inc":
		updExpr = &p4.Bin{Op: "+", X: p4.FR(old), Y: &p4.IntLit{Val: 1}}
	case "dec":
		updExpr = &p4.Bin{Op: "|-|", X: p4.FR(old), Y: &p4.IntLit{Val: 1}}
	case "swap":
		updExpr = v
	case "min", "max":
		cmpOp := "<"
		if i.AOp == "max" {
			cmpOp = ">"
		}
		out = append(out, &p4.Assign{LHS: p4.FR(upd), RHS: p4.FR(old)},
			&p4.If{Cond: &p4.Bin{Op: cmpOp, X: v, Y: p4.FR(old)},
				Then: []p4.Stmt{&p4.Assign{LHS: p4.FR(upd), RHS: v}}})
	case "cas":
		var exp, des p4.Expr = &p4.IntLit{Val: 0}, &p4.IntLit{Val: 0}
		if len(ops) >= 2 {
			exp, des = ops[0], ops[1]
		}
		out = append(out, &p4.Assign{LHS: p4.FR(upd), RHS: p4.FR(old)},
			&p4.If{Cond: &p4.Bin{Op: "==", X: p4.FR(old), Y: exp},
				Then: []p4.Stmt{&p4.Assign{LHS: p4.FR(upd), RHS: des}}})
	default:
		g.fail("unsupported atomic op %q", i.AOp)
		return out
	}
	if updExpr != nil {
		out = append(out, &p4.Assign{LHS: p4.FR(upd), RHS: updExpr})
	}

	fin := upd
	if cond != nil {
		finv := g.fresh("rf")
		g.declLocal(finv, bits)
		out = append(out,
			&p4.Assign{LHS: p4.FR(finv), RHS: p4.FR(old)},
			&p4.If{Cond: cond, Then: []p4.Stmt{&p4.Assign{LHS: p4.FR(finv), RHS: p4.FR(upd)}}})
		fin = finv
	}
	out = append(out, &p4.CallStmt{Recv: reg, Method: "write", Args: []p4.Expr{idx, p4.FR(fin)}})
	var t *p4.FieldRef
	if st, ok := ks.sinkTarget(i); ok {
		k := int(st.Args[0].(*ir.Const).Uint()) % maxInt(st.Param.Count, 1)
		t = p4.FR("hdr", ks.hdr, argField(st.Param, k))
		ks.skip[st] = true
		g.vals[i] = t
	} else {
		t = g.declTemp(i)
	}
	if i.RetNew {
		out = append(out, &p4.Assign{LHS: t, RHS: p4.FR(fin)})
	} else {
		out = append(out, &p4.Assign{LHS: t, RHS: p4.FR(old)})
	}
	return out
}

// emitLookup generates a MAT for a _lookup_ array access (paper Fig. 9,
// third column) and binds the paired LookupVal result.
func (g *generator) emitLookup(ks *kernelState, i *ir.Instr) []p4.Stmt {
	m := i.G
	// One MAT per lookup memory object: P4 cannot apply a table twice,
	// which is precisely why the duplication pass clones the memory per
	// access (§VI-B). The stable name also lets the control plane
	// address managed tables.
	tname := "lu_" + m.Name
	if g.ctl.TableByName(tname) != nil {
		g.fail("lookup memory %q is accessed more than once on this device; enable lookup duplication (it was disabled) or restructure the kernel", m.Name)
		return nil
	}
	hit := g.declTemp(i) // bit<1>

	match := p4.MatchExact
	if m.LKind == ir.LookupRange {
		match = p4.MatchRange
	}
	// Simple keys (header fields, locals, constants) feed the match
	// crossbar directly; compound key expressions are staged through a
	// local first.
	keyExpr := g.valueExpr(i.Args[0])
	var pre []p4.Stmt
	switch keyExpr.(type) {
	case *p4.FieldRef, *p4.IntLit:
	default:
		keyLocal := tname + "_key"
		g.declLocal(keyLocal, p4Bits(m.KeyType))
		pre = append(pre, &p4.Assign{LHS: p4.FR(keyLocal), RHS: keyExpr})
		keyExpr = p4.FR(keyLocal)
	}
	tbl := &p4.Table{
		Name:    tname,
		Keys:    []*p4.TableKey{{Expr: keyExpr, Match: match}},
		Actions: []string{"NoAction"},
		Default: &p4.ActionCall{Name: "NoAction"},
		Const:   !m.Managed,
		Size:    maxInt(m.NumElems(), 1),
	}

	// The hit action writes the matched value into a local bound to the
	// companion LookupVal instruction.
	var valLocal string
	if m.LKind == ir.LookupExact || m.LKind == ir.LookupRange {
		valLocal = tname + "_val"
		g.declLocal(valLocal, p4Bits(m.Elem))
		an := tname + "_hit"
		g.ctl.Actions = append(g.ctl.Actions, &p4.ActionDecl{
			Name:   an,
			Params: []*p4.Field{{Name: "v", Bits: p4Bits(m.Elem)}},
			Body:   []p4.Stmt{&p4.Assign{LHS: p4.FR(valLocal), RHS: p4.FR("v")}},
		})
		tbl.Actions = append(tbl.Actions, an)
		switch m.LKind {
		case ir.LookupExact:
			for k := 0; k+1 < len(m.Init); k += 2 {
				tbl.Entries = append(tbl.Entries, &p4.Entry{
					Keys:   []p4.KeyValue{{Value: uint64(m.Init[k]), PrefixLen: -1}},
					Action: &p4.ActionCall{Name: an, Args: []uint64{uint64(m.Init[k+1])}},
				})
			}
		case ir.LookupRange:
			for k := 0; k+2 < len(m.Init); k += 3 {
				tbl.Entries = append(tbl.Entries, &p4.Entry{
					Keys:     []p4.KeyValue{{Value: uint64(m.Init[k]), Hi: uint64(m.Init[k+1]), PrefixLen: -1}},
					Action:   &p4.ActionCall{Name: an, Args: []uint64{uint64(m.Init[k+2])}},
					Priority: len(tbl.Entries),
				})
			}
		}
	} else {
		// Set membership: a hit action with no data.
		an := tname + "_hit"
		g.ctl.Actions = append(g.ctl.Actions, &p4.ActionDecl{Name: an})
		tbl.Actions = append(tbl.Actions, an)
		for _, k := range m.Init {
			tbl.Entries = append(tbl.Entries, &p4.Entry{
				Keys:   []p4.KeyValue{{Value: uint64(k), PrefixLen: -1}},
				Action: &p4.ActionCall{Name: an},
			})
		}
	}
	g.ctl.Tables = append(g.ctl.Tables, tbl)

	// Bind the companion LookupVal (if any) to the value local, and
	// fuse the lowering's miss-preserving select: pre-loading the value
	// local with the previous value gives the MAT action itself
	// "matched-or-old" semantics, saving a dependent select stage.
	if valLocal != "" {
		var lookupVal *ir.Instr
		ks.f.Instrs(func(b *ir.Block, lv *ir.Instr) bool {
			if lv.Op == ir.OpLookupVal && len(lv.Args) == 1 && lv.Args[0] == ir.Value(i) {
				g.vals[lv] = p4.FR(valLocal)
				lookupVal = lv
			}
			return true
		})
		if lookupVal != nil {
			if sel, prev := missSelect(ks, i, lookupVal); sel != nil {
				pre = append(pre, &p4.Assign{LHS: p4.FR(valLocal), RHS: g.valueExpr(prev)})
				g.vals[sel] = p4.FR(valLocal)
				ks.skip[sel] = true
			}
		}
	}
	return append(pre, &p4.ApplyTable{Table: tname, HitVar: hit.Parts[0]})
}

// missSelect finds the lowering pattern select(hit, lookupval, prev)
// for a lookup instruction, returning the select and the previous
// value. The previous value must be defined before the lookup (it
// always is: the lowering loads it first).
func missSelect(ks *kernelState, lk, lv *ir.Instr) (*ir.Instr, ir.Value) {
	var sel *ir.Instr
	var prev ir.Value
	ks.f.Instrs(func(b *ir.Block, s *ir.Instr) bool {
		if s.Op == ir.OpSelect && len(s.Args) == 3 &&
			s.Args[0] == ir.Value(lk) && s.Args[1] == ir.Value(lv) {
			sel = s
			prev = s.Args[2]
			return false
		}
		return true
	})
	if sel == nil {
		return nil, nil
	}
	// The previous value must not itself be produced after the lookup
	// in the same block (it never is in lowered code, but be safe).
	if pi, ok := prev.(*ir.Instr); ok {
		if pi.Block() == lk.Block() {
			after := false
			seenLk := false
			for _, x := range lk.Block().Instrs {
				if x == lk {
					seenLk = true
				}
				if x == pi && seenLk {
					after = true
				}
			}
			if after {
				return nil, nil
			}
		}
	}
	return sel, prev
}

// emitHash declares a hash extern and calls it.
func (g *generator) emitHash(ks *kernelState, i *ir.Instr) []p4.Stmt {
	if i.TargetNS != "" && i.TargetNS != string(g.tgt) {
		if !(i.TargetNS == "tna" && g.tgt == p4.TargetTNA) &&
			!(i.TargetNS == "v1" && g.tgt == p4.TargetV1Model) {
			g.fail("intrinsic ncl::%s::%s is not available on target %s", i.TargetNS, i.HashKind, g.tgt)
			return nil
		}
	}
	name := g.fresh("hx")
	g.ctl.Hashes = append(g.ctl.Hashes, &p4.HashDecl{Name: name, Algo: i.HashKind, Bits: p4Bits(i.Ty)})
	var args []p4.Expr
	for _, a := range i.Args {
		args = append(args, g.valueExpr(a))
	}
	t := g.declTemp(i)
	return []p4.Stmt{&p4.Assign{LHS: t, RHS: &p4.CallExpr{Recv: name, Method: "get", Args: args}}}
}

// emitCLZ counts leading zeros with a longest-prefix-match table
// (§VI-B: "counting leading zeros/ones can be done with an LPM
// table"); trailing zeros isolate the lowest set bit (x & -x) and use
// an exact-match table over the resulting powers of two.
func (g *generator) emitCLZ(ks *kernelState, i *ir.Instr) []p4.Stmt {
	bits := p4Bits(i.Ty)
	tname := g.fresh("clz")
	if i.Op == ir.OpCTZ {
		tname = g.fresh("ctz")
	}
	keyLocal := tname + "_key"
	g.declLocal(keyLocal, bits)
	t := g.declTemp(i)
	an := tname + "_set"
	g.ctl.Actions = append(g.ctl.Actions, &p4.ActionDecl{
		Name:   an,
		Params: []*p4.Field{{Name: "n", Bits: bits}},
		Body:   []p4.Stmt{&p4.Assign{LHS: t, RHS: p4.FR("n")}},
	})
	match := p4.MatchLPM
	if i.Op == ir.OpCTZ {
		match = p4.MatchExact
	}
	tbl := &p4.Table{
		Name:    tname,
		Keys:    []*p4.TableKey{{Expr: p4.FR(keyLocal), Match: match}},
		Actions: []string{an},
		Default: &p4.ActionCall{Name: an, Args: []uint64{uint64(bits)}},
		Const:   true,
		Size:    bits + 1,
	}
	for k := 0; k < bits; k++ {
		if i.Op == ir.OpCLZ {
			// clz == k when the leading one is at position bits-1-k.
			tbl.Entries = append(tbl.Entries, &p4.Entry{
				Keys:   []p4.KeyValue{{Value: uint64(1) << uint(bits-1-k), PrefixLen: k + 1}},
				Action: &p4.ActionCall{Name: an, Args: []uint64{uint64(k)}},
			})
		} else {
			// ctz == k when the isolated lowest bit is 1<<k.
			tbl.Entries = append(tbl.Entries, &p4.Entry{
				Keys:   []p4.KeyValue{{Value: uint64(1) << uint(k), PrefixLen: -1}},
				Action: &p4.ActionCall{Name: an, Args: []uint64{uint64(k)}},
			})
		}
	}
	g.ctl.Tables = append(g.ctl.Tables, tbl)
	key := g.valueExpr(i.Args[0])
	if i.Op == ir.OpCTZ {
		// Isolate the lowest set bit: x & (0 - x).
		key = &p4.Bin{Op: "&", X: key,
			Y: &p4.Bin{Op: "-", X: &p4.IntLit{Val: 0, Bits: bits}, Y: g.valueExpr(i.Args[0])}}
	}
	return []p4.Stmt{
		&p4.Assign{LHS: p4.FR(keyLocal), RHS: key},
		&p4.ApplyTable{Table: tname},
	}
}
