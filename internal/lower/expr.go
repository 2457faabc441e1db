package lower

import (
	"netcl/internal/ir"
	"netcl/internal/lang"
	"netcl/internal/sema"
)

// inlineCtx tracks state while lowering an inlined net-function body.
type inlineCtx struct {
	fn     *sema.Function
	exit   *ir.Block
	result *ir.Instr // alloca for non-void results
	parent *inlineCtx
}

// lvalue abstracts assignable places.
type lvalue interface {
	load(fl *fnLowerer) ir.Value
	store(fl *fnLowerer, v ir.Value)
	elem() ir.Type
}

// lvLocal is an alloca slot.
type lvLocal struct {
	alloca *ir.Instr
	index  ir.Value
	ty     ir.Type
}

func (lv *lvLocal) elem() ir.Type { return lv.ty }

func (lv *lvLocal) load(fl *fnLowerer) ir.Value {
	return fl.emit(&ir.Instr{Op: ir.OpLoad, Ty: lv.ty, Args: []ir.Value{lv.alloca, lv.index}})
}

func (lv *lvLocal) store(fl *fnLowerer, v ir.Value) {
	fl.emit(&ir.Instr{Op: ir.OpStore, Args: []ir.Value{lv.alloca, lv.index, fl.convert(v, lv.ty)}})
}

// lvMsg is a message (kernel argument) slot.
type lvMsg struct {
	p     *ir.MsgParam
	index ir.Value
}

func (lv *lvMsg) elem() ir.Type { return lv.p.Ty }

func (lv *lvMsg) load(fl *fnLowerer) ir.Value {
	return fl.emit(&ir.Instr{Op: ir.OpLoadMsg, Ty: lv.p.Ty, Param: lv.p, Args: []ir.Value{lv.index}})
}

func (lv *lvMsg) store(fl *fnLowerer, v ir.Value) {
	fl.emit(&ir.Instr{Op: ir.OpStoreMsg, Param: lv.p, Args: []ir.Value{lv.index, fl.convert(v, lv.p.Ty)}})
}

// lvGlobal is a device global-memory element; plain reads and writes
// lower to atomic read/write transactions (§V-B).
type lvGlobal struct {
	mem  *ir.MemRef
	idxs []ir.Value
}

func (lv *lvGlobal) elem() ir.Type { return lv.mem.Elem }

func (lv *lvGlobal) load(fl *fnLowerer) ir.Value {
	return fl.emit(&ir.Instr{
		Op: ir.OpAtomicRMW, Ty: lv.mem.Elem, G: lv.mem, AOp: "read",
		Args: append([]ir.Value{}, lv.idxs...), NIdx: len(lv.idxs),
	})
}

func (lv *lvGlobal) store(fl *fnLowerer, v ir.Value) {
	args := append([]ir.Value{}, lv.idxs...)
	args = append(args, fl.convert(v, lv.mem.Elem))
	fl.emit(&ir.Instr{
		Op: ir.OpAtomicRMW, G: lv.mem, AOp: "write",
		Args: args, NIdx: len(lv.idxs),
	})
}

// convert adjusts v to type to (zext/sext/trunc as needed).
func (fl *fnLowerer) convert(v ir.Value, to ir.Type) ir.Value {
	from := v.Type()
	if from == to {
		return v
	}
	op := ir.OpTrunc
	switch {
	case from.Bits == to.Bits:
		// Same width, signedness change only: a no-op at the bit level,
		// emitted as a same-width OpZExt ("bitcast").
		op = ir.OpZExt
	case from.Bits < to.Bits && from.Signed:
		op = ir.OpSExt
	case from.Bits < to.Bits:
		op = ir.OpZExt
	}
	return fl.value(&ir.Instr{Op: op, Ty: to, Args: []ir.Value{v}})
}

// value emits i, or returns the constant ir.Fold evaluates it to: all
// constant arithmetic in lowering goes through the evaluator that
// instsimplify uses.
func (fl *fnLowerer) value(i *ir.Instr) ir.Value {
	if c := ir.Fold(i); c != nil {
		return c
	}
	return fl.emit(i)
}

// cond lowers e to an i1 value.
func (fl *fnLowerer) cond(e lang.Expr) ir.Value { return fl.toI1(fl.expr(e)) }

func (fl *fnLowerer) toI1(v ir.Value) ir.Value {
	if v.Type() == ir.I1 {
		return v
	}
	return fl.value(&ir.Instr{Op: ir.OpICmp, Ty: ir.I1, Pred: ir.PredNE, Args: []ir.Value{v, ir.ConstOf(v.Type(), 0)}})
}

// expr lowers an expression to a value.
func (fl *fnLowerer) expr(e lang.Expr) ir.Value {
	switch x := e.(type) {
	case *lang.IntLit:
		return ir.ConstOf(fl.semaType(x), int64(x.Val))
	case *lang.BoolLit:
		v := int64(0)
		if x.Val {
			v = 1
		}
		return ir.ConstOf(ir.I1, v)
	case *lang.Ident:
		return fl.identValue(x)
	case *lang.MemberExpr:
		return fl.memberValue(x)
	case *lang.BinaryExpr:
		return fl.binary(x)
	case *lang.UnaryExpr:
		return fl.unary(x)
	case *lang.PostfixExpr:
		lv := fl.lvalue(x.X)
		if lv == nil {
			return ir.ConstOf(ir.U32, 0)
		}
		old := lv.load(fl)
		op := ir.OpAdd
		if x.Op == lang.Dec {
			op = ir.OpSub
		}
		nv := fl.emit(&ir.Instr{Op: op, Ty: old.Type(), Args: []ir.Value{old, ir.ConstOf(old.Type(), 1)}})
		lv.store(fl, nv)
		return old
	case *lang.AssignExpr:
		return fl.assign(x)
	case *lang.CondExpr:
		return fl.ternary(x)
	case *lang.CallExpr:
		return fl.call(x)
	case *lang.IndexExpr:
		lv := fl.lvalue(x)
		if lv == nil {
			return ir.ConstOf(ir.U32, 0)
		}
		return lv.load(fl)
	case *lang.CastExpr:
		v := fl.expr(x.X)
		b := sema.BasicByName(x.Type.Name)
		if b == nil {
			return v
		}
		return fl.convert(v, irType(b))
	}
	fl.errorf(e.Pos(), "unsupported expression in device code")
	return ir.ConstOf(ir.U32, 0)
}

func (fl *fnLowerer) identValue(x *lang.Ident) ir.Value {
	b := fl.lookupName(x.Name)
	switch bd := b.(type) {
	case *constBinding:
		return ir.ConstOf(bd.ty, bd.val)
	case *localBinding:
		if len(bd.dims) > 0 {
			fl.errorf(x.NamePos, "array %q used as a value", x.Name)
			return ir.ConstOf(ir.U32, 0)
		}
		return fl.emit(&ir.Instr{Op: ir.OpLoad, Ty: bd.elem, Args: []ir.Value{bd.alloca, ir.ConstOf(ir.U32, 0)}})
	case *paramBinding:
		if bd.shadow != nil {
			return fl.emit(&ir.Instr{Op: ir.OpLoad, Ty: bd.p.Ty, Args: []ir.Value{bd.shadow, ir.ConstOf(ir.U32, 0)}})
		}
		if bd.p.Count > 1 {
			fl.errorf(x.NamePos, "pointer parameter %q used as a scalar value", x.Name)
			return ir.ConstOf(ir.U32, 0)
		}
		return fl.emit(&ir.Instr{Op: ir.OpLoadMsg, Ty: bd.p.Ty, Param: bd.p, Args: []ir.Value{ir.ConstOf(ir.U32, 0)}})
	case *refBinding:
		return bd.lv.load(fl)
	case *globalBinding:
		if len(bd.mem.Dims) > 0 {
			fl.errorf(x.NamePos, "memory %q used as a scalar value", x.Name)
			return ir.ConstOf(ir.U32, 0)
		}
		lv := &lvGlobal{mem: bd.mem}
		return lv.load(fl)
	}
	fl.errorf(x.NamePos, "cannot lower identifier %q", x.Name)
	return ir.ConstOf(ir.U32, 0)
}

func (fl *fnLowerer) memberValue(x *lang.MemberExpr) ir.Value {
	id, _ := x.X.(*lang.Ident)
	if id == nil {
		return ir.ConstOf(ir.U16, 0)
	}
	switch id.Name {
	case "device":
		// Materialized at compile time (§VI-B).
		switch x.Sel {
		case "id":
			return ir.ConstOf(ir.U16, int64(fl.l.deviceID))
		case "kind":
			return ir.ConstOf(ir.U8, 1) // 1 = switch
		}
	case "msg":
		return fl.emit(&ir.Instr{Op: ir.OpMsgField, Ty: ir.U16, Field: x.Sel})
	}
	fl.errorf(x.Dot, "unsupported member access")
	return ir.ConstOf(ir.U16, 0)
}

func (fl *fnLowerer) binary(x *lang.BinaryExpr) ir.Value {
	a := fl.expr(x.X)
	b := fl.expr(x.Y)
	switch x.Op {
	case lang.AndAnd, lang.OrOr:
		op := ir.OpAnd
		if x.Op == lang.OrOr {
			op = ir.OpOr
		}
		return fl.value(&ir.Instr{Op: op, Ty: ir.I1, Args: []ir.Value{fl.toI1(a), fl.toI1(b)}})
	case lang.EqEq, lang.NotEq, lang.Lt, lang.Gt, lang.Le, lang.Ge:
		ct := irType(sema.Common(fl.semaBasic(x.X), fl.semaBasic(x.Y)))
		return fl.value(&ir.Instr{Op: ir.OpICmp, Ty: ir.I1, Pred: cmpPred(x.Op, ct.Signed),
			Args: []ir.Value{fl.convert(a, ct), fl.convert(b, ct)}})
	}
	t := fl.semaType(x)
	op, ok := arithOp(x.Op, t)
	if !ok {
		fl.errorf(x.OpPos, "unsupported binary operator %s", x.Op)
		return ir.ConstOf(t, 0)
	}
	return fl.value(&ir.Instr{Op: op, Ty: t, Args: []ir.Value{fl.convert(a, t), fl.convert(b, t)}})
}

// arithOps maps each arithmetic operator and its compound assignment to
// its IR op, unsigned and signed.
var arithOps = map[lang.Kind][2]ir.Op{
	lang.Plus: {ir.OpAdd, ir.OpAdd}, lang.PlusEq: {ir.OpAdd, ir.OpAdd},
	lang.Minus: {ir.OpSub, ir.OpSub}, lang.MinusEq: {ir.OpSub, ir.OpSub},
	lang.Star: {ir.OpMul, ir.OpMul}, lang.StarEq: {ir.OpMul, ir.OpMul},
	lang.Slash: {ir.OpUDiv, ir.OpSDiv}, lang.SlashEq: {ir.OpUDiv, ir.OpSDiv},
	lang.Percent: {ir.OpURem, ir.OpSRem}, lang.PercentEq: {ir.OpURem, ir.OpSRem},
	lang.Amp: {ir.OpAnd, ir.OpAnd}, lang.AmpEq: {ir.OpAnd, ir.OpAnd},
	lang.Pipe: {ir.OpOr, ir.OpOr}, lang.PipeEq: {ir.OpOr, ir.OpOr},
	lang.Caret: {ir.OpXor, ir.OpXor}, lang.CaretEq: {ir.OpXor, ir.OpXor},
	lang.Shl: {ir.OpShl, ir.OpShl}, lang.ShlEq: {ir.OpShl, ir.OpShl},
	lang.Shr: {ir.OpLShr, ir.OpAShr}, lang.ShrEq: {ir.OpLShr, ir.OpAShr},
}

// arithOp returns the IR op of an arithmetic operator at type t.
func arithOp(k lang.Kind, t ir.Type) (ir.Op, bool) {
	ops, ok := arithOps[k]
	if t.Signed {
		return ops[1], ok
	}
	return ops[0], ok
}

func cmpPred(op lang.Kind, signed bool) ir.Pred {
	switch op {
	case lang.EqEq:
		return ir.PredEQ
	case lang.NotEq:
		return ir.PredNE
	case lang.Lt:
		if signed {
			return ir.PredSLT
		}
		return ir.PredULT
	case lang.Le:
		if signed {
			return ir.PredSLE
		}
		return ir.PredULE
	case lang.Gt:
		if signed {
			return ir.PredSGT
		}
		return ir.PredUGT
	default:
		if signed {
			return ir.PredSGE
		}
		return ir.PredUGE
	}
}

func (fl *fnLowerer) unary(x *lang.UnaryExpr) ir.Value {
	switch x.Op {
	case lang.Minus:
		t := fl.semaType(x)
		v := fl.convert(fl.expr(x.X), t)
		return fl.value(&ir.Instr{Op: ir.OpSub, Ty: t, Args: []ir.Value{ir.ConstOf(t, 0), v}})
	case lang.Tilde:
		t := fl.semaType(x)
		v := fl.convert(fl.expr(x.X), t)
		return fl.value(&ir.Instr{Op: ir.OpXor, Ty: t, Args: []ir.Value{v, ir.ConstOf(t, -1)}})
	case lang.Not:
		v := fl.cond(x.X)
		return fl.value(&ir.Instr{Op: ir.OpXor, Ty: ir.I1, Args: []ir.Value{v, ir.ConstOf(ir.I1, 1)}})
	case lang.Inc, lang.Dec:
		lv := fl.lvalue(x.X)
		if lv == nil {
			return ir.ConstOf(ir.U32, 0)
		}
		old := lv.load(fl)
		op := ir.OpAdd
		if x.Op == lang.Dec {
			op = ir.OpSub
		}
		nv := fl.emit(&ir.Instr{Op: op, Ty: old.Type(), Args: []ir.Value{old, ir.ConstOf(old.Type(), 1)}})
		lv.store(fl, nv)
		return nv
	case lang.Star:
		// *p is p[0].
		lv := fl.ptrElem(x.X, ir.ConstOf(ir.U32, 0))
		if lv == nil {
			fl.errorf(x.OpPos, "cannot dereference this expression")
			return ir.ConstOf(ir.U32, 0)
		}
		return lv.load(fl)
	case lang.Amp:
		fl.errorf(x.OpPos, "address-of may only appear as an atomic-operation argument")
		return ir.ConstOf(ir.U32, 0)
	}
	fl.errorf(x.OpPos, "unsupported unary operator %s", x.Op)
	return ir.ConstOf(ir.U32, 0)
}

// ptrElem resolves expressions denoting pointer-parameter elements.
func (fl *fnLowerer) ptrElem(e lang.Expr, idx ir.Value) lvalue {
	id, ok := e.(*lang.Ident)
	if !ok {
		return nil
	}
	if pb, ok2 := fl.lookupName(id.Name).(*paramBinding); ok2 && pb.shadow == nil {
		return &lvMsg{p: pb.p, index: idx}
	}
	return nil
}

// sideEffecting reports whether lowering e may emit memory writes or
// atomics (used to decide select vs. branch for ternaries).
func (fl *fnLowerer) sideEffecting(e lang.Expr) bool {
	found := false
	lang.Walk(e, func(n lang.Node) bool {
		switch x := n.(type) {
		case *lang.AssignExpr, *lang.PostfixExpr:
			found = true
		case *lang.UnaryExpr:
			if x.Op == lang.Inc || x.Op == lang.Dec {
				found = true
			}
		case *lang.CallExpr:
			if b := fl.l.prog.Builtins[x]; b != nil {
				if b.Cat == sema.CatAtomic {
					found = true
				}
			} else if fl.l.prog.CalledFns[x] != nil {
				found = true // conservatively: user calls may write
			}
		}
		return !found
	})
	return found
}

func (fl *fnLowerer) ternary(x *lang.CondExpr) ir.Value {
	cond := fl.cond(x.Cond)
	if c, ok := cond.(*ir.Const); ok {
		if c.Val != 0 {
			return fl.expr(x.Then)
		}
		return fl.expr(x.Else)
	}
	if !fl.sideEffecting(x.Then) && !fl.sideEffecting(x.Else) {
		ct := fl.semaType(x)
		a := fl.convert(fl.expr(x.Then), ct)
		b := fl.convert(fl.expr(x.Else), ct)
		return fl.emit(&ir.Instr{Op: ir.OpSelect, Ty: ct, Args: []ir.Value{cond, a, b}})
	}
	// Side-effecting arms: lower as a diamond through a temporary.
	ty := fl.semaType(x)
	tmp := fl.emit(&ir.Instr{Op: ir.OpAlloca, Ty: ty, Elem: ty, Count: 1, Name: "ternary"})
	thenB := fl.fn.NewBlock("tern_t")
	elseB := fl.fn.NewBlock("tern_f")
	joinB := fl.fn.NewBlock("tern_j")
	fl.emit(&ir.Instr{Op: ir.OpBr, Args: []ir.Value{cond}, Targets: []*ir.Block{thenB, elseB}})
	fl.blk = thenB
	av := fl.convert(fl.expr(x.Then), ty)
	fl.emit(&ir.Instr{Op: ir.OpStore, Args: []ir.Value{tmp, ir.ConstOf(ir.U32, 0), av}})
	fl.emit(&ir.Instr{Op: ir.OpJmp, Targets: []*ir.Block{joinB}})
	fl.blk = elseB
	bv := fl.convert(fl.expr(x.Else), ty)
	fl.emit(&ir.Instr{Op: ir.OpStore, Args: []ir.Value{tmp, ir.ConstOf(ir.U32, 0), bv}})
	fl.emit(&ir.Instr{Op: ir.OpJmp, Targets: []*ir.Block{joinB}})
	fl.blk = joinB
	return fl.emit(&ir.Instr{Op: ir.OpLoad, Ty: ty, Args: []ir.Value{tmp, ir.ConstOf(ir.U32, 0)}})
}

// semaType returns the IR type the checker assigned to e.
func (fl *fnLowerer) semaType(e lang.Expr) ir.Type { return irType(fl.semaBasic(e)) }

// semaBasic returns the scalar type the checker assigned to e.
func (fl *fnLowerer) semaBasic(e lang.Expr) *sema.Basic {
	if b, ok := fl.l.prog.Types[e].(*sema.Basic); ok {
		return b
	}
	return sema.U32Type
}

func (fl *fnLowerer) assign(x *lang.AssignExpr) ir.Value {
	lv := fl.lvalue(x.LHS)
	if lv == nil {
		fl.expr(x.RHS)
		return ir.ConstOf(ir.U32, 0)
	}
	if x.Op == lang.Assign {
		v := fl.convert(fl.expr(x.RHS), lv.elem())
		lv.store(fl, v)
		return v
	}
	old := lv.load(fl)
	rhs := fl.expr(x.RHS)
	t := lv.elem()
	rhs = fl.convert(rhs, t)
	op, ok := arithOp(x.Op, t)
	if !ok {
		fl.errorf(x.OpPos, "unsupported compound assignment")
		return old
	}
	nv := fl.emit(&ir.Instr{Op: op, Ty: t, Args: []ir.Value{old, rhs}})
	lv.store(fl, nv)
	return nv
}

// lvalue resolves an assignable expression.
func (fl *fnLowerer) lvalue(e lang.Expr) lvalue {
	switch x := e.(type) {
	case *lang.Ident:
		switch bd := fl.lookupName(x.Name).(type) {
		case *localBinding:
			if len(bd.dims) > 0 {
				fl.errorf(x.NamePos, "cannot assign to array %q as a whole", x.Name)
				return nil
			}
			return &lvLocal{alloca: bd.alloca, index: ir.ConstOf(ir.U32, 0), ty: bd.elem}
		case *paramBinding:
			if bd.shadow != nil {
				return &lvLocal{alloca: bd.shadow, index: ir.ConstOf(ir.U32, 0), ty: bd.p.Ty}
			}
			return &lvMsg{p: bd.p, index: ir.ConstOf(ir.U32, 0)}
		case *refBinding:
			return bd.lv
		case *globalBinding:
			if len(bd.mem.Dims) > 0 {
				fl.errorf(x.NamePos, "cannot assign to memory %q as a whole", x.Name)
				return nil
			}
			return &lvGlobal{mem: bd.mem}
		}
		fl.errorf(x.NamePos, "%q is not assignable", x.Name)
		return nil
	case *lang.IndexExpr:
		return fl.indexLvalue(x)
	case *lang.UnaryExpr:
		if x.Op == lang.Star {
			return fl.ptrElem(x.X, ir.ConstOf(ir.U32, 0))
		}
	}
	fl.errorf(e.Pos(), "expression is not assignable")
	return nil
}

// indexLvalue resolves base[i]...[k] chains.
func (fl *fnLowerer) indexLvalue(x *lang.IndexExpr) lvalue {
	// Collect the index chain innermost-last.
	var idxExprs []lang.Expr
	base := lang.Expr(x)
	for {
		ix, ok := base.(*lang.IndexExpr)
		if !ok {
			break
		}
		idxExprs = append([]lang.Expr{ix.Index}, idxExprs...)
		base = ix.X
	}
	id, ok := base.(*lang.Ident)
	if !ok {
		fl.errorf(x.Pos(), "unsupported indexed expression")
		return nil
	}
	switch bd := fl.lookupName(id.Name).(type) {
	case *globalBinding:
		if len(idxExprs) != len(bd.mem.Dims) {
			fl.errorf(x.Pos(), "memory %q requires %d indices", id.Name, len(bd.mem.Dims))
			return nil
		}
		var idxs []ir.Value
		for _, ie := range idxExprs {
			idxs = append(idxs, fl.expr(ie))
		}
		return &lvGlobal{mem: bd.mem, idxs: idxs}
	case *localBinding:
		if len(idxExprs) != len(bd.dims) {
			fl.errorf(x.Pos(), "array %q requires %d indices", id.Name, len(bd.dims))
			return nil
		}
		idx := fl.flattenIndex(idxExprs, bd.dims)
		return &lvLocal{alloca: bd.alloca, index: idx, ty: bd.elem}
	case *paramBinding:
		if bd.shadow != nil || len(idxExprs) != 1 {
			fl.errorf(x.Pos(), "cannot index scalar parameter %q", id.Name)
			return nil
		}
		return &lvMsg{p: bd.p, index: fl.convert(fl.expr(idxExprs[0]), ir.U32)}
	case *refBinding:
		fl.errorf(x.Pos(), "cannot index reference parameter %q", id.Name)
		return nil
	}
	fl.errorf(x.Pos(), "cannot index %q", id.Name)
	return nil
}

// flattenIndex folds a multi-dimensional index into a single linear
// index value.
func (fl *fnLowerer) flattenIndex(idxExprs []lang.Expr, dims []int) ir.Value {
	var total ir.Value
	for i, ie := range idxExprs {
		v := fl.convert(fl.expr(ie), ir.U32)
		stride := 1
		for _, d := range dims[i+1:] {
			stride *= d
		}
		if stride != 1 {
			v = fl.value(&ir.Instr{Op: ir.OpMul, Ty: ir.U32, Args: []ir.Value{v, ir.ConstOf(ir.U32, int64(stride))}})
		}
		if total == nil {
			total = v
		} else {
			total = fl.value(&ir.Instr{Op: ir.OpAdd, Ty: ir.U32, Args: []ir.Value{total, v}})
		}
	}
	if total == nil {
		total = ir.ConstOf(ir.U32, 0)
	}
	return total
}
