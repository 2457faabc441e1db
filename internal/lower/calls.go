package lower

import (
	"netcl/internal/ir"
	"netcl/internal/lang"
	"netcl/internal/sema"
)

// call lowers builtin and net-function calls.
func (fl *fnLowerer) call(x *lang.CallExpr) ir.Value {
	if f := fl.l.prog.CalledFns[x]; f != nil {
		return fl.inlineCall(x, f)
	}
	b := fl.l.prog.Builtins[x]
	if b == nil {
		fl.errorf(x.Fun.NamePos, "unresolved call to %q", x.Fun.Name)
		return ir.ConstOf(ir.U32, 0)
	}
	switch b.Cat {
	case sema.CatAction:
		// Only reachable on checker-rejected input; keep lowering alive.
		fl.errorf(x.Fun.NamePos, "action %q outside a return statement", b.Name)
		return ir.ConstOf(ir.U32, 0)
	case sema.CatAtomic:
		return fl.atomicCall(x, b)
	case sema.CatLookup:
		return fl.lookupCall(x)
	case sema.CatMath:
		return fl.mathCall(x, b)
	case sema.CatHash, sema.CatIntrinsic:
		return fl.hashCall(x, b)
	}
	return ir.ConstOf(ir.U32, 0)
}

// globalTarget resolves an atomic pointer argument (&G[i], G[i], or a
// bare scalar global G) to the memory object and its index values.
func (fl *fnLowerer) globalTarget(e lang.Expr) (*ir.MemRef, []ir.Value) {
	if u, ok := e.(*lang.UnaryExpr); ok && u.Op == lang.Amp {
		e = u.X
	}
	var idxExprs []lang.Expr
	base := e
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
		return nil, nil
	}
	gb, ok := fl.lookupName(id.Name).(*globalBinding)
	if !ok {
		return nil, nil
	}
	if len(idxExprs) != len(gb.mem.Dims) {
		fl.errorf(e.Pos(), "memory %q requires %d indices, got %d", id.Name, len(gb.mem.Dims), len(idxExprs))
		return nil, nil
	}
	var idxs []ir.Value
	for _, ie := range idxExprs {
		idxs = append(idxs, fl.convert(fl.expr(ie), ir.U32))
	}
	return gb.mem, idxs
}

func (fl *fnLowerer) atomicCall(x *lang.CallExpr, b *sema.Builtin) ir.Value {
	if len(x.Args) == 0 {
		return ir.ConstOf(ir.U32, 0)
	}
	mem, idxs := fl.globalTarget(x.Args[0])
	if mem == nil {
		fl.errorf(x.Args[0].Pos(), "atomic operation requires a global memory element")
		return ir.ConstOf(ir.U32, 0)
	}
	args := append([]ir.Value{}, idxs...)
	rest := x.Args[1:]
	if b.Cond && len(rest) > 0 {
		args = append(args, fl.cond(rest[0]))
		rest = rest[1:]
	}
	for _, a := range rest {
		args = append(args, fl.convert(fl.expr(a), mem.Elem))
	}
	instr := &ir.Instr{
		Op: ir.OpAtomicRMW, Ty: mem.Elem, G: mem, AOp: b.Op,
		Cond: b.Cond, RetNew: b.New, Args: args, NIdx: len(idxs),
	}
	fl.emit(instr)
	if b.Op == "write" {
		return ir.ConstOf(mem.Elem, 0)
	}
	return instr
}

func (fl *fnLowerer) lookupCall(x *lang.CallExpr) ir.Value {
	if len(x.Args) < 2 {
		return ir.ConstOf(ir.I1, 0)
	}
	id, ok := x.Args[0].(*lang.Ident)
	if !ok {
		fl.errorf(x.Args[0].Pos(), "lookup requires a _lookup_ array name")
		return ir.ConstOf(ir.I1, 0)
	}
	gb, ok := fl.lookupName(id.Name).(*globalBinding)
	if !ok || !gb.mem.IsLookup() {
		fl.errorf(id.NamePos, "%q is not a _lookup_ array", id.Name)
		return ir.ConstOf(ir.I1, 0)
	}
	key := fl.convert(fl.expr(x.Args[1]), gb.mem.KeyType)
	hit := fl.emit(&ir.Instr{Op: ir.OpLookup, Ty: ir.I1, G: gb.mem, Args: []ir.Value{key}})
	if len(x.Args) == 3 {
		lv := fl.lvalue(x.Args[2])
		if lv == nil {
			return hit
		}
		old := lv.load(fl)
		val := fl.emit(&ir.Instr{Op: ir.OpLookupVal, Ty: gb.mem.Elem, G: gb.mem, Args: []ir.Value{hit}})
		matched := fl.convert(val, lv.elem())
		prev := fl.convert(old, lv.elem())
		sel := fl.emit(&ir.Instr{Op: ir.OpSelect, Ty: lv.elem(), Args: []ir.Value{hit, matched, prev}})
		lv.store(fl, sel)
	}
	return hit
}

func (fl *fnLowerer) mathCall(x *lang.CallExpr, b *sema.Builtin) ir.Value {
	var vals []ir.Value
	for _, a := range x.Args {
		vals = append(vals, fl.expr(a))
	}
	ty := fl.semaType(x)
	bin := func(op ir.Op) ir.Value {
		if len(vals) != 2 {
			return ir.ConstOf(ty, 0)
		}
		return fl.value(&ir.Instr{Op: op, Ty: ty, Args: []ir.Value{fl.convert(vals[0], ty), fl.convert(vals[1], ty)}})
	}
	unaryOp := func(op ir.Op) ir.Value {
		return fl.value(&ir.Instr{Op: op, Ty: ty, Args: []ir.Value{fl.convert(vals[0], ty)}})
	}
	switch b.Op {
	case "sadd":
		return bin(ir.OpSAddSat)
	case "ssub":
		return bin(ir.OpSSubSat)
	case "min":
		return bin(ir.OpMin)
	case "max":
		return bin(ir.OpMax)
	case "bit_chk":
		if len(vals) != 2 {
			return ir.ConstOf(ir.I1, 0)
		}
		t := vals[0].Type()
		sh := fl.value(&ir.Instr{Op: ir.OpLShr, Ty: t, Args: []ir.Value{vals[0], fl.convert(vals[1], t)}})
		an := fl.value(&ir.Instr{Op: ir.OpAnd, Ty: t, Args: []ir.Value{sh, ir.ConstOf(t, 1)}})
		return fl.toI1(an)
	case "clz":
		return unaryOp(ir.OpCLZ)
	case "ctz":
		return unaryOp(ir.OpCTZ)
	case "bswap":
		return unaryOp(ir.OpByteSwap)
	case "rand":
		return fl.emit(&ir.Instr{Op: ir.OpRand, Ty: ty})
	}
	fl.errorf(x.Fun.NamePos, "unsupported math builtin %q", b.Name)
	return ir.ConstOf(ir.U32, 0)
}

// hashCall lowers a hash or target intrinsic; its width is the one
// sema gave the call.
func (fl *fnLowerer) hashCall(x *lang.CallExpr, b *sema.Builtin) ir.Value {
	var vals []ir.Value
	for _, a := range x.Args {
		vals = append(vals, fl.expr(a))
	}
	ns := ""
	if b.Cat == sema.CatIntrinsic {
		ns = b.NS
	}
	return fl.emit(&ir.Instr{Op: ir.OpHash, Ty: fl.semaType(x), HashKind: b.Op, Args: vals, TargetNS: ns})
}

// inlineCall lowers a net-function call by splicing its body into the
// current function — the compiler's first device-pipeline step
// ("inline all _net_ function calls", §VI-B).
func (fl *fnLowerer) inlineCall(x *lang.CallExpr, f *sema.Function) ir.Value {
	depth := 0
	for c := fl.inline; c != nil; c = c.parent {
		depth++
	}
	if depth > 16 {
		fl.errorf(x.Fun.NamePos, "net-function inlining too deep (recursion?)")
		return ir.ConstOf(ir.U32, 0)
	}
	if f.Decl.Body == nil {
		return ir.ConstOf(ir.U32, 0)
	}

	// Evaluate arguments in the caller's scope.
	type argBinding struct {
		name string
		b    binding
	}
	var binds []argBinding
	for i, p := range f.Params {
		if i >= len(x.Args) {
			break
		}
		arg := x.Args[i]
		switch p.Dir {
		case sema.ByVal:
			elem := irType(p.Elem)
			v := fl.convert(fl.expr(arg), elem)
			al := fl.emit(&ir.Instr{Op: ir.OpAlloca, Ty: elem, Elem: elem, Count: 1, Name: p.Name()})
			fl.emit(&ir.Instr{Op: ir.OpStore, Args: []ir.Value{al, ir.ConstOf(ir.U32, 0), v}})
			binds = append(binds, argBinding{p.Name(), &localBinding{alloca: al, elem: elem}})
		case sema.ByRef:
			lv := fl.lvalue(arg)
			if lv == nil {
				return ir.ConstOf(ir.U32, 0)
			}
			binds = append(binds, argBinding{p.Name(), &refBinding{lv: lv}})
		case sema.ByPtr:
			id, ok := arg.(*lang.Ident)
			if !ok {
				fl.errorf(arg.Pos(), "pointer argument must be a parameter name")
				return ir.ConstOf(ir.U32, 0)
			}
			pb, ok := fl.lookupName(id.Name).(*paramBinding)
			if !ok || pb.shadow != nil {
				fl.errorf(arg.Pos(), "pointer argument must be a message pointer parameter")
				return ir.ConstOf(ir.U32, 0)
			}
			binds = append(binds, argBinding{p.Name(), pb})
		}
	}

	// Switch to a fresh scope stack: the callee must not see the
	// caller's locals (only globals and program constants).
	saved := fl.scopes
	fl.scopes = nil
	fl.push()
	for _, ab := range binds {
		fl.bind(ab.name, ab.b)
	}

	ctx := &inlineCtx{fn: f, parent: fl.inline}
	var retTy ir.Type
	if f.Ret != sema.VoidType {
		if b, ok := f.Ret.(*sema.Basic); ok {
			retTy = irType(b)
			ctx.result = fl.emit(&ir.Instr{Op: ir.OpAlloca, Ty: retTy, Elem: retTy, Count: 1, Name: f.Name() + ".ret"})
		}
	}
	fl.inline = ctx
	fl.stmt(f.Decl.Body)
	fl.inline = ctx.parent

	if ctx.exit != nil {
		if fl.blk != nil && fl.blk.Term() == nil {
			fl.emit(&ir.Instr{Op: ir.OpJmp, Targets: []*ir.Block{ctx.exit}})
		}
		fl.blk = ctx.exit
	}
	fl.scopes = saved

	if ctx.result != nil {
		return fl.emit(&ir.Instr{Op: ir.OpLoad, Ty: retTy, Args: []ir.Value{ctx.result, ir.ConstOf(ir.U32, 0)}})
	}
	return ir.ConstOf(ir.U32, 0)
}

// inlineReturn handles a return statement inside an inlined body.
func (fl *fnLowerer) inlineReturn(st *lang.ReturnStmt) {
	ctx := fl.inline
	if st.X != nil && ctx.result != nil {
		v := fl.convert(fl.expr(st.X), ctx.result.Elem)
		fl.emit(&ir.Instr{Op: ir.OpStore, Args: []ir.Value{ctx.result, ir.ConstOf(ir.U32, 0), v}})
	} else if st.X != nil {
		fl.expr(st.X) // e.g. "return f();" in a void function
	}
	if ctx.exit == nil {
		ctx.exit = fl.fn.NewBlock("inl_exit")
	}
	if fl.blk != nil && fl.blk.Term() == nil {
		fl.emit(&ir.Instr{Op: ir.OpJmp, Targets: []*ir.Block{ctx.exit}})
	}
	fl.blk = nil
}
