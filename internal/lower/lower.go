// Package lower translates checked NetCL-C ASTs into IR modules, one
// per device location. Net-function calls are inlined during lowering
// and loops are fully unrolled (programs with non-unrollable loops are
// rejected), so the resulting CFG is a DAG by construction — the
// paper's first backend stage (§VI-B, "P4-compilable CFG").
package lower

import (
	"fmt"

	"netcl/internal/ir"
	"netcl/internal/lang"
	"netcl/internal/sema"
)

// Options controls lowering. Only this package's tests set MaxUnroll;
// every other caller passes the zero value. The type stays while
// bench/pipeline.go passes it (ROADMAP 1(f)).
type Options struct {
	// MaxUnroll bounds total loop iterations per loop (default 4096).
	MaxUnroll int
}

// Module lowers all kernels placed at deviceID (including location-less
// kernels) into an IR module. Returns nil if diags has errors.
func Module(prog *sema.Program, deviceID uint16, opts Options, diags *lang.Diagnostics) *ir.Module {
	if opts.MaxUnroll == 0 {
		opts.MaxUnroll = 4096
	}
	l := &lowerer{
		prog:     prog,
		diags:    diags,
		deviceID: deviceID,
		opts:     opts,
		mod:      &ir.Module{Name: fmt.Sprintf("dev%d", deviceID), DeviceID: deviceID},
		memOf:    map[*sema.Global]*ir.MemRef{},
	}
	for _, g := range prog.Globals {
		if len(g.At) == 0 || g.At.Contains(deviceID) {
			l.mod.Mems = append(l.mod.Mems, l.memRef(g))
		}
	}
	for _, k := range prog.Kernels {
		if len(k.At) == 0 || k.At.Contains(deviceID) {
			if fn := l.lowerKernel(k); fn != nil {
				l.mod.Funcs = append(l.mod.Funcs, fn)
			}
		}
	}
	if diags.HasErrors() {
		return nil
	}
	return l.mod
}

type lowerer struct {
	prog     *sema.Program
	diags    *lang.Diagnostics
	deviceID uint16
	opts     Options
	mod      *ir.Module
	memOf    map[*sema.Global]*ir.MemRef
}

// irType converts a sema basic type to an IR type. bool is stored as u8.
func irType(b *sema.Basic) ir.Type {
	if b.Kind == sema.Bool {
		return ir.U8
	}
	return ir.Type{Bits: b.Bits(), Signed: b.Signed()}
}

func (l *lowerer) memRef(g *sema.Global) *ir.MemRef {
	if m, ok := l.memOf[g]; ok {
		return m
	}
	m := &ir.MemRef{Name: g.Name(), Managed: g.Managed, Dims: append([]int(nil), g.Dims...)}
	switch e := g.Elem.(type) {
	case *sema.Basic:
		m.Elem = irType(e)
		if g.Lookup {
			m.LKind = ir.LookupSet
			m.KeyType = irType(e)
		}
	case *sema.KV:
		m.LKind = ir.LookupExact
		m.KeyType = irType(e.K)
		m.Elem = irType(e.V)
	case *sema.RV:
		m.LKind = ir.LookupRange
		m.KeyType = irType(e.R)
		m.Elem = irType(e.V)
	}
	if g.Init != nil {
		m.Init = g.Init.Flatten(nil)
	}
	l.memOf[g] = m
	return m
}

// binding is what a name resolves to during lowering.
type binding interface{ isBinding() }

type constBinding struct {
	val int64
	ty  ir.Type
}

type localBinding struct {
	alloca *ir.Instr
	elem   ir.Type
	dims   []int
}

type paramBinding struct {
	p *ir.MsgParam
	// shadow is non-nil for by-value scalars: modifications are
	// device-local, so reads/writes go through an alloca initialized
	// from the message at kernel entry.
	shadow *ir.Instr
}

type globalBinding struct {
	mem *ir.MemRef
	g   *sema.Global
}

// refBinding aliases a net-function by-ref parameter to the caller's
// lvalue (established at the inlined call site).
type refBinding struct{ lv lvalue }

func (*constBinding) isBinding()  {}
func (*localBinding) isBinding()  {}
func (*paramBinding) isBinding()  {}
func (*globalBinding) isBinding() {}
func (*refBinding) isBinding()    {}

// fnLowerer lowers one kernel body (including inlined net functions).
type fnLowerer struct {
	l      *lowerer
	fn     *ir.Func
	blk    *ir.Block // current insertion block; nil after a terminator
	scopes []map[string]binding
	// inline is the active inlined net-function context, if any.
	inline *inlineCtx
	// loopDepth guards runaway nesting during unrolling.
	loopDepth int
	err       bool
}

func (fl *fnLowerer) push() { fl.scopes = append(fl.scopes, map[string]binding{}) }
func (fl *fnLowerer) pop()  { fl.scopes = fl.scopes[:len(fl.scopes)-1] }

func (fl *fnLowerer) bind(name string, b binding) {
	fl.scopes[len(fl.scopes)-1][name] = b
}

func (fl *fnLowerer) lookupName(name string) binding {
	for i := len(fl.scopes) - 1; i >= 0; i-- {
		if b, ok := fl.scopes[i][name]; ok {
			return b
		}
	}
	if g := fl.l.prog.GlobalByName(name); g != nil {
		return &globalBinding{mem: fl.l.memRef(g), g: g}
	}
	if k, ok := fl.l.prog.Consts[name]; ok {
		return &constBinding{val: k.Val, ty: irType(k.Typ)}
	}
	return nil
}

func (fl *fnLowerer) errorf(pos lang.Pos, format string, args ...interface{}) {
	fl.l.diags.Errorf(pos, format, args...)
	fl.err = true
}

// emit appends an instruction to the current block.
func (fl *fnLowerer) emit(i *ir.Instr) *ir.Instr {
	if fl.blk == nil {
		// Unreachable code after a return; create a dead block so
		// lowering can continue (cleaned up later).
		fl.blk = fl.fn.NewBlock("dead")
	}
	return fl.blk.Append(i)
}

func (fl *fnLowerer) lowerKernel(k *sema.Function) *ir.Func {
	fn := ir.NewFunc(k.Name(), k.Comp)
	fl.fn = fn
	fl.push()
	defer fl.pop()

	entry := fn.NewBlock("entry")
	fl.blk = entry

	offset := 0
	for idx, p := range k.Params {
		mp := &ir.MsgParam{
			Name:  p.Name(),
			Ty:    irType(p.Elem),
			Count: p.Spec,
			Out:   p.Dir != sema.ByVal,
			Index: idx,
		}
		mp.Offset = offset
		offset += p.Spec * p.Elem.Bits() / 8
		fn.Params = append(fn.Params, mp)

		pb := &paramBinding{p: mp}
		if p.Dir == sema.ByVal {
			// Device-local shadow copy.
			al := fl.emit(&ir.Instr{Op: ir.OpAlloca, Ty: mp.Ty, Elem: mp.Ty, Count: 1, Name: p.Name()})
			v := fl.emit(&ir.Instr{Op: ir.OpLoadMsg, Ty: mp.Ty, Param: mp, Args: []ir.Value{ir.ConstOf(ir.U32, 0)}})
			fl.emit(&ir.Instr{Op: ir.OpStore, Args: []ir.Value{al, ir.ConstOf(ir.U32, 0), v}})
			pb.shadow = al
		}
		fl.bind(p.Name(), pb)
	}

	fl.stmt(k.Decl.Body)
	// Implicit pass() on fallthrough.
	if fl.blk != nil && fl.blk.Term() == nil {
		fl.emit(&ir.Instr{Op: ir.OpRetAction, ActionKind: ir.ActPass})
	}
	fl.sealDeadBlocks()
	return fn
}

// lowerKernel is the package-level entry for one kernel.
func (l *lowerer) lowerKernel(k *sema.Function) *ir.Func {
	fl := &fnLowerer{l: l}
	fn := fl.lowerKernel(k)
	if fl.err {
		return nil
	}
	return fn
}

// sealDeadBlocks gives any unterminated (dead) block a pass return so
// verification holds; unreachable blocks are pruned by DCE later.
func (fl *fnLowerer) sealDeadBlocks() {
	for _, b := range fl.fn.Blocks {
		if b.Term() == nil {
			b.Append(&ir.Instr{Op: ir.OpRetAction, ActionKind: ir.ActPass})
		}
	}
}

// constEval folds e using program constants plus in-scope constant
// bindings (loop induction variables during unrolling).
func (fl *fnLowerer) constEval(e lang.Expr) (int64, bool) {
	v, err := sema.EvalConst(e, func(name string) (int64, bool) {
		if b, ok := fl.lookupName(name).(*constBinding); ok && b != nil {
			return b.val, true
		}
		return 0, false
	})
	return v, err == nil
}

// Statements ----------------------------------------------------------

func (fl *fnLowerer) stmt(s lang.Stmt) {
	switch st := s.(type) {
	case *lang.BlockStmt:
		fl.push()
		for _, inner := range st.Stmts {
			fl.stmt(inner)
		}
		fl.pop()
	case *lang.EmptyStmt:
	case *lang.DeclStmt:
		fl.localDecl(st.D)
	case *lang.ExprStmt:
		fl.expr(st.X)
	case *lang.IfStmt:
		fl.ifStmt(st)
	case *lang.ForStmt:
		fl.forStmt(st)
	case *lang.WhileStmt:
		fl.whileStmt(st)
	case *lang.ReturnStmt:
		fl.returnStmt(st)
	default:
		fl.errorf(s.Pos(), "statement not supported in device code")
	}
}

func (fl *fnLowerer) localDecl(d *lang.VarDecl) {
	loc := fl.l.prog.LocalOf[d]
	if loc == nil {
		// Checker rejected it; bind something to limit cascades.
		fl.bind(d.Name, &constBinding{val: 0, ty: ir.U32})
		return
	}
	elem := irType(loc.Elem)
	count := 1
	for _, dim := range loc.Dims {
		count *= dim
	}
	al := fl.emit(&ir.Instr{Op: ir.OpAlloca, Ty: elem, Elem: elem, Count: count, Name: d.Name})
	fl.bind(d.Name, &localBinding{alloca: al, elem: elem, dims: loc.Dims})
	if d.Init != nil {
		if il, ok := d.Init.(*lang.InitList); ok {
			for i, e := range il.Elems {
				v := fl.convert(fl.expr(e), elem)
				fl.emit(&ir.Instr{Op: ir.OpStore, Args: []ir.Value{al, ir.ConstOf(ir.U32, int64(i)), v}})
			}
			return
		}
		v := fl.convert(fl.expr(d.Init), elem)
		fl.emit(&ir.Instr{Op: ir.OpStore, Args: []ir.Value{al, ir.ConstOf(ir.U32, 0), v}})
	}
	// Default-initialized locals have undefined values (§V-B); we do
	// not zero them.
}

func (fl *fnLowerer) ifStmt(st *lang.IfStmt) {
	// Short-circuit &&: "if (a && b) S" nests as "if (a) if (b) S",
	// matching C semantics and letting both tests run as predicates in
	// the same pipeline stage instead of a materialized bit chain.
	if bin, ok := st.Cond.(*lang.BinaryExpr); ok && bin.Op == lang.AndAnd && st.Else == nil {
		inner := &lang.IfStmt{IfPos: st.IfPos, Cond: bin.Y, Then: st.Then}
		fl.ifStmt(&lang.IfStmt{IfPos: st.IfPos, Cond: bin.X, Then: inner})
		return
	}
	cond := fl.cond(st.Cond)
	if c, ok := cond.(*ir.Const); ok {
		// Statically decided branch: lower only the taken side.
		if c.Val != 0 {
			fl.stmt(st.Then)
		} else if st.Else != nil {
			fl.stmt(st.Else)
		}
		return
	}
	thenB := fl.fn.NewBlock("then")
	var elseB *ir.Block
	if st.Else != nil {
		elseB = fl.fn.NewBlock("else")
	}
	joinB := fl.fn.NewBlock("join")
	if elseB == nil {
		elseB = joinB
	}
	fl.emit(&ir.Instr{Op: ir.OpBr, Args: []ir.Value{cond}, Targets: []*ir.Block{thenB, elseB}})

	fl.blk = thenB
	fl.stmt(st.Then)
	if fl.blk != nil && fl.blk.Term() == nil {
		fl.emit(&ir.Instr{Op: ir.OpJmp, Targets: []*ir.Block{joinB}})
	}
	if st.Else != nil {
		fl.blk = elseB
		fl.stmt(st.Else)
		if fl.blk != nil && fl.blk.Term() == nil {
			fl.emit(&ir.Instr{Op: ir.OpJmp, Targets: []*ir.Block{joinB}})
		}
	}
	fl.blk = joinB
}

// forStmt fully unrolls the loop; non-unrollable loops are errors on
// P4 targets (§V-D).
func (fl *fnLowerer) forStmt(st *lang.ForStmt) {
	fl.loopDepth++
	defer func() { fl.loopDepth-- }()
	if fl.loopDepth > 8 {
		fl.errorf(st.ForPos, "loop nesting too deep to unroll")
		return
	}
	fl.push()
	defer fl.pop()

	// Extract the induction variable.
	var ivName string
	var ivVal int64
	switch init := st.Init.(type) {
	case *lang.DeclStmt:
		d := init.D
		if d.Init == nil {
			fl.errorf(d.DeclPos, "cannot unroll loop: induction variable %q has no constant initializer", d.Name)
			return
		}
		v, ok := fl.constEval(d.Init)
		if !ok {
			fl.errorf(d.Init.Pos(), "cannot unroll loop: initializer of %q is not compile-time constant", d.Name)
			return
		}
		ivName, ivVal = d.Name, v
	case *lang.ExprStmt:
		as, ok := init.X.(*lang.AssignExpr)
		if !ok {
			fl.errorf(init.Pos(), "cannot unroll loop: unsupported init statement")
			return
		}
		id, ok := as.LHS.(*lang.Ident)
		if !ok {
			fl.errorf(init.Pos(), "cannot unroll loop: induction variable must be a simple name")
			return
		}
		v, ok := fl.constEval(as.RHS)
		if !ok {
			fl.errorf(as.RHS.Pos(), "cannot unroll loop: initializer is not compile-time constant")
			return
		}
		ivName, ivVal = id.Name, v
	case nil:
		fl.errorf(st.ForPos, "cannot unroll loop without an induction variable")
		return
	default:
		fl.errorf(st.ForPos, "cannot unroll loop: unsupported init statement")
		return
	}

	if assignsTo(st.Body, ivName) {
		fl.errorf(st.ForPos, "cannot unroll loop: body modifies induction variable %q", ivName)
		return
	}

	iter := 0
	for {
		// Bind the induction variable to its current constant value.
		fl.push()
		fl.bind(ivName, &constBinding{val: ivVal, ty: ir.S32})
		cont := true
		if st.Cond != nil {
			c, ok := fl.constEval(st.Cond)
			if !ok {
				fl.errorf(st.Cond.Pos(), "cannot unroll loop: condition is not compile-time evaluable")
				fl.pop()
				return
			}
			cont = c != 0
		}
		if !cont {
			fl.pop()
			break
		}
		if iter++; iter > fl.l.opts.MaxUnroll {
			fl.errorf(st.ForPos, "loop exceeds the unroll limit of %d iterations", fl.l.opts.MaxUnroll)
			fl.pop()
			return
		}
		fl.stmt(st.Body)
		if st.Post != nil {
			next, ok := fl.evalPost(st.Post, ivName, ivVal)
			if !ok {
				fl.pop()
				return
			}
			ivVal = next
		} else if st.Cond != nil {
			fl.errorf(st.ForPos, "cannot unroll loop without a post statement")
			fl.pop()
			return
		}
		fl.pop()
		if fl.blk == nil {
			break // returned inside the loop
		}
	}
}

// evalPost computes the next induction value from i++, ++i, i+=k,
// i-=k, i--, or i = <const expr>.
func (fl *fnLowerer) evalPost(post lang.Stmt, ivName string, cur int64) (int64, bool) {
	es, ok := post.(*lang.ExprStmt)
	if !ok {
		fl.errorf(post.Pos(), "cannot unroll loop: unsupported post statement")
		return 0, false
	}
	switch x := es.X.(type) {
	case *lang.UnaryExpr:
		if id, ok := x.X.(*lang.Ident); ok && id.Name == ivName {
			switch x.Op {
			case lang.Inc:
				return cur + 1, true
			case lang.Dec:
				return cur - 1, true
			}
		}
	case *lang.PostfixExpr:
		if id, ok := x.X.(*lang.Ident); ok && id.Name == ivName {
			switch x.Op {
			case lang.Inc:
				return cur + 1, true
			case lang.Dec:
				return cur - 1, true
			}
		}
	case *lang.AssignExpr:
		id, ok := x.LHS.(*lang.Ident)
		if !ok || id.Name != ivName {
			break
		}
		v, ok2 := fl.constEval(x.RHS)
		if !ok2 {
			break
		}
		switch x.Op {
		case lang.Assign:
			return v, true
		case lang.PlusEq:
			return cur + v, true
		case lang.MinusEq:
			return cur - v, true
		case lang.StarEq:
			return cur * v, true
		case lang.ShlEq:
			return cur << uint(v), true
		case lang.ShrEq:
			return cur >> uint(v), true
		}
	}
	fl.errorf(post.Pos(), "cannot unroll loop: post statement must be a constant step of the induction variable")
	return 0, false
}

func (fl *fnLowerer) whileStmt(st *lang.WhileStmt) {
	// Only constant-false while loops are unrollable without an
	// induction variable; anything else cannot map to a feed-forward
	// pipeline.
	if v, ok := fl.constEval(st.Cond); ok && v == 0 {
		return
	}
	fl.errorf(st.WhilePos, "cannot unroll while loop; use a for loop with constant bounds")
}

// assignsTo reports whether body writes the named variable.
func assignsTo(body lang.Stmt, name string) bool {
	found := false
	lang.Walk(body, func(n lang.Node) bool {
		switch x := n.(type) {
		case *lang.AssignExpr:
			if id, ok := x.LHS.(*lang.Ident); ok && id.Name == name {
				found = true
			}
		case *lang.UnaryExpr:
			if x.Op == lang.Inc || x.Op == lang.Dec {
				if id, ok := x.X.(*lang.Ident); ok && id.Name == name {
					found = true
				}
			}
		case *lang.PostfixExpr:
			if id, ok := x.X.(*lang.Ident); ok && id.Name == name {
				found = true
			}
		case *lang.DeclStmt:
			// Shadowing declaration: conservatively treat as a write.
			if x.D.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

func (fl *fnLowerer) returnStmt(st *lang.ReturnStmt) {
	if fl.inline != nil {
		fl.inlineReturn(st)
		return
	}
	if st.X == nil {
		fl.emit(&ir.Instr{Op: ir.OpRetAction, ActionKind: ir.ActPass})
		fl.blk = nil
		return
	}
	fl.kernelReturnExpr(st.X)
}

// kernelReturnExpr lowers the action expression of a kernel return.
func (fl *fnLowerer) kernelReturnExpr(e lang.Expr) {
	switch x := e.(type) {
	case *lang.CondExpr:
		cond := fl.cond(x.Cond)
		if c, ok := cond.(*ir.Const); ok {
			if c.Val != 0 {
				fl.kernelReturnExpr(x.Then)
			} else {
				fl.kernelReturnExpr(x.Else)
			}
			return
		}
		thenB := fl.fn.NewBlock("ret_t")
		elseB := fl.fn.NewBlock("ret_f")
		fl.emit(&ir.Instr{Op: ir.OpBr, Args: []ir.Value{cond}, Targets: []*ir.Block{thenB, elseB}})
		fl.blk = thenB
		fl.kernelReturnExpr(x.Then)
		fl.blk = elseB
		fl.kernelReturnExpr(x.Else)
		fl.blk = nil
		return
	case *lang.CallExpr:
		if b := fl.l.prog.Builtins[x]; b != nil && b.Cat == sema.CatAction {
			var args []ir.Value
			for _, a := range x.Args {
				args = append(args, fl.convert(fl.expr(a), ir.U16))
			}
			fl.emit(&ir.Instr{Op: ir.OpRetAction, ActionKind: ir.ActionKind(b.Op), Args: args})
			fl.blk = nil
			return
		}
		// Void net-function call followed by implicit pass().
		fl.expr(x)
		if fl.blk != nil {
			fl.emit(&ir.Instr{Op: ir.OpRetAction, ActionKind: ir.ActPass})
			fl.blk = nil
		}
		return
	}
	fl.errorf(e.Pos(), "unsupported kernel return expression")
}
