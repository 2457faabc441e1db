package sema

import (
	"netcl/internal/lang"
)

// addrType is the internal type of "&global[...]" expressions, which
// may only flow into atomic builtins.
type addrType struct {
	elem *Basic
	g    *Global
}

// String implements Type.
func (a *addrType) String() string { return a.elem.String() + "*" }

// Bits implements Type.
func (a *addrType) Bits() int { return a.elem.Bits() }

// bodyChecker checks a single function body.
type bodyChecker struct {
	c      *checker
	fn     *Function
	scopes []map[string]Object
	seq    int
}

func (c *checker) checkBody(fd *lang.FuncDecl) {
	f := c.fnOf[fd]
	if f == nil || fd.Body == nil {
		return
	}
	bc := &bodyChecker{c: c, fn: f}
	bc.push()
	for _, p := range f.Params {
		if p.Name() != "" {
			bc.declare(p.Name(), p, p.Pos())
		}
	}
	bc.block(fd.Body)
	bc.pop()
}

func (bc *bodyChecker) push() { bc.scopes = append(bc.scopes, map[string]Object{}) }
func (bc *bodyChecker) pop()  { bc.scopes = bc.scopes[:len(bc.scopes)-1] }

func (bc *bodyChecker) declare(name string, obj Object, pos lang.Pos) {
	top := bc.scopes[len(bc.scopes)-1]
	if _, dup := top[name]; dup {
		bc.c.diags.Errorf(pos, "redeclaration of %q in the same scope", name)
	}
	top[name] = obj
}

func (bc *bodyChecker) resolve(name string) Object {
	for i := len(bc.scopes) - 1; i >= 0; i-- {
		if obj, ok := bc.scopes[i][name]; ok {
			return obj
		}
	}
	if g := bc.c.prog.GlobalByName(name); g != nil {
		return g
	}
	if k, ok := bc.c.prog.Consts[name]; ok {
		return k
	}
	if f := bc.c.prog.FuncByName(name); f != nil {
		return f
	}
	switch name {
	case "device":
		return deviceObj
	case "msg":
		return msgObj
	}
	return nil
}

func (bc *bodyChecker) useGlobal(g *Global) {
	for _, u := range bc.fn.UsesGlobals {
		if u == g {
			return
		}
	}
	bc.fn.UsesGlobals = append(bc.fn.UsesGlobals, g)
}

// Statements ----------------------------------------------------------

func (bc *bodyChecker) block(b *lang.BlockStmt) {
	bc.push()
	for _, s := range b.Stmts {
		bc.stmt(s)
	}
	bc.pop()
}

func (bc *bodyChecker) stmt(s lang.Stmt) {
	switch st := s.(type) {
	case *lang.BlockStmt:
		bc.block(st)
	case *lang.EmptyStmt:
	case *lang.DeclStmt:
		bc.localDecl(st.D)
	case *lang.ExprStmt:
		bc.expr(st.X, false)
	case *lang.IfStmt:
		bc.scalarExpr(st.Cond)
		bc.stmt(st.Then)
		if st.Else != nil {
			bc.stmt(st.Else)
		}
	case *lang.ForStmt:
		bc.push()
		if st.Init != nil {
			bc.stmt(st.Init)
		}
		if st.Cond != nil {
			bc.scalarExpr(st.Cond)
		}
		if st.Post != nil {
			bc.stmt(st.Post)
		}
		bc.stmt(st.Body)
		bc.pop()
	case *lang.WhileStmt:
		bc.scalarExpr(st.Cond)
		bc.stmt(st.Body)
	case *lang.ReturnStmt:
		bc.returnStmt(st)
	case *lang.BreakStmt:
		bc.c.diags.Errorf(st.KwPos, "break is not supported in NetCL device code (loops must be fully unrolled)")
	case *lang.ContinueStmt:
		bc.c.diags.Errorf(st.KwPos, "continue is not supported in NetCL device code (loops must be fully unrolled)")
	}
}

func (bc *bodyChecker) localDecl(d *lang.VarDecl) {
	if d.IsGlobalMemory() || d.Lookup || len(d.At) > 0 {
		bc.c.diags.Errorf(d.DeclPos, "NetCL memory specifiers are not allowed on local variable %q", d.Name)
	}
	var elem *Basic
	if d.Type.Name == "auto" {
		if d.Init == nil {
			bc.c.diags.Errorf(d.DeclPos, "auto variable %q requires an initializer", d.Name)
			elem = U32Type
		} else {
			t := bc.expr(d.Init, false)
			b, ok := t.(*Basic)
			if !ok {
				bc.c.diags.Errorf(d.DeclPos, "cannot deduce a scalar type for %q from initializer of type %s", d.Name, typeName(t))
				b = U32Type
			}
			elem = b
		}
	} else {
		t := resolveType(d.Type, bc.c.diags)
		b, ok := t.(*Basic)
		if !ok || b == VoidType {
			bc.c.diags.Errorf(d.DeclPos, "local variable %q must have a fundamental scalar or array-of-scalar type", d.Name)
			b = U32Type
		}
		elem = b
		if d.Init != nil {
			if _, isList := d.Init.(*lang.InitList); isList {
				bc.checkLocalInitList(d)
			} else {
				bc.convertible(bc.expr(d.Init, false), elem, d.Init.Pos())
			}
		}
	}
	var dims []int
	for _, de := range d.Dims {
		if de == nil {
			bc.c.diags.Errorf(d.DeclPos, "local array %q requires explicit dimensions", d.Name)
			dims = append(dims, 1)
			continue
		}
		if v, ok := bc.c.fold(de); ok && v > 0 {
			dims = append(dims, int(v))
		} else {
			dims = append(dims, 1)
		}
	}
	l := &Local{name: d.Name, Decl: d, Elem: elem, Dims: dims, Fn: bc.fn}
	bc.c.prog.LocalOf[d] = l
	bc.declare(d.Name, l, d.DeclPos)
}

func (bc *bodyChecker) checkLocalInitList(d *lang.VarDecl) {
	il := d.Init.(*lang.InitList)
	if len(d.Dims) == 0 {
		bc.c.diags.Errorf(il.LBracePos, "initializer list requires an array variable")
		return
	}
	for _, e := range il.Elems {
		if _, isList := e.(*lang.InitList); isList {
			bc.c.diags.Errorf(e.Pos(), "nested initializer lists are not supported for local arrays")
			continue
		}
		bc.expr(e, false)
	}
}

// returnStmt validates kernel action returns and net-function value
// returns.
func (bc *bodyChecker) returnStmt(st *lang.ReturnStmt) {
	if bc.fn.Kernel {
		if st.X == nil {
			return // implicit pass()
		}
		bc.kernelReturnExpr(st.X)
		return
	}
	// Net function.
	if bc.fn.Ret == VoidType {
		if st.X != nil {
			t := bc.expr(st.X, false)
			if t != VoidType {
				bc.c.diags.Errorf(st.X.Pos(), "void function %q cannot return a value", bc.fn.Name())
			}
		}
		return
	}
	if st.X == nil {
		bc.c.diags.Errorf(st.RetPos, "function %q must return a %s value", bc.fn.Name(), bc.fn.Ret)
		return
	}
	bc.convertibleType(bc.expr(st.X, false), bc.fn.Ret, st.X.Pos())
}

// kernelReturnExpr accepts actions, void net-function calls, and
// ternaries combining them (Fig. 4: `return hit ? reflect() : sketch(...)`).
func (bc *bodyChecker) kernelReturnExpr(e lang.Expr) {
	switch x := e.(type) {
	case *lang.CondExpr:
		bc.scalarExpr(x.Cond)
		bc.kernelReturnExpr(x.Then)
		bc.kernelReturnExpr(x.Else)
	case *lang.CallExpr:
		t := bc.expr(x, true)
		if t != TheActionType && t != VoidType {
			bc.c.diags.Errorf(e.Pos(), "kernel return value must be an action or a void call, got %s", typeName(t))
		}
	default:
		bc.c.diags.Errorf(e.Pos(), "kernel return value must be an action, a void call, or a ternary of those")
	}
}

// Expressions ---------------------------------------------------------

// scalarExpr checks e and requires an integer/bool scalar.
func (bc *bodyChecker) scalarExpr(e lang.Expr) *Basic {
	t := bc.expr(e, false)
	if b, ok := t.(*Basic); ok && b != VoidType {
		return b
	}
	bc.c.diags.Errorf(e.Pos(), "expected a scalar value, got %s", typeName(t))
	return U32Type
}

func typeName(t Type) string {
	if t == nil {
		return "<error>"
	}
	return t.String()
}

// expr type-checks e and records the result. actionOK permits action
// calls (only true directly under return).
func (bc *bodyChecker) expr(e lang.Expr, actionOK bool) Type {
	t := bc.exprInner(e, actionOK)
	bc.c.prog.Types[e] = t
	return t
}

func (bc *bodyChecker) exprInner(e lang.Expr, actionOK bool) Type {
	switch x := e.(type) {
	case *lang.IntLit:
		if x.Val > 0x7FFFFFFF {
			if x.Val > 0x7FFFFFFFFFFFFFFF {
				return U64Type
			}
			return I64Type
		}
		return I32Type
	case *lang.BoolLit:
		return BoolType
	case *lang.Ident:
		return bc.identExpr(x)
	case *lang.BinaryExpr:
		return bc.binaryExpr(x)
	case *lang.UnaryExpr:
		return bc.unaryExpr(x)
	case *lang.PostfixExpr:
		t := bc.lvalueExpr(x.X)
		return t
	case *lang.AssignExpr:
		return bc.assignExpr(x)
	case *lang.CondExpr:
		bc.scalarExpr(x.Cond)
		a := bc.expr(x.Then, false)
		b := bc.expr(x.Else, false)
		ab, aok := a.(*Basic)
		bb, bok := b.(*Basic)
		if !aok || !bok {
			bc.c.diags.Errorf(x.QPos, "ternary arms must be scalar values")
			return U32Type
		}
		return Common(ab, bb)
	case *lang.CallExpr:
		return bc.callExpr(x, actionOK)
	case *lang.IndexExpr:
		return bc.indexExpr(x)
	case *lang.MemberExpr:
		return bc.memberExpr(x)
	case *lang.CastExpr:
		t := resolveType(x.Type, bc.c.diags)
		b, ok := t.(*Basic)
		if !ok || b == VoidType {
			bc.c.diags.Errorf(x.LParenPos, "casts are only supported between fundamental integer types")
			return U32Type
		}
		src := bc.expr(x.X, false)
		if _, isB := src.(*Basic); !isB {
			bc.c.diags.Errorf(x.X.Pos(), "cannot cast %s to %s (pointer casts are rejected in device code)", typeName(src), b)
		}
		return b
	case *lang.InitList:
		bc.c.diags.Errorf(x.LBracePos, "initializer lists may only appear in declarations")
		return U32Type
	}
	bc.c.diags.Errorf(e.Pos(), "unsupported expression")
	return U32Type
}

func (bc *bodyChecker) identExpr(x *lang.Ident) Type {
	if x.NS != "" {
		bc.c.diags.Errorf(x.NamePos, "qualified name %s::%s used outside a call", x.NS, x.Name)
		return U32Type
	}
	obj := bc.resolve(x.Name)
	if obj == nil {
		if LookupBuiltin("", x.Name) != nil {
			bc.c.diags.Errorf(x.NamePos, "builtin %q must be called", x.Name)
		} else {
			bc.c.diags.Errorf(x.NamePos, "undeclared identifier %q", x.Name)
		}
		return U32Type
	}
	bc.c.prog.Refs[x] = obj
	switch o := obj.(type) {
	case *Param:
		switch o.Dir {
		case ByPtr:
			return &Ptr{Elem: o.Elem, Spec: o.Spec}
		default:
			return o.Elem
		}
	case *Local:
		if len(o.Dims) > 0 {
			t := Type(o.Elem)
			for i := len(o.Dims) - 1; i >= 0; i-- {
				t = &Array{Elem: t, Len: o.Dims[i]}
			}
			return t
		}
		return o.Elem
	case *Global:
		bc.useGlobal(o)
		return o.Type()
	case *Const:
		return o.Typ
	case *Function:
		bc.c.diags.Errorf(x.NamePos, "function %q used as a value", x.Name)
		return U32Type
	case *builtinObj:
		bc.c.diags.Errorf(x.NamePos, "%q may only be used with member selection (e.g. %s.id)", o.name, o.name)
		return U32Type
	}
	return U32Type
}

func (bc *bodyChecker) binaryExpr(x *lang.BinaryExpr) Type {
	a := bc.expr(x.X, false)
	b := bc.expr(x.Y, false)
	ab, aok := a.(*Basic)
	bb, bok := b.(*Basic)
	if !aok || !bok {
		if _, isPtr := a.(*Ptr); isPtr {
			bc.c.diags.Errorf(x.OpPos, "pointer arithmetic is rejected in device code")
		} else if _, isPtr := b.(*Ptr); isPtr {
			bc.c.diags.Errorf(x.OpPos, "pointer arithmetic is rejected in device code")
		} else {
			bc.c.diags.Errorf(x.OpPos, "operator %s requires scalar operands, got %s and %s", x.Op, typeName(a), typeName(b))
		}
		return U32Type
	}
	if ab == VoidType || bb == VoidType {
		bc.c.diags.Errorf(x.OpPos, "void value in expression")
		return U32Type
	}
	switch x.Op {
	case lang.AndAnd, lang.OrOr, lang.EqEq, lang.NotEq, lang.Lt, lang.Gt, lang.Le, lang.Ge:
		return BoolType
	case lang.Shl, lang.Shr:
		if ab.Kind == Bool {
			return U8Type
		}
		return ab
	default:
		return Common(ab, bb)
	}
}

func (bc *bodyChecker) unaryExpr(x *lang.UnaryExpr) Type {
	switch x.Op {
	case lang.Amp:
		return bc.addrOf(x)
	case lang.Star:
		t := bc.expr(x.X, false)
		if p, ok := t.(*Ptr); ok {
			return p.Elem
		}
		bc.c.diags.Errorf(x.OpPos, "cannot dereference non-pointer value of type %s", typeName(t))
		return U32Type
	case lang.Not:
		bc.scalarExpr(x.X)
		return BoolType
	case lang.Minus, lang.Tilde:
		b := bc.scalarExpr(x.X)
		if b.Kind == Bool {
			return U8Type
		}
		return b
	case lang.Inc, lang.Dec:
		return bc.lvalueExpr(x.X)
	}
	bc.c.diags.Errorf(x.OpPos, "unsupported unary operator %s", x.Op)
	return U32Type
}

// addrOf checks &expr; the operand must denote a global memory element
// (possibly the whole object for scalars), yielding an address usable
// only by atomic builtins and managed-memory host calls.
func (bc *bodyChecker) addrOf(x *lang.UnaryExpr) Type {
	g, elem := bc.globalElem(x.X)
	if g == nil {
		bc.c.diags.Errorf(x.OpPos, "address-of is only supported on global memory elements (for atomic operations)")
		return U32Type
	}
	return &addrType{elem: elem, g: g}
}

// globalElem matches expressions of the form G, G[i], G[i][j]... and
// returns the global and its scalar element type; it also type-checks
// the index expressions.
func (bc *bodyChecker) globalElem(e lang.Expr) (*Global, *Basic) {
	depth := 0
	base := e
	var indices []lang.Expr
	for {
		ix, ok := base.(*lang.IndexExpr)
		if !ok {
			break
		}
		indices = append(indices, ix.Index)
		base = ix.X
		depth++
	}
	id, ok := base.(*lang.Ident)
	if !ok || id.NS != "" {
		return nil, nil
	}
	obj := bc.resolve(id.Name)
	g, ok := obj.(*Global)
	if !ok {
		return nil, nil
	}
	bc.c.prog.Refs[id] = g
	bc.useGlobal(g)
	if depth != len(g.Dims) {
		bc.c.diags.Errorf(e.Pos(), "memory %q requires %d indices, got %d", g.Name(), len(g.Dims), depth)
	}
	for _, ix := range indices {
		bc.scalarExpr(ix)
	}
	elem, _ := g.Elem.(*Basic)
	if elem == nil {
		bc.c.diags.Errorf(e.Pos(), "atomic operations require scalar memory, %q has entry type %s", g.Name(), g.Elem)
		elem = U32Type
	}
	bc.c.prog.Types[e] = elem
	return g, elem
}

// lvalueExpr checks that e is assignable and returns its scalar type.
func (bc *bodyChecker) lvalueExpr(e lang.Expr) *Basic {
	switch x := e.(type) {
	case *lang.Ident:
		t := bc.expr(x, false)
		obj := bc.c.prog.Refs[x]
		switch o := obj.(type) {
		case *Const:
			bc.c.diags.Errorf(x.NamePos, "cannot assign to constant %q", x.Name)
		case *Local:
			if len(o.Dims) > 0 {
				bc.c.diags.Errorf(x.NamePos, "array %q is not assignable as a whole", x.Name)
			}
		case *Global:
			if len(o.Dims) > 0 {
				bc.c.diags.Errorf(x.NamePos, "cannot assign to array %q as a whole", x.Name)
			}
			if o.Lookup {
				bc.c.diags.Errorf(x.NamePos, "lookup memory %q is read-only in device code", x.Name)
			}
		case *Param:
			if o.Dir == ByPtr {
				bc.c.diags.Errorf(x.NamePos, "cannot assign to pointer parameter %q as a whole", x.Name)
			}
		}
		if b, ok := t.(*Basic); ok {
			return b
		}
		return U32Type
	case *lang.IndexExpr:
		t := bc.expr(x, false)
		// Reject writes into lookup memory.
		if g, _ := bc.baseGlobal(x); g != nil && g.Lookup {
			bc.c.diags.Errorf(e.Pos(), "lookup memory %q is read-only in device code", g.Name())
		}
		if b, ok := t.(*Basic); ok {
			return b
		}
		bc.c.diags.Errorf(e.Pos(), "partial array indexing cannot be assigned")
		return U32Type
	case *lang.UnaryExpr:
		if x.Op == lang.Star {
			t := bc.expr(x, false)
			if b, ok := t.(*Basic); ok {
				return b
			}
		}
	case *lang.MemberExpr:
		bc.c.diags.Errorf(e.Pos(), "builtin struct fields are read-only")
		bc.expr(x, false)
		return U16Type
	}
	bc.c.diags.Errorf(e.Pos(), "expression is not assignable")
	bc.expr(e, false)
	return U32Type
}

// baseGlobal returns the global at the base of an index chain, if any.
func (bc *bodyChecker) baseGlobal(e lang.Expr) (*Global, int) {
	depth := 0
	for {
		ix, ok := e.(*lang.IndexExpr)
		if !ok {
			break
		}
		e = ix.X
		depth++
	}
	if id, ok := e.(*lang.Ident); ok && id.NS == "" {
		if g, ok2 := bc.resolve(id.Name).(*Global); ok2 {
			return g, depth
		}
	}
	return nil, depth
}

func (bc *bodyChecker) assignExpr(x *lang.AssignExpr) Type {
	lt := bc.lvalueExpr(x.LHS)
	rt := bc.expr(x.RHS, false)
	bc.convertible(rt, lt, x.RHS.Pos())
	return lt
}

func (bc *bodyChecker) indexExpr(x *lang.IndexExpr) Type {
	t := bc.expr(x.X, false)
	bc.scalarExpr(x.Index)
	switch b := t.(type) {
	case *Array:
		return b.Elem
	case *Ptr:
		return b.Elem
	}
	bc.c.diags.Errorf(x.LBrack, "cannot index value of type %s", typeName(t))
	return U32Type
}

func (bc *bodyChecker) memberExpr(x *lang.MemberExpr) Type {
	id, ok := x.X.(*lang.Ident)
	if !ok {
		bc.c.diags.Errorf(x.Dot, "member selection is only supported on the builtin structs device and msg")
		return U32Type
	}
	obj := bc.resolve(id.Name)
	bo, ok := obj.(*builtinObj)
	if !ok {
		bc.c.diags.Errorf(x.Dot, "member selection is only supported on the builtin structs device and msg")
		return U32Type
	}
	bc.c.prog.Refs[id] = bo
	switch bo.name {
	case "device":
		switch x.Sel {
		case "id":
			return U16Type
		case "kind":
			return U8Type
		}
	case "msg":
		switch x.Sel {
		case "src", "dst", "from", "to":
			return U16Type
		}
	}
	bc.c.diags.Errorf(x.Dot, "unknown field %q of builtin struct %q", x.Sel, bo.name)
	return U32Type
}

// convertible checks integer-to-integer implicit conversion.
func (bc *bodyChecker) convertible(src Type, dst *Basic, pos lang.Pos) {
	b, ok := src.(*Basic)
	if !ok || b == VoidType || dst == VoidType {
		bc.c.diags.Errorf(pos, "cannot convert %s to %s", typeName(src), dst)
		return
	}
	if b.Bits() > dst.Bits() {
		bc.c.diags.Warnf(pos, "implicit narrowing conversion from %s to %s", b, dst)
	}
}

func (bc *bodyChecker) convertibleType(src, dst Type, pos lang.Pos) {
	if db, ok := dst.(*Basic); ok {
		bc.convertible(src, db, pos)
		return
	}
	if src != dst {
		bc.c.diags.Errorf(pos, "cannot convert %s to %s", typeName(src), typeName(dst))
	}
}

// callExpr resolves and checks calls to builtins and net functions.
func (bc *bodyChecker) callExpr(x *lang.CallExpr, actionOK bool) Type {
	name := x.Fun.Name
	// User function?
	if x.Fun.NS == "" {
		if f := bc.c.prog.FuncByName(name); f != nil {
			return bc.userCall(x, f)
		}
	}
	b := LookupBuiltin(x.Fun.NS, name)
	if b == nil {
		bc.c.diags.Errorf(x.Fun.NamePos, "unknown function %q", qualName(x.Fun))
		for _, a := range x.Args {
			bc.expr(a, false)
		}
		return U32Type
	}
	bc.c.prog.Builtins[x] = b
	if n := len(x.Args); n < b.MinArgs || n > b.MaxArgs {
		bc.c.diags.Errorf(x.Fun.NamePos, "%q expects %d-%d arguments, got %d", qualName(x.Fun), b.MinArgs, b.MaxArgs, n)
	}
	switch b.Cat {
	case CatAction:
		if !actionOK {
			bc.c.diags.Errorf(x.Fun.NamePos, "action %q may only appear in a return statement", name)
		}
		if !bc.fn.Kernel {
			bc.c.diags.Errorf(x.Fun.NamePos, "action %q may only be used inside kernels", name)
		}
		for _, a := range x.Args {
			bc.scalarExpr(a)
		}
		return TheActionType
	case CatAtomic:
		return bc.atomicCall(x, b)
	case CatLookup:
		return bc.lookupCall(x)
	case CatMath:
		return bc.mathCall(x, b)
	case CatHash, CatIntrinsic:
		var args []*Basic
		for _, a := range x.Args {
			args = append(args, bc.scalarExpr(a))
		}
		if len(x.TArgs) == 1 {
			if v, err := EvalConst(x.TArgs[0], bc.c.constEnv); err == nil && v > 0 && v <= 64 {
				return basicByBits(int(v))
			}
		}
		if b.Op == "identity" && len(args) > 0 {
			return args[0]
		}
		return basicByBits(hashWidth(b.Op))
	}
	return U32Type
}

func qualName(id *lang.Ident) string {
	if id.NS != "" {
		return id.NS + "::" + id.Name
	}
	return id.Name
}

func (bc *bodyChecker) userCall(x *lang.CallExpr, f *Function) Type {
	if f.Kernel {
		bc.c.diags.Errorf(x.Fun.NamePos, "kernel %q cannot be called; kernels are invoked by messages", f.Name())
		return VoidType
	}
	bc.c.prog.CalledFns[x] = f
	// Record the call edge once.
	found := false
	for _, cf := range bc.fn.Calls {
		if cf == f {
			found = true
			break
		}
	}
	if !found {
		bc.fn.Calls = append(bc.fn.Calls, f)
	}
	if len(x.Args) != len(f.Params) {
		bc.c.diags.Errorf(x.Fun.NamePos, "%q expects %d arguments, got %d", f.Name(), len(f.Params), len(x.Args))
	}
	for i, a := range x.Args {
		if i >= len(f.Params) {
			bc.expr(a, false)
			continue
		}
		p := f.Params[i]
		switch p.Dir {
		case ByRef:
			bc.lvalueExpr(a)
		case ByPtr:
			t := bc.expr(a, false)
			if _, ok := t.(*Ptr); !ok {
				bc.c.diags.Errorf(a.Pos(), "argument %d of %q must be a pointer", i+1, f.Name())
			}
		default:
			bc.convertible(bc.expr(a, false), p.Elem, a.Pos())
		}
	}
	return f.Ret
}

func (bc *bodyChecker) atomicCall(x *lang.CallExpr, b *Builtin) Type {
	if len(x.Args) == 0 {
		return U32Type
	}
	// First argument: &G[...] or a bare global element lvalue (the
	// paper uses both spellings).
	var elem *Basic
	if u, ok := x.Args[0].(*lang.UnaryExpr); ok && u.Op == lang.Amp {
		t := bc.expr(x.Args[0], false)
		if at, ok2 := t.(*addrType); ok2 {
			elem = at.elem
		}
	} else if g, e := bc.globalElem(x.Args[0]); g != nil {
		elem = e
	}
	if elem == nil {
		bc.c.diags.Errorf(x.Args[0].Pos(), "atomic operations require a global memory element as their first argument")
		elem = U32Type
	}
	rest := x.Args[1:]
	if b.Cond && len(rest) > 0 {
		bc.scalarExpr(rest[0])
		rest = rest[1:]
	}
	for _, a := range rest {
		bc.convertible(bc.expr(a, false), elem, a.Pos())
	}
	if b.Op == "write" {
		return VoidType
	}
	return elem
}

func (bc *bodyChecker) lookupCall(x *lang.CallExpr) Type {
	if len(x.Args) < 2 {
		return BoolType
	}
	id, ok := x.Args[0].(*lang.Ident)
	if !ok {
		bc.c.diags.Errorf(x.Args[0].Pos(), "the first argument of lookup() must name a _lookup_ array")
		return BoolType
	}
	obj := bc.resolve(id.Name)
	g, ok := obj.(*Global)
	if !ok || !g.Lookup {
		bc.c.diags.Errorf(id.NamePos, "%q is not a _lookup_ array", id.Name)
		return BoolType
	}
	bc.c.prog.Refs[id] = g
	bc.useGlobal(g)
	var keyType, valType *Basic
	switch e := g.Elem.(type) {
	case *KV:
		keyType, valType = e.K, e.V
	case *RV:
		keyType, valType = e.R, e.V
	case *Basic:
		keyType = e // scalar set membership
	}
	bc.convertible(bc.expr(x.Args[1], false), keyType, x.Args[1].Pos())
	if len(x.Args) == 3 {
		if valType == nil {
			bc.c.diags.Errorf(x.Args[2].Pos(), "lookup on a scalar set %q takes no output argument", g.Name())
		} else {
			got := bc.lvalueExpr(x.Args[2])
			if got.Bits() < valType.Bits() {
				bc.c.diags.Warnf(x.Args[2].Pos(), "lookup output %s narrower than value type %s", got, valType)
			}
		}
	}
	return BoolType
}

func (bc *bodyChecker) mathCall(x *lang.CallExpr, b *Builtin) Type {
	var args []*Basic
	for _, a := range x.Args {
		args = append(args, bc.scalarExpr(a))
	}
	switch b.Op {
	case "sadd", "ssub", "min", "max":
		if len(args) == 2 {
			return Common(args[0], args[1])
		}
		return U32Type
	case "bit_chk":
		return BoolType
	case "clz", "ctz", "bswap":
		if len(args) == 1 {
			return args[0]
		}
		return U32Type
	case "rand":
		if len(x.TArgs) == 1 {
			if id, ok := x.TArgs[0].(*lang.Ident); ok {
				if canon, ok2 := map[string]string{
					"u8": "u8", "u16": "u16", "u32": "u32", "u64": "u64",
					"uint8_t": "u8", "uint16_t": "u16", "uint32_t": "u32", "uint64_t": "u64",
				}[id.Name]; ok2 {
					return BasicByName(canon)
				}
			}
			bc.c.diags.Errorf(x.TArgs[0].Pos(), "rand<T> requires an unsigned integer type argument")
		}
		return U32Type
	}
	return U32Type
}
