package sema

import (
	"fmt"
	"strings"

	"netcl/internal/lang"
)

// Object is a named program entity.
type Object interface {
	Name() string
	Pos() lang.Pos
}

// InitValue is a folded constant initializer: either a scalar or a
// nested list.
type InitValue struct {
	IsList bool
	Scalar int64
	Elems  []*InitValue
}

// Flatten appends all scalar leaves in order.
func (iv *InitValue) Flatten(dst []int64) []int64 {
	if iv == nil {
		return dst
	}
	if !iv.IsList {
		return append(dst, iv.Scalar)
	}
	for _, e := range iv.Elems {
		dst = e.Flatten(dst)
	}
	return dst
}

// Global is a device global-memory object (_net_ and/or _managed_,
// possibly _lookup_).
type Global struct {
	name    string
	Decl    *lang.VarDecl
	Elem    Type  // element type: *Basic, *KV, or *RV
	Dims    []int // outer-to-inner dimensions; empty for scalars
	Net     bool
	Managed bool
	Lookup  bool
	At      LocSet
	Init    *InitValue // nil if zero-initialized
}

// Name implements Object.
func (g *Global) Name() string { return g.name }

// Pos implements Object.
func (g *Global) Pos() lang.Pos { return g.Decl.DeclPos }

// NumElems returns the total element count (product of dims, 1 for a
// scalar).
func (g *Global) NumElems() int {
	n := 1
	for _, d := range g.Dims {
		n *= d
	}
	return n
}

// Type returns the full semantic type of the global.
func (g *Global) Type() Type {
	t := g.Elem
	for i := len(g.Dims) - 1; i >= 0; i-- {
		t = &Array{Elem: t, Len: g.Dims[i]}
	}
	return t
}

// Local is a function-local variable.
type Local struct {
	name string
	Decl *lang.VarDecl
	Elem *Basic
	Dims []int
	Fn   *Function
}

// Name implements Object.
func (l *Local) Name() string { return l.name }

// Pos implements Object.
func (l *Local) Pos() lang.Pos { return l.Decl.DeclPos }

// Const is a compile-time integer constant.
type Const struct {
	name    string
	Val     int64
	Typ     *Basic
	declPos lang.Pos
}

// Name implements Object.
func (c *Const) Name() string { return c.name }

// Pos implements Object.
func (c *Const) Pos() lang.Pos { return c.declPos }

// Dir is a parameter passing direction.
type Dir int

// Parameter directions.
const (
	ByVal Dir = iota // input only; device-local modifications
	ByRef            // in/out scalar
	ByPtr            // in/out array with _spec
)

// Param is a kernel or net-function parameter.
type Param struct {
	name  string
	Decl  *lang.Param
	Elem  *Basic
	Dir   Dir
	Spec  int // element count (1 for scalars)
	Index int
	Fn    *Function
}

// Name implements Object.
func (p *Param) Name() string { return p.name }

// Pos implements Object.
func (p *Param) Pos() lang.Pos { return p.Decl.ParamPos }

// Function is a kernel or net function.
type Function struct {
	name   string
	Decl   *lang.FuncDecl
	Kernel bool
	Comp   uint8
	Net    bool
	At     LocSet
	Params []*Param
	Ret    Type

	// Calls and UsesGlobals record the direct dependencies found while
	// checking the body (used for recursion and Eq. 2 validation).
	Calls       []*Function
	UsesGlobals []*Global
}

// Name implements Object.
func (f *Function) Name() string { return f.name }

// Pos implements Object.
func (f *Function) Pos() lang.Pos { return f.Decl.DeclPos }

// Spec returns the kernel specification: per-argument element counts
// and types (§V-A).
func (f *Function) Spec() Spec {
	s := Spec{}
	for _, p := range f.Params {
		s.Counts = append(s.Counts, p.Spec)
		s.Types = append(s.Types, p.Elem)
		s.Dirs = append(s.Dirs, p.Dir)
	}
	return s
}

// Spec is a kernel specification.
type Spec struct {
	Counts []int
	Types  []*Basic
	Dirs   []Dir
}

// Equal reports layout equality (counts and types); direction does not
// participate, since it does not affect the message layout.
func (s Spec) Equal(o Spec) bool {
	if len(s.Counts) != len(o.Counts) {
		return false
	}
	for i := range s.Counts {
		if s.Counts[i] != o.Counts[i] || s.Types[i] != o.Types[i] {
			return false
		}
	}
	return true
}

// Bytes returns the total message-data size in bytes.
func (s Spec) Bytes() int {
	n := 0
	for i := range s.Counts {
		n += s.Counts[i] * s.Types[i].Bits() / 8
	}
	return n
}

// String renders the specification like the paper: [1,2,1][int,int,int].
func (s Spec) String() string {
	var c, t []string
	for i := range s.Counts {
		c = append(c, fmt.Sprintf("%d", s.Counts[i]))
		t = append(t, s.Types[i].String())
	}
	return "[" + strings.Join(c, ",") + "][" + strings.Join(t, ",") + "]"
}

// builtinObj is the resolution target of the special identifiers
// "device" and "msg".
type builtinObj struct {
	name string
}

// Name implements Object.
func (b *builtinObj) Name() string { return b.name }

// Pos implements Object.
func (b *builtinObj) Pos() lang.Pos { return lang.Pos{} }

var (
	deviceObj = &builtinObj{name: "device"}
	msgObj    = &builtinObj{name: "msg"}
)

// Program is the result of semantic analysis.
type Program struct {
	File    *lang.File
	Globals []*Global
	Funcs   []*Function
	Kernels []*Function
	Consts  map[string]*Const

	// Computations groups kernels by computation ID.
	Computations map[uint8][]*Function

	// Types records the semantic type of every checked expression.
	Types map[lang.Expr]Type
	// Refs records the resolution of every identifier.
	Refs map[*lang.Ident]Object
	// Builtins records the device-library binding of each call.
	Builtins map[*lang.CallExpr]*Builtin
	// CalledFns records user-function call targets.
	CalledFns map[*lang.CallExpr]*Function
	// LocalOf maps local declarations to their objects.
	LocalOf map[*lang.VarDecl]*Local
	// ConstVal records expressions folded during checking (dims, specs,
	// computation ids, location lists).
	ConstVal map[lang.Expr]int64
}

// GlobalByName returns the named global, or nil.
func (p *Program) GlobalByName(name string) *Global {
	for _, g := range p.Globals {
		if g.name == name {
			return g
		}
	}
	return nil
}

// FuncByName returns the named function, or nil.
func (p *Program) FuncByName(name string) *Function {
	for _, f := range p.Funcs {
		if f.name == name {
			return f
		}
	}
	return nil
}

// Locations returns the union of all explicit location sets in the
// program, sorted ascending; if no entity has an explicit location the
// result is empty (single-device program).
func (p *Program) Locations() []uint16 {
	seen := map[uint16]bool{}
	add := func(s LocSet) {
		for _, x := range s {
			seen[x] = true
		}
	}
	for _, g := range p.Globals {
		add(g.At)
	}
	for _, f := range p.Funcs {
		add(f.At)
	}
	var out []uint16
	for x := range seen {
		out = append(out, x)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}
