// Package sema implements semantic analysis for NetCL-C: symbol
// resolution, type checking, kernel specifications (§V-A of the paper),
// placement and reference validity (§V-C, equations 1 and 2), and the
// language-level restrictions of §V-D.
package sema

import (
	"fmt"
	"strings"

	"netcl/internal/lang"
)

// BasicKind enumerates the fundamental NetCL types.
type BasicKind int

// Fundamental type kinds.
const (
	Invalid BasicKind = iota
	Void
	Bool
	I8
	U8
	I16
	U16
	I32
	U32
	I64
	U64
)

// Type is a semantic type.
type Type interface {
	String() string
	// Bits is the storage width in bits (0 for void).
	Bits() int
}

// Basic is a fundamental scalar type.
type Basic struct{ Kind BasicKind }

var basicInfo = map[BasicKind]struct {
	name   string
	bits   int
	signed bool
}{
	Invalid: {"invalid", 0, false},
	Void:    {"void", 0, false},
	Bool:    {"bool", 8, false},
	I8:      {"i8", 8, true},
	U8:      {"u8", 8, false},
	I16:     {"i16", 16, true},
	U16:     {"u16", 16, false},
	I32:     {"i32", 32, true},
	U32:     {"u32", 32, false},
	I64:     {"i64", 64, true},
	U64:     {"u64", 64, false},
}

// String implements Type.
func (b *Basic) String() string { return basicInfo[b.Kind].name }

// Bits implements Type.
func (b *Basic) Bits() int { return basicInfo[b.Kind].bits }

// Signed reports whether the type is a signed integer.
func (b *Basic) Signed() bool { return basicInfo[b.Kind].signed }

// Singleton basic types, comparable by pointer.
var (
	VoidType = &Basic{Kind: Void}
	BoolType = &Basic{Kind: Bool}
	I8Type   = &Basic{Kind: I8}
	U8Type   = &Basic{Kind: U8}
	I16Type  = &Basic{Kind: I16}
	U16Type  = &Basic{Kind: U16}
	I32Type  = &Basic{Kind: I32}
	U32Type  = &Basic{Kind: U32}
	I64Type  = &Basic{Kind: I64}
	U64Type  = &Basic{Kind: U64}
)

var basicByName = map[string]*Basic{
	"void": VoidType, "bool": BoolType,
	"i8": I8Type, "u8": U8Type, "i16": I16Type, "u16": U16Type,
	"i32": I32Type, "u32": U32Type, "i64": I64Type, "u64": U64Type,
}

// BasicByName returns the basic type with the given canonical name, or
// nil if the name is not a basic type.
func BasicByName(name string) *Basic { return basicByName[name] }

// Array is a (possibly multi-dimensional, via nesting) array type.
type Array struct {
	Elem Type
	Len  int
}

// String implements Type.
func (a *Array) String() string { return fmt.Sprintf("%s[%d]", a.Elem.String(), a.Len) }

// Bits implements Type.
func (a *Array) Bits() int { return a.Elem.Bits() * a.Len }

// KV is the exact-match lookup entry type kv<K,V>.
type KV struct{ K, V *Basic }

// String implements Type.
func (t *KV) String() string { return fmt.Sprintf("kv<%s,%s>", t.K, t.V) }

// Bits implements Type.
func (t *KV) Bits() int { return t.K.Bits() + t.V.Bits() }

// RV is the range-match lookup entry type rv<R,V>.
type RV struct{ R, V *Basic }

// String implements Type.
func (t *RV) String() string { return fmt.Sprintf("rv<%s,%s>", t.R, t.V) }

// Bits implements Type.
func (t *RV) Bits() int { return 2*t.R.Bits() + t.V.Bits() }

// Ref is a C++ reference to a basic type (kernel parameters only).
type Ref struct{ Elem *Basic }

// String implements Type.
func (t *Ref) String() string { return t.Elem.String() + "&" }

// Bits implements Type.
func (t *Ref) Bits() int { return t.Elem.Bits() }

// Ptr is a pointer to a basic type with an element-count specification
// (kernel parameters only; see §V-A "Specifications").
type Ptr struct {
	Elem *Basic
	Spec int
}

// String implements Type.
func (t *Ptr) String() string { return t.Elem.String() + "*" }

// Bits implements Type.
func (t *Ptr) Bits() int { return t.Elem.Bits() * t.Spec }

// ElemType returns the ultimate scalar element type of t (unwrapping
// arrays, refs, and pointers), or nil if t has no scalar element.
func ElemType(t Type) *Basic {
	switch x := t.(type) {
	case *Basic:
		return x
	case *Array:
		return ElemType(x.Elem)
	case *Ref:
		return x.Elem
	case *Ptr:
		return x.Elem
	}
	return nil
}

// Common computes the usual-arithmetic-conversion result of two integer
// types: the wider width wins; on equal width, unsigned wins.
func Common(a, b *Basic) *Basic {
	if a == b {
		return a
	}
	if a.Kind == Bool {
		a = U8Type
	}
	if b.Kind == Bool {
		b = U8Type
	}
	wa, wb := a.Bits(), b.Bits()
	switch {
	case wa > wb:
		return a
	case wb > wa:
		return b
	case !a.Signed():
		return a
	default:
		return b
	}
}

// resolveType converts a syntactic TypeExpr into a semantic type.
func resolveType(te *lang.TypeExpr, diags *lang.Diagnostics) Type {
	if te == nil {
		return VoidType
	}
	switch te.Name {
	case "kv", "rv":
		if len(te.Args) != 2 {
			diags.Errorf(te.TypePos, "%s requires two type arguments", te.Name)
			return VoidType
		}
		k := resolveScalar(te.Args[0], diags)
		v := resolveScalar(te.Args[1], diags)
		if te.Name == "kv" {
			return &KV{K: k, V: v}
		}
		return &RV{R: k, V: v}
	case "auto":
		// Stands for "deduced"; resolved at the use site.
		return nil
	default:
		if b := BasicByName(te.Name); b != nil {
			return b
		}
		diags.Errorf(te.TypePos, "unknown type %q", te.Name)
		return VoidType
	}
}

func resolveScalar(te *lang.TypeExpr, diags *lang.Diagnostics) *Basic {
	t := resolveType(te, diags)
	if b, ok := t.(*Basic); ok && b.Kind != Void {
		return b
	}
	diags.Errorf(te.TypePos, "expected a fundamental scalar type, got %s", te)
	return U32Type
}

// LocSet is a set of device IDs; empty means "location-less" (placed
// everywhere we compile for).
type LocSet []uint16

// Contains reports whether the set contains id.
func (s LocSet) Contains(id uint16) bool {
	for _, x := range s {
		if x == id {
			return true
		}
	}
	return false
}

// SubsetOf reports s ⊆ o.
func (s LocSet) SubsetOf(o LocSet) bool {
	for _, x := range s {
		if !o.Contains(x) {
			return false
		}
	}
	return true
}

// Intersects reports whether the sets share any element.
func (s LocSet) Intersects(o LocSet) bool {
	for _, x := range s {
		if o.Contains(x) {
			return true
		}
	}
	return false
}

// String renders the set for diagnostics.
func (s LocSet) String() string {
	if len(s) == 0 {
		return "∅"
	}
	parts := make([]string, len(s))
	for i, x := range s {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
