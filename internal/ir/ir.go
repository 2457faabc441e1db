// Package ir defines the NetCL compiler's intermediate representation:
// a typed, CFG-based IR with load/store locals that is promoted to SSA
// for optimization (mem2reg) and demoted again (φ-elimination) before
// P4 code generation — mirroring the LLVM-based pipeline of the paper
// (§VI, Fig. 8).
package ir

import (
	"fmt"
	"strings"
)

// Type is an integer value type. The IR uses explicit bit widths; i1 is
// the type of comparison results and conditions.
type Type struct {
	Bits   int
	Signed bool
}

// Common types.
var (
	I1  = Type{Bits: 1}
	U8  = Type{Bits: 8}
	U16 = Type{Bits: 16}
	U32 = Type{Bits: 32}
	U64 = Type{Bits: 64}
	S8  = Type{Bits: 8, Signed: true}
	S16 = Type{Bits: 16, Signed: true}
	S32 = Type{Bits: 32, Signed: true}
	S64 = Type{Bits: 64, Signed: true}
)

// String renders the type (u32, i16, i1, ...).
func (t Type) String() string {
	if t.Bits == 1 {
		return "i1"
	}
	if t.Signed {
		return fmt.Sprintf("s%d", t.Bits)
	}
	return fmt.Sprintf("u%d", t.Bits)
}

// Mask returns the bit mask for the type's width.
func (t Type) Mask() uint64 {
	if t.Bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(t.Bits)) - 1
}

// Wrap truncates v to the type's width and, for signed types,
// sign-extends the result back to 64 bits.
func (t Type) Wrap(v int64) int64 {
	u := uint64(v) & t.Mask()
	if t.Signed && t.Bits < 64 && u>>(uint(t.Bits)-1) != 0 {
		return int64(u | ^t.Mask())
	}
	return int64(u)
}

// MaxUnsigned returns the largest unsigned value of this width.
func (t Type) MaxUnsigned() uint64 { return t.Mask() }

// Value is an SSA value: a constant or an instruction result.
type Value interface {
	Type() Type
	// Ref is the short textual reference used in printed IR.
	Ref() string
}

// Const is an integer constant value.
type Const struct {
	Ty  Type
	Val int64 // stored wrapped to Ty
}

// ConstOf builds a constant of the given type, wrapping the value.
func ConstOf(t Type, v int64) *Const { return &Const{Ty: t, Val: t.Wrap(v)} }

// Type implements Value.
func (c *Const) Type() Type { return c.Ty }

// Ref implements Value.
func (c *Const) Ref() string { return fmt.Sprintf("%d:%s", c.Val, c.Ty) }

// Uint returns the constant as an unsigned bit pattern of its width.
func (c *Const) Uint() uint64 { return uint64(c.Val) & c.Ty.Mask() }

// Op enumerates IR operations.
type Op int

// Operations.
const (
	OpInvalid Op = iota

	// Binary arithmetic/logic. Args: [a, b].
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpSDiv
	OpURem
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr
	OpSAddSat // unsigned saturating add
	OpSSubSat // unsigned saturating sub (floor at 0)
	OpMin
	OpMax

	// Comparison. Args: [a, b]; Pred field. Result i1.
	OpICmp

	// Select. Args: [cond(i1), a, b].
	OpSelect

	// Width conversions. Args: [x].
	OpTrunc
	OpZExt
	OpSExt

	// Local (thread-private) memory.
	OpAlloca // no args; Elem/Count fields
	OpLoad   // Args: [alloca, index]
	OpStore  // Args: [alloca, index, value]

	// Message (kernel argument) memory.
	OpLoadMsg  // Args: [index]; Param field
	OpStoreMsg // Args: [index, value]; Param field
	OpMsgField // no args; Field is one of src,dst,from,to,comp

	// Global (device) memory. G field names the object.
	// Args: indices... [, cond][, operands...] per AOp.
	OpAtomicRMW

	// Lookup memory. Args: [key]; G field. Result i1.
	OpLookup
	// LookupVal extracts the matched value. Args: [lookup-instr].
	OpLookupVal

	// Special operations.
	OpHash     // Args: fields...; HashKind
	OpRand     // no args
	OpByteSwap // Args: [x]
	OpCLZ      // Args: [x]
	OpCTZ      // Args: [x]

	// SSA φ-node. Args parallel In blocks.
	OpPhi

	// Terminators.
	OpBr        // Args: [cond(i1)]; Targets: [then, else]
	OpJmp       // Targets: [next]
	OpRetAction // ActionKind; Args: action operand (host/device/group id)
)

var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpUDiv: "udiv", OpSDiv: "sdiv",
	OpURem: "urem", OpSRem: "srem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr", OpSAddSat: "sadd.sat",
	OpSSubSat: "ssub.sat", OpMin: "min", OpMax: "max", OpICmp: "icmp",
	OpSelect: "select", OpTrunc: "trunc", OpZExt: "zext", OpSExt: "sext",
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store",
	OpLoadMsg: "loadmsg", OpStoreMsg: "storemsg", OpMsgField: "msgfield",
	OpAtomicRMW: "atomicrmw", OpLookup: "lookup", OpLookupVal: "lookupval",
	OpHash: "hash", OpRand: "rand", OpByteSwap: "bswap", OpCLZ: "clz",
	OpCTZ: "ctz", OpPhi: "phi", OpBr: "br", OpJmp: "jmp", OpRetAction: "ret",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Pred is an integer comparison predicate.
type Pred int

// Comparison predicates.
const (
	PredEQ Pred = iota
	PredNE
	PredULT
	PredULE
	PredUGT
	PredUGE
	PredSLT
	PredSLE
	PredSGT
	PredSGE
)

var predNames = [...]string{"eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge"}

// String implements fmt.Stringer.
func (p Pred) String() string { return predNames[p] }

// Swap returns the predicate with operand order reversed.
func (p Pred) Swap() Pred {
	switch p {
	case PredULT:
		return PredUGT
	case PredULE:
		return PredUGE
	case PredUGT:
		return PredULT
	case PredUGE:
		return PredULE
	case PredSLT:
		return PredSGT
	case PredSLE:
		return PredSGE
	case PredSGT:
		return PredSLT
	case PredSGE:
		return PredSLE
	}
	return p
}

// Invert returns the logical negation of the predicate.
func (p Pred) Invert() Pred {
	switch p {
	case PredEQ:
		return PredNE
	case PredNE:
		return PredEQ
	case PredULT:
		return PredUGE
	case PredULE:
		return PredUGT
	case PredUGT:
		return PredULE
	case PredUGE:
		return PredULT
	case PredSLT:
		return PredSGE
	case PredSLE:
		return PredSGT
	case PredSGT:
		return PredSLE
	case PredSGE:
		return PredSLT
	}
	return p
}

// LookupKind identifies the match kind of a lookup memory object.
type LookupKind int

// Lookup kinds.
const (
	LookupNone  LookupKind = iota // not lookup memory
	LookupSet                     // scalar membership
	LookupExact                   // kv<K,V>
	LookupRange                   // rv<R,V>
)

// MemRef describes a global memory object (a post-partitioning unit
// that maps 1:1 to a P4 Register or MAT).
type MemRef struct {
	Name    string
	Elem    Type // scalar element type (for kv/rv: the value type)
	Dims    []int
	Managed bool
	LKind   LookupKind
	KeyType Type // lookup key/range type
	// Init is the flattened initializer: for LookupSet the keys; for
	// LookupExact (k,v) pairs; for LookupRange (lo,hi,v) triples;
	// otherwise element values.
	Init []int64
}

// NumElems is the flattened element count.
func (m *MemRef) NumElems() int {
	n := 1
	for _, d := range m.Dims {
		n *= d
	}
	return n
}

// IsLookup reports whether the object is lookup memory.
func (m *MemRef) IsLookup() bool { return m.LKind != LookupNone }

// MsgParam is a kernel argument backed by message data.
type MsgParam struct {
	Name  string
	Ty    Type
	Count int // specification (element count)
	// Out marks in/out parameters (by-ref and pointer arguments).
	Out bool
	// Offset is the byte offset of the argument in the message data.
	Offset int
	Index  int
}

// ActionKind names a Table II forwarding action.
type ActionKind string

// Forwarding actions.
const (
	ActDrop        ActionKind = "drop"
	ActSendHost    ActionKind = "send_to_host"
	ActSendDevice  ActionKind = "send_to_device"
	ActMulticast   ActionKind = "multicast"
	ActReflect     ActionKind = "reflect"
	ActReflectLong ActionKind = "reflect_long"
	ActPass        ActionKind = "pass"
)

// Instr is an IR instruction; value-producing instructions implement
// Value.
type Instr struct {
	Op   Op
	Ty   Type
	Args []Value

	// Op-specific fields.
	Pred       Pred
	G          *MemRef
	Param      *MsgParam
	AOp        string // atomic op: add,sadd,sub,ssub,or,and,xor,min,max,swap,inc,dec,cas,read,write
	Cond       bool   // atomic conditional variant
	RetNew     bool   // atomic returns post-op value
	HashKind   string
	Field      string
	ActionKind ActionKind
	Elem       Type // alloca element type
	Count      int  // alloca element count
	NIdx       int  // number of leading index args (OpAtomicRMW)
	// TargetNS restricts an instruction to one backend ("tna"/"v1").
	TargetNS string
	// PhiVar marks allocas introduced by φ-elimination: all stores
	// precede any load on every path, so code generators may read the
	// variable in place instead of copying it.
	PhiVar  bool
	Targets []*Block
	In      []*Block // phi incoming blocks (parallel to Args)

	// Name is an optional human-readable hint (source variable name).
	Name string

	ID  int
	blk *Block
}

// Type implements Value.
func (i *Instr) Type() Type { return i.Ty }

// Ref implements Value.
func (i *Instr) Ref() string {
	if i.Name != "" {
		return fmt.Sprintf("%%%d.%s", i.ID, i.Name)
	}
	return fmt.Sprintf("%%%d", i.ID)
}

// Block returns the containing basic block.
func (i *Instr) Block() *Block { return i.blk }

// IsTerminator reports whether the instruction ends a block.
func (i *Instr) IsTerminator() bool {
	switch i.Op {
	case OpBr, OpJmp, OpRetAction:
		return true
	}
	return false
}

// HasSideEffects reports whether the instruction writes memory or
// affects control (and therefore must not be removed by DCE).
func (i *Instr) HasSideEffects() bool {
	switch i.Op {
	case OpStore, OpStoreMsg, OpBr, OpJmp, OpRetAction:
		return true
	case OpAtomicRMW:
		return i.AOp != "read"
	}
	return false
}

// Pure reports whether the instruction computes a value without
// reading or writing any memory (candidates for CSE and speculation).
func (i *Instr) Pure() bool {
	switch i.Op {
	case OpAdd, OpSub, OpMul, OpUDiv, OpSDiv, OpURem, OpSRem, OpAnd, OpOr,
		OpXor, OpShl, OpLShr, OpAShr, OpSAddSat, OpSSubSat, OpMin, OpMax,
		OpICmp, OpSelect, OpTrunc, OpZExt, OpSExt, OpHash, OpByteSwap,
		OpCLZ, OpCTZ, OpMsgField:
		return true
	}
	return false
}

// Block is a basic block.
type Block struct {
	Name   string
	Instrs []*Instr
	fn     *Func
	// Index is the position in Func.Blocks (maintained by Renumber).
	Index int
}

// Func returns the containing function.
func (b *Block) Func() *Func { return b.fn }

// Term returns the block terminator, or nil if the block is unfinished.
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if last.IsTerminator() {
		return last
	}
	return nil
}

// Succs returns successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Targets
}

// Preds computes predecessor blocks (by scanning; small CFGs).
func (b *Block) Preds() []*Block {
	var out []*Block
	for _, blk := range b.fn.Blocks {
		for _, s := range blk.Succs() {
			if s == b {
				out = append(out, blk)
				break
			}
		}
	}
	return out
}

// Append adds an instruction to the end of the block (before nothing;
// callers must keep terminators last).
func (b *Block) Append(i *Instr) *Instr {
	i.ID = b.fn.nextID
	b.fn.nextID++
	i.blk = b
	b.Instrs = append(b.Instrs, i)
	return i
}

// InsertBeforeTerm inserts an instruction before the block terminator
// (or at the end if there is none).
func (b *Block) InsertBeforeTerm(i *Instr) *Instr {
	i.ID = b.fn.nextID
	b.fn.nextID++
	i.blk = b
	if t := b.Term(); t != nil {
		b.Instrs = append(b.Instrs[:len(b.Instrs)-1], i, t)
	} else {
		b.Instrs = append(b.Instrs, i)
	}
	return i
}

// Adopt reassigns an instruction's containing block; callers must also
// move the instruction between the blocks' Instrs slices.
func (b *Block) Adopt(i *Instr) { i.blk = b }

// Remove deletes an instruction from the block.
func (b *Block) Remove(i *Instr) {
	for n, x := range b.Instrs {
		if x == i {
			b.Instrs = append(b.Instrs[:n], b.Instrs[n+1:]...)
			i.blk = nil
			return
		}
	}
}

// Func is a lowered kernel.
type Func struct {
	Name   string
	Comp   uint8
	Params []*MsgParam
	Blocks []*Block
	nextID int
}

// NewFunc creates an empty function.
func NewFunc(name string, comp uint8) *Func {
	return &Func{Name: name, Comp: comp, nextID: 1}
}

// Entry returns the entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewBlock appends a new empty block.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Name: fmt.Sprintf("%s%d", name, len(f.Blocks)), fn: f, Index: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Renumber reassigns block indices after structural changes.
func (f *Func) Renumber() {
	for i, b := range f.Blocks {
		b.Index = i
	}
}

// RemoveBlock deletes a block from the function.
func (f *Func) RemoveBlock(b *Block) {
	for i, x := range f.Blocks {
		if x == b {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			f.Renumber()
			return
		}
	}
}

// IDBound is one past the largest instruction ID the function has
// handed out: a slice of that length can be indexed by any ID.
func (f *Func) IDBound() int { return f.nextID }

// ReplaceUses substitutes, in one sweep over every instruction argument
// of the function, each key of m by its replacement. Chains are
// followed: a replacement that is itself a key is replaced in turn, so
// a pass may collect all its replacements and sweep once.
func (f *Func) ReplaceUses(m map[Value]Value) {
	if len(m) == 0 {
		return
	}
	for _, b := range f.Blocks {
		for _, i := range b.Instrs {
			i.ReplaceArgs(m)
		}
	}
}

// ReplaceArgs substitutes m's replacements in i's arguments, as
// ReplaceUses does for every instruction. A pass that defers its sweep
// calls it on an instruction before reading its operands.
func (i *Instr) ReplaceArgs(m map[Value]Value) {
	for n := range i.Args {
		for hops := 0; hops < len(m); hops++ { // a cyclic map cannot hang
			r, ok := m[i.Args[n]]
			if !ok {
				break
			}
			i.Args[n] = r
		}
	}
}

// Instrs iterates all instructions in block order.
func (f *Func) Instrs(fn func(b *Block, i *Instr) bool) {
	for _, b := range f.Blocks {
		for _, i := range b.Instrs {
			if !fn(b, i) {
				return
			}
		}
	}
}

// Module is the unit of device compilation: all kernels and memory for
// one device location.
type Module struct {
	Name     string
	DeviceID uint16
	Mems     []*MemRef
	Funcs    []*Func
}

// String prints the whole module (see print.go for details).
func (m *Module) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s (device %d)\n", m.Name, m.DeviceID)
	for _, g := range m.Mems {
		b.WriteString(printMem(g))
		b.WriteByte('\n')
	}
	for _, f := range m.Funcs {
		b.WriteString(f.String())
	}
	return b.String()
}
