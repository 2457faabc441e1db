package ir

import (
	"strings"
	"testing"
)

func TestPrintModule(t *testing.T) {
	m := &Module{Name: "demo", DeviceID: 3}
	m.Mems = []*MemRef{
		{Name: "cnt", Elem: U32, Dims: []int{16}, Managed: true, Init: []int64{1, 2}},
		{Name: "tbl", Elem: U32, KeyType: U32, Dims: []int{4}, LKind: LookupExact},
		{Name: "rng", Elem: U16, KeyType: U16, Dims: []int{4}, LKind: LookupRange},
		{Name: "set", Elem: U8, KeyType: U8, Dims: []int{4}, LKind: LookupSet},
	}
	f := NewFunc("k", 1)
	p := &MsgParam{Name: "x", Ty: U32, Count: 1, Out: true}
	f.Params = []*MsgParam{p}
	b := f.NewBlock("entry")
	ld := b.Append(&Instr{Op: OpLoadMsg, Ty: U32, Param: p, Args: []Value{ConstOf(U32, 0)}})
	add := b.Append(&Instr{Op: OpAdd, Ty: U32, Args: []Value{ld, ConstOf(U32, 1)}, Name: "sum"})
	b.Append(&Instr{Op: OpAtomicRMW, Ty: U32, G: m.Mems[0], AOp: "add", Cond: true, RetNew: true,
		Args: []Value{ConstOf(U32, 2), ConstOf(I1, 1), add}, NIdx: 1})
	lk := b.Append(&Instr{Op: OpLookup, Ty: I1, G: m.Mems[1], Args: []Value{add}})
	b.Append(&Instr{Op: OpLookupVal, Ty: U32, G: m.Mems[1], Args: []Value{lk}})
	b.Append(&Instr{Op: OpHash, Ty: U16, HashKind: "crc16", Args: []Value{add}})
	b.Append(&Instr{Op: OpMsgField, Ty: U16, Field: "src"})
	b.Append(&Instr{Op: OpStoreMsg, Param: p, Args: []Value{ConstOf(U32, 0), add}})
	b.Append(&Instr{Op: OpRetAction, ActionKind: ActMulticast, Args: []Value{ConstOf(U16, 7)}})
	m.Funcs = []*Func{f}

	out := m.String()
	for _, want := range []string{
		"module demo (device 3)",
		"mem cnt u32[16] managed init=[1 2]",
		"lookup.kv tbl key:u32 val:u32",
		"lookup.rv rng key:u16 val:u16",
		"lookup.set set key:u8",
		"func k comp=1",
		"x u32 x1 inout",
		"atomic.add.cond.new @cnt",
		"lookup @tbl",
		"hash.crc16",
		"msgfield.src",
		"storemsg @x",
		"ret multicast",
		"%2.sum",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed module missing %q:\n%s", want, out)
		}
	}
	if m.MemByName("cnt") == nil || m.MemByName("zzz") != nil {
		t.Error("MemByName")
	}
	if m.Mems[0].NumElems() != 16 {
		t.Error("NumElems")
	}
}

func TestInsertBeforeTermAndRemove(t *testing.T) {
	f := NewFunc("k", 1)
	b := f.NewBlock("entry")
	term := b.Append(&Instr{Op: OpRetAction, ActionKind: ActPass})
	i := b.InsertBeforeTerm(&Instr{Op: OpAdd, Ty: U32, Args: []Value{ConstOf(U32, 1), ConstOf(U32, 2)}})
	if b.Instrs[0] != i || b.Term() != term {
		t.Fatal("InsertBeforeTerm placement")
	}
	b.Remove(i)
	if len(b.Instrs) != 1 {
		t.Fatal("Remove")
	}
	// Insert into a block with no terminator appends.
	b2 := f.NewBlock("b2")
	j := b2.InsertBeforeTerm(&Instr{Op: OpAdd, Ty: U32, Args: []Value{ConstOf(U32, 1), ConstOf(U32, 2)}})
	if b2.Instrs[0] != j {
		t.Fatal("InsertBeforeTerm without terminator")
	}
}

func TestRemoveBlockAndRenumber(t *testing.T) {
	f := NewFunc("k", 1)
	a := f.NewBlock("a")
	b := f.NewBlock("b")
	c := f.NewBlock("c")
	a.Append(&Instr{Op: OpJmp, Targets: []*Block{c}})
	c.Append(&Instr{Op: OpRetAction, ActionKind: ActPass})
	b.Append(&Instr{Op: OpRetAction, ActionKind: ActDrop})
	f.RemoveBlock(b)
	if len(f.Blocks) != 2 || f.Blocks[1] != c || c.Index != 1 {
		t.Error("RemoveBlock/Renumber")
	}
	if err := Verify(f); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsBadShapes(t *testing.T) {
	// Terminator not last.
	f := NewFunc("k", 1)
	b := f.NewBlock("entry")
	b.Append(&Instr{Op: OpRetAction, ActionKind: ActPass})
	b.Instrs = append(b.Instrs, &Instr{Op: OpAdd, Ty: U32, Args: []Value{ConstOf(U32, 1), ConstOf(U32, 1)}})
	if err := Verify(f); err == nil {
		t.Error("terminator-not-last accepted")
	}
	// Nil argument.
	f2 := NewFunc("k", 1)
	b2 := f2.NewBlock("entry")
	b2.Append(&Instr{Op: OpAdd, Ty: U32, Args: []Value{nil, ConstOf(U32, 1)}})
	b2.Append(&Instr{Op: OpRetAction, ActionKind: ActPass})
	if err := Verify(f2); err == nil {
		t.Error("nil argument accepted")
	}
	// Br with one target.
	f3 := NewFunc("k", 1)
	b3 := f3.NewBlock("entry")
	b3.Append(&Instr{Op: OpBr, Args: []Value{ConstOf(I1, 1)}, Targets: []*Block{b3}})
	if err := Verify(f3); err == nil {
		t.Error("malformed br accepted")
	}
	// Empty function.
	if err := Verify(NewFunc("empty", 1)); err == nil {
		t.Error("empty function accepted")
	}
}

func TestConstHelpers(t *testing.T) {
	c := ConstOf(U8, 300)
	if c.Val != 44 || c.Uint() != 44 {
		t.Errorf("wrapping constant: %d", c.Val)
	}
	s := ConstOf(S8, 200)
	if s.Val != -56 || s.Uint() != 200 {
		t.Errorf("signed constant: %d / %d", s.Val, s.Uint())
	}
	if !strings.Contains(c.Ref(), "44") {
		t.Error("const ref")
	}
	if U16.MaxUnsigned() != 0xFFFF {
		t.Error("MaxUnsigned")
	}
}

func TestInstrPredicates(t *testing.T) {
	st := &Instr{Op: OpStore}
	if !st.HasSideEffects() || st.Pure() {
		t.Error("store predicates")
	}
	rd := &Instr{Op: OpAtomicRMW, AOp: "read"}
	if rd.HasSideEffects() {
		t.Error("atomic read has no side effects")
	}
	wr := &Instr{Op: OpAtomicRMW, AOp: "add"}
	if !wr.HasSideEffects() {
		t.Error("atomic rmw writes memory")
	}
	if !(&Instr{Op: OpHash}).Pure() || (&Instr{Op: OpLoadMsg}).Pure() {
		t.Error("purity")
	}
	if !(&Instr{Op: OpJmp}).IsTerminator() || (&Instr{Op: OpAdd}).IsTerminator() {
		t.Error("terminators")
	}
}

// MemByName finds a memory object.
func (m *Module) MemByName(name string) *MemRef {
	for _, g := range m.Mems {
		if g.Name == name {
			return g
		}
	}
	return nil
}
