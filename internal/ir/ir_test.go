package ir

import "testing"

// diamond builds entry -> (a|b) -> join, returning the four blocks.
func diamond(t *testing.T) (*Func, *Block, *Block, *Block, *Block) {
	t.Helper()
	f := NewFunc("k", 1)
	entry := f.NewBlock("entry")
	a := f.NewBlock("a")
	b := f.NewBlock("b")
	join := f.NewBlock("join")
	cond := entry.Append(&Instr{Op: OpICmp, Ty: I1, Pred: PredNE,
		Args: []Value{ConstOf(U32, 1), ConstOf(U32, 0)}})
	entry.Append(&Instr{Op: OpBr, Args: []Value{cond}, Targets: []*Block{a, b}})
	a.Append(&Instr{Op: OpJmp, Targets: []*Block{join}})
	b.Append(&Instr{Op: OpJmp, Targets: []*Block{join}})
	join.Append(&Instr{Op: OpRetAction, ActionKind: ActPass})
	return f, entry, a, b, join
}

func TestTypeWrap(t *testing.T) {
	cases := []struct {
		ty   Type
		in   int64
		want int64
	}{
		{U8, 256, 0},
		{U8, 255, 255},
		{U8, -1, 255},
		{S8, 255, -1},
		{S8, 127, 127},
		{S8, 128, -128},
		{U16, 65536 + 7, 7},
		{S16, 0x8000, -32768},
		{I1, 3, 1},
		{U64, -1, -1},
	}
	for _, c := range cases {
		if got := c.ty.Wrap(c.in); got != c.want {
			t.Errorf("%v.Wrap(%d) = %d, want %d", c.ty, c.in, got, c.want)
		}
	}
}

func TestRPOAndDominators(t *testing.T) {
	f, entry, a, b, join := diamond(t)
	rpo := RPO(f)
	if len(rpo) != 4 || rpo[0] != entry || rpo[3] != join {
		t.Fatalf("rpo: %v", names(rpo))
	}
	dt := BuildDomTree(f)
	if dt.IDom(a) != entry || dt.IDom(b) != entry || dt.IDom(join) != entry {
		t.Errorf("idoms wrong: a=%s b=%s join=%s", dt.IDom(a).Name, dt.IDom(b).Name, dt.IDom(join).Name)
	}
	if !dt.Dominates(entry, join) || dt.Dominates(a, join) {
		t.Error("dominance queries wrong")
	}
	if dt.NCA(a, b) != entry {
		t.Errorf("NCA(a,b) = %s", dt.NCA(a, b).Name)
	}
}

func TestDominanceFrontiers(t *testing.T) {
	f, _, a, b, join := diamond(t)
	df := BuildDomTree(f).Frontiers()
	if len(df[a]) != 1 || df[a][0] != join {
		t.Errorf("DF(a) = %v", names(df[a]))
	}
	if len(df[b]) != 1 || df[b][0] != join {
		t.Errorf("DF(b) = %v", names(df[b]))
	}
	_ = f
}

func TestPostDominators(t *testing.T) {
	f, entry, a, b, join := diamond(t)
	pt := BuildPostDomTree(f)
	if pt.IPDom(entry) != join {
		t.Errorf("ipdom(entry) should be join, got %v", blockName(pt.IPDom(entry)))
	}
	if pt.IPDom(a) != join || pt.IPDom(b) != join {
		t.Error("ipdom of branches should be join")
	}
	if pt.IPDom(join) != nil {
		t.Errorf("ipdom(join) should be the virtual exit")
	}
	if !pt.PostDominates(join, entry) || pt.PostDominates(a, entry) {
		t.Error("PostDominates queries wrong")
	}
	_ = f
}

func TestPostDominatorsMultiExit(t *testing.T) {
	// entry -> (a: ret | b: ret): no real block postdominates entry.
	f := NewFunc("k", 1)
	entry := f.NewBlock("entry")
	a := f.NewBlock("a")
	b := f.NewBlock("b")
	cond := entry.Append(&Instr{Op: OpICmp, Ty: I1, Pred: PredNE,
		Args: []Value{ConstOf(U32, 1), ConstOf(U32, 0)}})
	entry.Append(&Instr{Op: OpBr, Args: []Value{cond}, Targets: []*Block{a, b}})
	a.Append(&Instr{Op: OpRetAction, ActionKind: ActDrop})
	b.Append(&Instr{Op: OpRetAction, ActionKind: ActPass})
	pt := BuildPostDomTree(f)
	if pt.IPDom(entry) != nil {
		t.Errorf("ipdom(entry) should be virtual exit, got %s", pt.IPDom(entry).Name)
	}
}

func TestVerifyDAGDetectsCycle(t *testing.T) {
	f := NewFunc("k", 1)
	a := f.NewBlock("a")
	b := f.NewBlock("b")
	a.Append(&Instr{Op: OpJmp, Targets: []*Block{b}})
	b.Append(&Instr{Op: OpJmp, Targets: []*Block{a}})
	if err := VerifyDAG(f); err == nil {
		t.Error("expected cycle detection error")
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	f := NewFunc("k", 1)
	blk := f.NewBlock("entry")
	blk.Append(&Instr{Op: OpAdd, Ty: U32, Args: []Value{ConstOf(U32, 1), ConstOf(U32, 2)}})
	if err := Verify(f); err == nil {
		t.Error("expected missing-terminator error")
	}
}

// numUses counts argument references to v.
func (f *Func) numUses(v Value) int {
	n := 0
	f.Instrs(func(_ *Block, i *Instr) bool {
		for _, a := range i.Args {
			if a == v {
				n++
			}
		}
		return true
	})
	return n
}

func TestReplaceUsesAndNumUses(t *testing.T) {
	f := NewFunc("k", 1)
	blk := f.NewBlock("entry")
	a := blk.Append(&Instr{Op: OpAdd, Ty: U32, Args: []Value{ConstOf(U32, 1), ConstOf(U32, 2)}})
	b := blk.Append(&Instr{Op: OpMul, Ty: U32, Args: []Value{a, a}})
	d := blk.Append(&Instr{Op: OpSub, Ty: U32, Args: []Value{b, a}})
	blk.Append(&Instr{Op: OpRetAction, ActionKind: ActPass})
	if f.numUses(a) != 3 {
		t.Fatalf("NumUses(a) = %d", f.numUses(a))
	}
	// A chain: a's replacement b is itself replaced by c.
	c := ConstOf(U32, 3)
	f.ReplaceUses(map[Value]Value{a: b, b: c})
	if f.numUses(a) != 0 || f.numUses(b) != 0 || b.Args[0] != Value(c) || d.Args[0] != Value(c) || d.Args[1] != Value(c) {
		t.Errorf("ReplaceUses left %v and %v", b.Args, d.Args)
	}
	// A cyclic map is a caller's bug, but it must not hang the sweep.
	e := blk.Append(&Instr{Op: OpAdd, Ty: U32, Args: []Value{a, b}})
	f.ReplaceUses(map[Value]Value{a: b, b: a})
	if e.Args[0] == nil || e.Args[1] == nil {
		t.Error("cyclic ReplaceUses lost an operand")
	}
}

func TestPredHelpers(t *testing.T) {
	if PredULT.Invert() != PredUGE || PredULT.Swap() != PredUGT {
		t.Error("pred helpers wrong")
	}
	if PredEQ.Invert() != PredNE || PredEQ.Swap() != PredEQ {
		t.Error("eq helpers wrong")
	}
}

func names(bs []*Block) []string {
	var out []string
	for _, b := range bs {
		out = append(out, b.Name)
	}
	return out
}

func blockName(b *Block) string {
	if b == nil {
		return "<exit>"
	}
	return b.Name
}
