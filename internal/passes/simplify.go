package passes

import (
	"reflect"
	"strconv"

	"netcl/internal/ir"
)

// Simplify runs constant folding, algebraic simplification, CFG
// cleanup, dead-code elimination, and dominance-scoped CSE to a
// fixpoint. It corresponds to the paper's "peephole optimization,
// instruction simplification and DCE passes" stage.
func Simplify(f *ir.Func) {
	for iter := 0; iter < 16; iter++ {
		changed := foldAll(f)
		changed = simplifyCFG(f) || changed
		changed = DCE(f) || changed
		changed = CSE(f) || changed
		if !changed {
			return
		}
	}
}

// foldAll folds constants and applies algebraic identities, replacing
// the uses in one sweep at the end.
func foldAll(f *ir.Func) bool {
	repl := map[ir.Value]ir.Value{}
	for _, b := range f.Blocks {
		for _, i := range append([]*ir.Instr(nil), b.Instrs...) {
			i.ReplaceArgs(repl)
			if v := foldInstr(i); v != nil && v != ir.Value(i) {
				repl[i] = v
				b.Remove(i)
			}
		}
	}
	f.ReplaceUses(repl)
	return len(repl) > 0
}

func constArg(i *ir.Instr, n int) (*ir.Const, bool) {
	if n >= len(i.Args) {
		return nil, false
	}
	c, ok := i.Args[n].(*ir.Const)
	return c, ok
}

// foldInstr returns a replacement value for i, or nil.
func foldInstr(i *ir.Instr) ir.Value {
	if c := ir.Fold(i); c != nil {
		return c
	}
	switch i.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpSDiv, ir.OpURem,
		ir.OpSRem, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr,
		ir.OpAShr, ir.OpSAddSat, ir.OpSSubSat, ir.OpMin, ir.OpMax:
		a, aok := constArg(i, 0)
		b, bok := constArg(i, 1)
		// !(a cmp b) → inverted compare (shortens condition chains).
		if i.Op == ir.OpXor && i.Ty == ir.I1 && bok && b.Val == 1 {
			if cmp, ok2 := i.Args[0].(*ir.Instr); ok2 && cmp.Op == ir.OpICmp {
				inv := &ir.Instr{Op: ir.OpICmp, Ty: ir.I1, Pred: cmp.Pred.Invert(),
					Args: []ir.Value{cmp.Args[0], cmp.Args[1]}}
				if blk := i.Block(); blk != nil {
					replaceInPlace(blk, i, inv)
					return inv
				}
			}
		}
		return foldIdentity(i, a, aok, b, bok)
	case ir.OpICmp:
		if i.Args[0] == i.Args[1] {
			switch i.Pred {
			case ir.PredEQ, ir.PredULE, ir.PredUGE, ir.PredSLE, ir.PredSGE:
				return ir.ConstOf(ir.I1, 1)
			default:
				return ir.ConstOf(ir.I1, 0)
			}
		}
	case ir.OpSelect:
		if c, ok := constArg(i, 0); ok {
			if c.Val != 0 {
				return i.Args[1]
			}
			return i.Args[2]
		}
		if i.Args[1] == i.Args[2] {
			return i.Args[1]
		}
	case ir.OpZExt, ir.OpSExt, ir.OpTrunc:
		if i.Args[0].Type().Bits == i.Ty.Bits {
			// Same-width conversion: a bit-level no-op.
			return i.Args[0]
		}
		// Collapse ext-of-ext chains.
		if inner, ok := i.Args[0].(*ir.Instr); ok && inner.Op == i.Op &&
			(i.Op == ir.OpZExt || i.Op == ir.OpSExt) {
			i.Args[0] = inner.Args[0]
		}
	}
	return nil
}

func foldIdentity(i *ir.Instr, a *ir.Const, aok bool, b *ir.Const, bok bool) ir.Value {
	x, y := i.Args[0], i.Args[1]
	allOnes := int64(i.Ty.Mask())
	switch i.Op {
	case ir.OpAdd:
		if bok && b.Val == 0 {
			return x
		}
		if aok && a.Val == 0 {
			return y
		}
	case ir.OpSub:
		if bok && b.Val == 0 {
			return x
		}
		if x == y {
			return ir.ConstOf(i.Ty, 0)
		}
	case ir.OpMul:
		if bok && b.Val == 1 {
			return x
		}
		if aok && a.Val == 1 {
			return y
		}
		if (bok && b.Val == 0) || (aok && a.Val == 0) {
			return ir.ConstOf(i.Ty, 0)
		}
	case ir.OpUDiv, ir.OpSDiv:
		if bok && b.Val == 1 {
			return x
		}
	case ir.OpAnd:
		if (bok && b.Val == 0) || (aok && a.Val == 0) {
			return ir.ConstOf(i.Ty, 0)
		}
		if bok && i.Ty.Wrap(b.Val) == allOnes {
			return x
		}
		if aok && i.Ty.Wrap(a.Val) == allOnes {
			return y
		}
		if x == y {
			return x
		}
	case ir.OpOr:
		if bok && b.Val == 0 {
			return x
		}
		if aok && a.Val == 0 {
			return y
		}
		if x == y {
			return x
		}
	case ir.OpXor:
		if bok && b.Val == 0 {
			return x
		}
		if aok && a.Val == 0 {
			return y
		}
		if x == y {
			return ir.ConstOf(i.Ty, 0)
		}
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		if bok && b.Val == 0 {
			return x
		}
	case ir.OpMin, ir.OpMax:
		if x == y {
			return x
		}
	}
	return nil
}

// simplifyCFG folds constant branches, threads trivial jumps, and
// merges straight-line blocks, keeping φ-nodes consistent.
func simplifyCFG(f *ir.Func) bool {
	changed := false
	// Fold constant and degenerate branches.
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		if c, ok := t.Args[0].(*ir.Const); ok {
			keep, drop := t.Targets[0], t.Targets[1]
			if c.Val == 0 {
				keep, drop = drop, keep
			}
			if drop != keep {
				removePhiEntries(drop, b)
			}
			t.Op = ir.OpJmp
			t.Args = nil
			t.Targets = []*ir.Block{keep}
			changed = true
		} else if t.Targets[0] == t.Targets[1] {
			dedupePhiEntries(t.Targets[0], b)
			t.Op = ir.OpJmp
			t.Args = nil
			t.Targets = t.Targets[:1]
			changed = true
		}
	}
	// Remove unreachable blocks.
	reach := map[*ir.Block]bool{}
	for _, b := range ir.RPO(f) {
		reach[b] = true
	}
	for _, b := range append([]*ir.Block(nil), f.Blocks...) {
		if !reach[b] {
			for _, s := range b.Succs() {
				if reach[s] {
					removePhiEntries(s, b)
				}
			}
			f.RemoveBlock(b)
			changed = true
		}
	}
	// Merge single-pred/single-succ pairs. Merging reads no operand,
	// so trivial φ-nodes' uses are replaced after it.
	repl := map[ir.Value]ir.Value{}
	for {
		merged := false
		for _, b := range f.Blocks {
			t := b.Term()
			if t == nil || t.Op != ir.OpJmp {
				continue
			}
			s := t.Targets[0]
			if s == b || s == f.Entry() {
				continue
			}
			if len(s.Preds()) != 1 {
				continue
			}
			// Single predecessor: φ-nodes in s are trivial.
			for _, i := range append([]*ir.Instr(nil), s.Instrs...) {
				if i.Op == ir.OpPhi {
					var v ir.Value = ir.ConstOf(i.Ty, 0)
					if len(i.Args) > 0 {
						v = i.Args[0]
					}
					repl[i] = v
					s.Remove(i)
				}
			}
			b.Remove(t)
			for _, i := range s.Instrs {
				b.Instrs = append(b.Instrs, i)
				b.Adopt(i)
			}
			// φ-nodes in s's successors now flow from b.
			for _, ss := range s.Succs() {
				retargetPhiEntries(ss, s, b)
			}
			s.Instrs = nil
			f.RemoveBlock(s)
			merged = true
			changed = true
			break
		}
		if !merged {
			break
		}
	}
	f.ReplaceUses(repl)
	return changed
}

func removePhiEntries(b *ir.Block, pred *ir.Block) {
	for _, i := range b.Instrs {
		if i.Op != ir.OpPhi {
			continue
		}
		for n := 0; n < len(i.In); n++ {
			if i.In[n] == pred {
				i.In = append(i.In[:n], i.In[n+1:]...)
				i.Args = append(i.Args[:n], i.Args[n+1:]...)
				n--
			}
		}
	}
}

func dedupePhiEntries(b *ir.Block, pred *ir.Block) {
	for _, i := range b.Instrs {
		if i.Op != ir.OpPhi {
			continue
		}
		seen := false
		for n := 0; n < len(i.In); n++ {
			if i.In[n] == pred {
				if seen {
					i.In = append(i.In[:n], i.In[n+1:]...)
					i.Args = append(i.Args[:n], i.Args[n+1:]...)
					n--
				}
				seen = true
			}
		}
	}
}

func retargetPhiEntries(b *ir.Block, from, to *ir.Block) {
	for _, i := range b.Instrs {
		if i.Op != ir.OpPhi {
			continue
		}
		for n := range i.In {
			if i.In[n] == from {
				i.In[n] = to
			}
		}
	}
}

// DCE removes instructions whose results are unused and that have no
// side effects, plus empty φ-nodes. Returns whether anything changed.
func DCE(f *ir.Func) bool {
	used := make([]bool, f.IDBound())
	var mark func(i *ir.Instr)
	mark = func(i *ir.Instr) {
		if used[i.ID] {
			return
		}
		used[i.ID] = true
		for _, a := range i.Args {
			if ai, ok := a.(*ir.Instr); ok {
				mark(ai)
			}
		}
	}
	f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.HasSideEffects() {
			mark(i)
		}
		return true
	})
	changed := false
	for _, b := range f.Blocks {
		var keep []*ir.Instr
		for _, i := range b.Instrs {
			if i.HasSideEffects() || used[i.ID] {
				keep = append(keep, i)
				continue
			}
			// Unused value-producing instruction. Atomic reads and
			// rand are droppable; atomic RMWs are not (side effects).
			changed = true
		}
		if len(keep) != len(b.Instrs) {
			b.Instrs = keep
		}
	}
	if changed {
		simplifyPhis(f)
	}
	return changed
}

// CSE performs dominator-scoped common-subexpression elimination over
// pure instructions. The paper's hoisting stage builds on this.
func CSE(f *ir.Func) bool {
	dt := ir.BuildDomTree(f)
	avail := map[cseKey]*ir.Instr{}
	repl := map[ir.Value]ir.Value{}
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		var added []cseKey
		for _, i := range append([]*ir.Instr(nil), b.Instrs...) {
			if !i.Pure() {
				continue
			}
			i.ReplaceArgs(repl)
			key := keyOf(i)
			if prev, ok := avail[key]; ok {
				repl[i] = prev
				b.Remove(i)
				continue
			}
			avail[key] = i
			added = append(added, key)
		}
		for _, kid := range dt.Children(b) {
			walk(kid)
		}
		for _, k := range added {
			delete(avail, k)
		}
	}
	if f.Entry() != nil {
		walk(f.Entry())
	}
	f.ReplaceUses(repl)
	return len(repl) > 0
}

// cseKey identifies the value a pure instruction computes: two pure
// instructions with equal keys compute the same result. A constant
// operand is keyed by value and type, any other operand by identity.
type cseKey struct {
	op       ir.Op
	pred     ir.Pred
	ty       ir.Type
	hashKind string
	field    string
	count    int
	nargs    int
	args     [3]cseArg
	// more encodes the operands past the third (long hash field lists).
	more string
}

type cseArg struct {
	v   ir.Value // nil for a constant
	val int64
	ty  ir.Type
}

func keyOf(i *ir.Instr) cseKey {
	k := cseKey{op: i.Op, pred: i.Pred, ty: i.Ty, hashKind: i.HashKind,
		field: i.Field, count: i.Count, nargs: len(i.Args)}
	var more []byte
	for n, a := range i.Args {
		var ka cseArg
		if c, ok := a.(*ir.Const); ok {
			ka = cseArg{val: c.Val, ty: c.Ty}
		} else {
			ka = cseArg{v: a}
		}
		if n < len(k.args) {
			k.args[n] = ka
			continue
		}
		if ka.v != nil {
			more = append(more, 'p')
			more = strconv.AppendUint(more, uint64(reflect.ValueOf(ka.v).Pointer()), 16)
		} else {
			more = append(more, 'c')
			more = strconv.AppendInt(more, ka.val, 10)
			more = append(more, ':')
			more = strconv.AppendInt(more, int64(ka.ty.Bits), 10)
			if ka.ty.Signed {
				more = append(more, 's')
			}
		}
		more = append(more, '|')
	}
	k.more = string(more)
	return k
}
