package passes

import (
	"netcl/internal/ir"
)

// DetectByteSwaps recognizes byte swaps written as bit-slice shifts and
// ors and replaces them with OpByteSwap, which Tofino can do in a
// single stage (§VI-B). Handles the 16-bit form
//
//	(x << 8) | (x >> 8)            (width 16)
//
// and the masked 32-bit form built from two 16-bit halves. Returns the
// number of replacements.
func DetectByteSwaps(f *ir.Func) int {
	repl := map[ir.Value]ir.Value{}
	for _, b := range f.Blocks {
		for _, i := range append([]*ir.Instr(nil), b.Instrs...) {
			if i.Op != ir.OpOr || i.Ty.Bits != 16 {
				continue
			}
			x := matchBswap16(i)
			if x == nil {
				continue
			}
			sw := &ir.Instr{Op: ir.OpByteSwap, Ty: i.Ty, Args: []ir.Value{x}}
			replaceInPlace(b, i, sw)
			repl[i] = sw
		}
	}
	f.ReplaceUses(repl)
	return len(repl)
}

// matchBswap16 matches or(shl(x,8), lshr(x,8)) in either order.
func matchBswap16(i *ir.Instr) ir.Value {
	a, aok := i.Args[0].(*ir.Instr)
	b, bok := i.Args[1].(*ir.Instr)
	if !aok || !bok {
		return nil
	}
	if a.Op == ir.OpLShr && b.Op == ir.OpShl {
		a, b = b, a
	}
	if a.Op != ir.OpShl || b.Op != ir.OpLShr {
		return nil
	}
	ca, okA := a.Args[1].(*ir.Const)
	cb, okB := b.Args[1].(*ir.Const)
	if !okA || !okB || ca.Val != 8 || cb.Val != 8 {
		return nil
	}
	if a.Args[0] != b.Args[0] {
		return nil
	}
	return a.Args[0]
}

// replaceInPlace swaps new into old's slot within block b.
func replaceInPlace(b *ir.Block, old, new *ir.Instr) {
	for n, x := range b.Instrs {
		if x == old {
			b.Append(new) // assign ID/block
			b.Instrs = b.Instrs[:len(b.Instrs)-1]
			b.Instrs[n] = new
			return
		}
	}
}

// CmpToSubMSB rewrites ordered comparisons whose operands are both
// dynamic into a subtraction followed by an MSB check (§VI-B: "direct
// translation of some icmp predicates with dynamic operands may
// produce code that does not compile for Tofino"). Unsigned compares
// are widened by one power-of-two width first so the borrow lands in
// the MSB. Returns the number of rewrites.
func CmpToSubMSB(f *ir.Func) int {
	repl := map[ir.Value]ir.Value{}
	for _, b := range f.Blocks {
		for pos := 0; pos < len(b.Instrs); pos++ {
			i := b.Instrs[pos]
			if i.Op != ir.OpICmp {
				continue
			}
			_, aConst := i.Args[0].(*ir.Const)
			_, bConst := i.Args[1].(*ir.Const)
			if aConst || bConst {
				continue // constant-operand compares translate fine
			}
			var lhs, rhs ir.Value
			signed := false
			switch i.Pred {
			case ir.PredSLT:
				lhs, rhs, signed = i.Args[0], i.Args[1], true
			case ir.PredSGT:
				lhs, rhs, signed = i.Args[1], i.Args[0], true
			case ir.PredULT:
				lhs, rhs = i.Args[0], i.Args[1]
			case ir.PredUGT:
				lhs, rhs = i.Args[1], i.Args[0]
			default:
				continue
			}
			t := lhs.Type()
			work := t
			var ext ir.Op
			if !signed {
				// Widen so that a borrow is observable in the MSB.
				if t.Bits >= 64 {
					continue
				}
				work = ir.Type{Bits: t.Bits * 2}
				ext = ir.OpZExt
			}
			var seq []*ir.Instr
			a, bb := lhs, rhs
			if ext != 0 {
				ea := &ir.Instr{Op: ext, Ty: work, Args: []ir.Value{lhs}}
				eb := &ir.Instr{Op: ext, Ty: work, Args: []ir.Value{rhs}}
				seq = append(seq, ea, eb)
				a, bb = ea, eb
			}
			sub := &ir.Instr{Op: ir.OpSub, Ty: work, Args: []ir.Value{a, bb}}
			msb := &ir.Instr{Op: ir.OpLShr, Ty: work, Args: []ir.Value{sub, ir.ConstOf(work, int64(work.Bits-1))}}
			cmp := &ir.Instr{Op: ir.OpICmp, Ty: ir.I1, Pred: ir.PredNE, Args: []ir.Value{msb, ir.ConstOf(work, 0)}}
			seq = append(seq, sub, msb, cmp)
			// Splice the sequence where the compare was.
			for _, s := range seq {
				b.Append(s)
				b.Instrs = b.Instrs[:len(b.Instrs)-1]
			}
			rest := append([]*ir.Instr(nil), b.Instrs[pos+1:]...)
			b.Instrs = append(b.Instrs[:pos], seq...)
			b.Instrs = append(b.Instrs, rest...)
			for _, s := range seq {
				b.Adopt(s)
			}
			repl[i] = cmp
			pos += len(seq) - 1
		}
	}
	f.ReplaceUses(repl)
	return len(repl)
}
