package ir

// Fold evaluates i when its operands are constants. It is the
// compiler's one constant evaluator: lowering folds through it as it
// emits, and instsimplify folds through it after, so an expression over
// literals and the same expression over run-time values agree. It
// returns nil unless i is a binary operation, a comparison, a width
// conversion, a byte swap or a bit count over constants, and for a
// division by zero.
func Fold(i *Instr) *Const {
	a, ok := constArg(i, 0)
	if !ok {
		return nil
	}
	switch i.Op {
	case OpZExt:
		return ConstOf(i.Ty, int64(a.Uint()))
	case OpSExt, OpTrunc:
		return ConstOf(i.Ty, a.Val)
	case OpByteSwap:
		return ConstOf(i.Ty, int64(bswapBits(a.Uint(), i.Ty.Bits)))
	case OpCLZ:
		return ConstOf(i.Ty, int64(clzBits(a.Uint(), i.Ty.Bits)))
	case OpCTZ:
		return ConstOf(i.Ty, int64(ctzBits(a.Uint(), i.Ty.Bits)))
	}
	b, ok := constArg(i, 1)
	if !ok {
		return nil
	}
	if i.Op == OpICmp {
		if i.Pred.holds(a.Ty, a.Val, b.Val) {
			return ConstOf(I1, 1)
		}
		return ConstOf(I1, 0)
	}
	return evalBin(i.Op, i.Ty, a, b)
}

func constArg(i *Instr, n int) (*Const, bool) {
	if n >= len(i.Args) {
		return nil, false
	}
	c, ok := i.Args[n].(*Const)
	return c, ok
}

// evalBin folds a binary op over constants at type t; nil for a
// division by zero and for any other op.
func evalBin(op Op, t Type, a, b *Const) *Const {
	av, bv := t.Wrap(a.Val), t.Wrap(b.Val)
	au, bu := uint64(av)&t.Mask(), uint64(bv)&t.Mask()
	switch op {
	case OpAdd:
		return ConstOf(t, av+bv)
	case OpSub:
		return ConstOf(t, av-bv)
	case OpMul:
		return ConstOf(t, av*bv)
	case OpUDiv:
		if bu == 0 {
			return nil
		}
		return ConstOf(t, int64(au/bu))
	case OpSDiv:
		if bv == 0 {
			return nil
		}
		return ConstOf(t, av/bv)
	case OpURem:
		if bu == 0 {
			return nil
		}
		return ConstOf(t, int64(au%bu))
	case OpSRem:
		if bv == 0 {
			return nil
		}
		return ConstOf(t, av%bv)
	case OpAnd:
		return ConstOf(t, av&bv)
	case OpOr:
		return ConstOf(t, av|bv)
	case OpXor:
		return ConstOf(t, av^bv)
	case OpShl:
		if bu > 63 {
			return ConstOf(t, 0)
		}
		return ConstOf(t, av<<bu)
	case OpLShr:
		if bu > 63 {
			return ConstOf(t, 0)
		}
		return ConstOf(t, int64(au>>bu))
	case OpAShr:
		if bu > 63 {
			bu = 63
		}
		return ConstOf(t, av>>bu)
	case OpSAddSat:
		s := au + bu
		if s > t.Mask() {
			s = t.Mask()
		}
		return ConstOf(t, int64(s))
	case OpSSubSat:
		if bu > au {
			return ConstOf(t, 0)
		}
		return ConstOf(t, int64(au-bu))
	case OpMin:
		if t.Signed {
			if av < bv {
				return ConstOf(t, av)
			}
			return ConstOf(t, bv)
		}
		if au < bu {
			return ConstOf(t, int64(au))
		}
		return ConstOf(t, int64(bu))
	case OpMax:
		if t.Signed {
			if av > bv {
				return ConstOf(t, av)
			}
			return ConstOf(t, bv)
		}
		if au > bu {
			return ConstOf(t, int64(au))
		}
		return ConstOf(t, int64(bu))
	}
	return nil
}

// holds evaluates the comparison a p b at type t.
func (p Pred) holds(t Type, a, b int64) bool {
	av, bv := t.Wrap(a), t.Wrap(b)
	au, bu := uint64(av)&t.Mask(), uint64(bv)&t.Mask()
	switch p {
	case PredEQ:
		return av == bv
	case PredNE:
		return av != bv
	case PredULT:
		return au < bu
	case PredULE:
		return au <= bu
	case PredUGT:
		return au > bu
	case PredUGE:
		return au >= bu
	case PredSLT:
		return av < bv
	case PredSLE:
		return av <= bv
	case PredSGT:
		return av > bv
	case PredSGE:
		return av >= bv
	}
	return false
}

func bswapBits(v uint64, bits int) uint64 {
	n := bits / 8
	var out uint64
	for i := 0; i < n; i++ {
		out = out<<8 | (v>>(8*uint(i)))&0xFF
	}
	return out
}

func clzBits(v uint64, bits int) uint64 {
	for i := bits - 1; i >= 0; i-- {
		if v>>(uint(i))&1 != 0 {
			return uint64(bits - 1 - i)
		}
	}
	return uint64(bits)
}

func ctzBits(v uint64, bits int) uint64 {
	for i := 0; i < bits; i++ {
		if v>>(uint(i))&1 != 0 {
			return uint64(i)
		}
	}
	return uint64(bits)
}
