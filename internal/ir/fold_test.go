package ir

import (
	"testing"
	"testing/quick"
)

// TestFoldMatchesInterpretation cross-checks the compiler's constant
// evaluator against direct evaluation for every binary op and width: for
// random operands, fold(op, a, b) must equal the wrapped arithmetic the
// bmv2 interpreter performs. This pins the compile-time and run-time
// semantics together.
func TestFoldMatchesInterpretation(t *testing.T) {
	types := []Type{U8, U16, U32, S8, S16, S32}
	ops := []Op{
		OpAdd, OpSub, OpMul, OpUDiv, OpURem, OpAnd,
		OpOr, OpXor, OpShl, OpLShr, OpAShr,
		OpSAddSat, OpSSubSat, OpMin, OpMax,
	}
	ref := func(op Op, t Type, a, b int64) (int64, bool) {
		au := uint64(a) & t.Mask()
		bu := uint64(b) & t.Mask()
		switch op {
		case OpAdd:
			return t.Wrap(int64(au + bu)), true
		case OpSub:
			return t.Wrap(int64(au - bu)), true
		case OpMul:
			return t.Wrap(int64(au * bu)), true
		case OpUDiv:
			if bu == 0 {
				return 0, false
			}
			return t.Wrap(int64(au / bu)), true
		case OpURem:
			if bu == 0 {
				return 0, false
			}
			return t.Wrap(int64(au % bu)), true
		case OpAnd:
			return t.Wrap(int64(au & bu)), true
		case OpOr:
			return t.Wrap(int64(au | bu)), true
		case OpXor:
			return t.Wrap(int64(au ^ bu)), true
		case OpShl:
			if bu > 63 {
				return 0, true
			}
			return t.Wrap(int64(au << bu)), true
		case OpLShr:
			if bu > 63 {
				return 0, true
			}
			return t.Wrap(int64(au >> bu)), true
		case OpAShr:
			sh := bu
			if sh > 63 {
				sh = 63
			}
			return t.Wrap(t.Wrap(a) >> sh), true
		case OpSAddSat:
			s := au + bu
			if s > t.Mask() {
				s = t.Mask()
			}
			return t.Wrap(int64(s)), true
		case OpSSubSat:
			if bu > au {
				return 0, true
			}
			return t.Wrap(int64(au - bu)), true
		case OpMin:
			if t.Signed {
				if t.Wrap(a) < t.Wrap(b) {
					return t.Wrap(a), true
				}
				return t.Wrap(b), true
			}
			if au < bu {
				return int64(au), true
			}
			return int64(bu), true
		case OpMax:
			if t.Signed {
				if t.Wrap(a) > t.Wrap(b) {
					return t.Wrap(a), true
				}
				return t.Wrap(b), true
			}
			if au > bu {
				return int64(au), true
			}
			return int64(bu), true
		}
		return 0, false
	}
	f := func(aRaw, bRaw int64, opPick, tyPick uint8) bool {
		op := ops[int(opPick)%len(ops)]
		ty := types[int(tyPick)%len(types)]
		a := ConstOf(ty, aRaw)
		b := ConstOf(ty, bRaw)
		got := evalBin(op, ty, a, b)
		gotOK := got != nil
		want, wantOK := ref(op, ty, aRaw, bRaw)
		if gotOK != wantOK {
			t.Logf("op=%v ty=%v a=%d b=%d: ok mismatch (%v vs %v)", op, ty, aRaw, bRaw, gotOK, wantOK)
			return false
		}
		if !gotOK {
			return true
		}
		if got.Val != want {
			t.Logf("op=%v ty=%v a=%d b=%d: %d vs %d", op, ty, aRaw, bRaw, got.Val, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPredEvalProperties checks comparison trichotomy and inversion on
// random operands.
func TestPredEvalProperties(t *testing.T) {
	f := func(a, b int64, signedPick bool) bool {
		ty := U16
		if signedPick {
			ty = S16
		}
		lt, gt, eq := PredULT, PredUGT, PredEQ
		if signedPick {
			lt, gt = PredSLT, PredSGT
		}
		nLt := lt.holds(ty, a, b)
		nGt := gt.holds(ty, a, b)
		nEq := eq.holds(ty, a, b)
		// Exactly one of <, >, == holds.
		count := 0
		for _, v := range []bool{nLt, nGt, nEq} {
			if v {
				count++
			}
		}
		if count != 1 {
			return false
		}
		// Inversion: p(a,b) == !invert(p)(a,b).
		return lt.Invert().holds(ty, a, b) == !nLt &&
			gt.Swap().holds(ty, b, a) == nGt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
