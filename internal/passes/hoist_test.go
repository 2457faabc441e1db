package passes

import (
	"testing"

	"netcl/internal/ir"
)

// TestHoistCommonMergesSiblings: the same pure computation in two
// exclusive branches is hoisted to their common dominator and
// deduplicated (§VI-B "hoist instructions computing the same value to
// a common dominator").
func TestHoistCommonMergesSiblings(t *testing.T) {
	mod := buildModule(t, `
_net_ unsigned A[256], B[256];
_kernel(1) void k(unsigned key, unsigned sel, unsigned &x) {
  if (sel > 0) { x = ncl::atomic_add(&A[key * 31], 1); }
  else         { x = ncl::atomic_add(&B[key * 31], 1); }
}
`, 1, nil)
	f := mod.Funcs[0]
	Mem2Reg(f)
	Simplify(f)
	if n := HoistCommon(f); n == 0 {
		t.Fatalf("no sibling computations hoisted:\n%s", f)
	}
	// After hoisting + CSE, exactly one multiply remains.
	CSE(f)
	muls := 0
	f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpMul {
			muls++
			if b != f.Entry() {
				t.Errorf("hoisted multiply not in a dominator block")
			}
		}
		return true
	})
	if muls != 1 {
		t.Errorf("multiplies after hoist+CSE: %d", muls)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
}

// TestHoistCommonCascade: hoisting the multiply makes the two adds
// that use it equal, and they must be hoisted in turn.
func TestHoistCommonCascade(t *testing.T) {
	mod := buildModule(t, `
_net_ unsigned A[256], B[256];
_kernel(1) void k(unsigned key, unsigned sel, unsigned &x) {
  if (sel > 0) { x = ncl::atomic_add(&A[(key * 31 + 5) & 255], 1); }
  else         { x = ncl::atomic_add(&B[(key * 31 + 5) & 255], 1); }
}
`, 1, nil)
	f := mod.Funcs[0]
	Mem2Reg(f)
	Simplify(f)
	if n := HoistCommon(f); n < 3 {
		t.Fatalf("hoisted %d instructions, want the multiply, the add and the and:\n%s", n, f)
	}
	f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
		switch i.Op {
		case ir.OpMul, ir.OpAdd, ir.OpAnd:
			if b != f.Entry() {
				t.Errorf("%s left in %s:\n%s", i.Op, b.Name, f)
			}
		}
		return true
	})
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
}

// TestSROAEligibility: dynamic indices block scalar replacement.
func TestSROAEligibility(t *testing.T) {
	mod := buildModule(t, `
_kernel(1) void k(unsigned i, unsigned &a, unsigned &b) {
  unsigned cs[4];
  cs[0] = 1; cs[1] = 2; cs[2] = 3; cs[3] = 4;
  a = cs[2];
  unsigned dyn[4];
  dyn[0] = 5; dyn[1] = 6; dyn[2] = 7; dyn[3] = 8;
  b = dyn[i & 3];
}
`, 1, nil)
	f := mod.Funcs[0]
	n := SROA(f)
	if n != 1 {
		t.Fatalf("SROA split %d arrays, want exactly the const-indexed one", n)
	}
	// The dynamic array must keep its 4-element alloca.
	bigAllocas := 0
	f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpAlloca && i.Count == 4 {
			bigAllocas++
		}
		return true
	})
	if bigAllocas != 1 {
		t.Errorf("dynamic array allocas: %d", bigAllocas)
	}
}
