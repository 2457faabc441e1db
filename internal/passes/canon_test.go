package passes

import (
	"math/rand"
	"reflect"
	"testing"

	"netcl/internal/ir"
)

// canonicalPositionsRef is the direct statement of canonicalPositions:
// every selection round asks, for every pair of remaining accesses,
// whether one transitively uses the other, by a fresh depth-first walk.
// It is O(n³) and serves as the oracle for the bitset version.
func canonicalPositionsRef(b *ir.Block) map[*ir.Instr]int {
	var accs []*ir.Instr
	index := map[*ir.Instr]int{}
	for n, i := range b.Instrs {
		index[i] = n
		if i.Op == ir.OpAtomicRMW || i.Op == ir.OpLookup {
			accs = append(accs, i)
		}
	}
	if len(accs) < 2 {
		return nil
	}
	// dependsOn reports whether y transitively uses x within the block.
	var dependsOn func(y *ir.Instr, x *ir.Instr, seen map[*ir.Instr]bool) bool
	dependsOn = func(y, x *ir.Instr, seen map[*ir.Instr]bool) bool {
		if seen[y] {
			return false
		}
		seen[y] = true
		for _, a := range y.Args {
			ai, ok := a.(*ir.Instr)
			if !ok {
				continue
			}
			if ai == x {
				return true
			}
			if _, inBlk := index[ai]; inBlk && dependsOn(ai, x, seen) {
				return true
			}
		}
		return false
	}
	remaining := append([]*ir.Instr(nil), accs...)
	var orderResult []*ir.Instr
	for len(remaining) > 0 {
		best := -1
		for k, cand := range remaining {
			ready := true
			for _, other := range remaining {
				if other == cand {
					continue
				}
				if dependsOn(cand, other, map[*ir.Instr]bool{}) {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			if best == -1 || nameLess(cand, remaining[best]) {
				best = k
			}
		}
		if best == -1 {
			return nil
		}
		orderResult = append(orderResult, remaining[best])
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	out := map[*ir.Instr]int{}
	for n, i := range orderResult {
		out[i] = n
	}
	return out
}

// randomAccessBlock builds one block of 1–40 global accesses, over a few
// object names that repeat, mixed with pure instructions. Operands are
// earlier instructions of the block, values defined in another block,
// or constants. With shuffle the block order is permuted afterwards, so
// operands may follow their users; with cycles an operand may be any
// instruction of the block, as a φ in a self-looping block may.
func randomAccessBlock(rng *rand.Rand, shuffle, cycles bool) *ir.Block {
	f := ir.NewFunc("k", 1)
	outside := f.NewBlock("entry")
	ext := outside.Append(&ir.Instr{Op: ir.OpMsgField, Ty: ir.U32, Field: "src"})
	b := f.NewBlock("body")
	mems := make([]*ir.MemRef, 1+rng.Intn(5))
	for n := range mems {
		mems[n] = &ir.MemRef{Name: string(rune('a' + rng.Intn(4))), Elem: ir.U32}
	}
	naccs := 1 + rng.Intn(40)
	var instrs []*ir.Instr
	for len(instrs) == 0 || countAccesses(instrs) < naccs {
		i := &ir.Instr{Ty: ir.U32}
		if rng.Intn(2) == 0 {
			i.Op, i.AOp, i.G, i.NIdx = ir.OpAtomicRMW, "add", mems[rng.Intn(len(mems))], 1
		} else {
			i.Op = ir.OpAdd
		}
		for k := 0; k < 2; k++ {
			switch r := rng.Intn(6); {
			case r == 0:
				i.Args = append(i.Args, ext)
			case r == 1 || len(instrs) == 0:
				i.Args = append(i.Args, ir.ConstOf(ir.U32, int64(rng.Intn(4))))
			default:
				i.Args = append(i.Args, instrs[rng.Intn(len(instrs))])
			}
		}
		instrs = append(instrs, i)
	}
	if cycles {
		for _, i := range instrs {
			if rng.Intn(8) == 0 {
				i.Args[rng.Intn(len(i.Args))] = instrs[rng.Intn(len(instrs))]
			}
		}
	}
	if shuffle {
		rng.Shuffle(len(instrs), func(x, y int) { instrs[x], instrs[y] = instrs[y], instrs[x] })
	}
	for _, i := range instrs {
		b.Append(i)
	}
	return b
}

func countAccesses(is []*ir.Instr) int {
	n := 0
	for _, i := range is {
		if i.Op == ir.OpAtomicRMW {
			n++
		}
	}
	return n
}

// TestCanonicalPositionsMatchesReference: the bitset selection returns
// the reference's map on random blocks, in program order, shuffled, and
// with dependence cycles.
func TestCanonicalPositionsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 600; iter++ {
		shuffle, cycles := iter%3 == 1, iter%3 == 2
		b := randomAccessBlock(rng, shuffle, cycles)
		got, want := canonicalPositions(b), canonicalPositionsRef(b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d (shuffle %v, cycles %v): got %v, want %v\n%s", iter, shuffle, cycles, got, want, b.Func())
		}
	}
}
