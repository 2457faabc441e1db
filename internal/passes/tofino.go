package passes

import (
	"fmt"
	"sort"

	"netcl/internal/ir"
)

// PartitionMemory applies the coarse-grained access-based partitioning
// of §VI-B: a global array is split on its outer dimension when every
// access uses a constant on that dimension, removing the single-stage
// placement constraint. Returns the number of splits performed.
func PartitionMemory(mod *ir.Module) int {
	splits := 0
	for again := true; again; {
		again = false
		for _, mem := range mod.Mems {
			if mem.IsLookup() || len(mem.Dims) < 2 {
				continue
			}
			accesses := memAccesses(mod, mem)
			if len(accesses) == 0 {
				continue
			}
			allConst := true
			for _, a := range accesses {
				if a.NIdx < 1 {
					allConst = false
					break
				}
				if _, ok := a.Args[0].(*ir.Const); !ok {
					allConst = false
					break
				}
			}
			if !allConst {
				continue
			}
			// Split.
			outer := mem.Dims[0]
			inner := 1
			for _, d := range mem.Dims[1:] {
				inner *= d
			}
			parts := make([]*ir.MemRef, outer)
			for k := 0; k < outer; k++ {
				p := &ir.MemRef{
					Name:    fmt.Sprintf("%s__%d", mem.Name, k),
					Elem:    mem.Elem,
					Dims:    append([]int(nil), mem.Dims[1:]...),
					Managed: mem.Managed,
				}
				if len(mem.Init) > 0 {
					lo := k * inner
					hi := lo + inner
					if lo < len(mem.Init) {
						if hi > len(mem.Init) {
							hi = len(mem.Init)
						}
						p.Init = append([]int64(nil), mem.Init[lo:hi]...)
					}
				}
				parts[k] = p
			}
			for _, a := range accesses {
				k := int(a.Args[0].(*ir.Const).Uint()) % outer
				a.G = parts[k]
				a.Args = a.Args[1:]
				a.NIdx--
			}
			// Replace mem with its parts in the module.
			var newMems []*ir.MemRef
			for _, m := range mod.Mems {
				if m == mem {
					newMems = append(newMems, parts...)
				} else {
					newMems = append(newMems, m)
				}
			}
			mod.Mems = newMems
			splits++
			again = true
			break
		}
	}
	return splits
}

// memAccesses collects all global-memory instructions touching mem.
func memAccesses(mod *ir.Module, mem *ir.MemRef) []*ir.Instr {
	var out []*ir.Instr
	for _, f := range mod.Funcs {
		f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
			if (i.Op == ir.OpAtomicRMW || i.Op == ir.OpLookup) && i.G == mem {
				out = append(out, i)
			}
			return true
		})
	}
	return out
}

// DuplicateLookups clones non-managed lookup memory once per access
// (§VI-B "memory duplication"): since the data plane cannot update
// MATs, each access gets a private copy, removing the dependence on a
// single stage. Returns the number of duplicates created.
func DuplicateLookups(mod *ir.Module) int {
	dups := 0
	var newMems []*ir.MemRef
	for _, mem := range mod.Mems {
		newMems = append(newMems, mem)
		if !mem.IsLookup() || mem.Managed {
			continue
		}
		accesses := lookupAccesses(mod, mem)
		for n, a := range accesses[1:] {
			clone := *mem
			clone.Name = fmt.Sprintf("%s__dup%d", mem.Name, n+1)
			clone.Init = append([]int64(nil), mem.Init...)
			cp := &clone
			newMems = append(newMems, cp)
			a.G = cp
			retargetLookupVals(mod, a, cp)
			dups++
		}
	}
	mod.Mems = newMems
	return dups
}

func lookupAccesses(mod *ir.Module, mem *ir.MemRef) []*ir.Instr {
	var out []*ir.Instr
	for _, f := range mod.Funcs {
		f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
			if i.Op == ir.OpLookup && i.G == mem {
				out = append(out, i)
			}
			return true
		})
	}
	return out
}

// retargetLookupVals updates LookupVal companions of a retargeted
// Lookup instruction.
func retargetLookupVals(mod *ir.Module, lk *ir.Instr, mem *ir.MemRef) {
	for _, f := range mod.Funcs {
		f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
			if i.Op == ir.OpLookupVal && len(i.Args) == 1 && i.Args[0] == ir.Value(lk) {
				i.G = mem
			}
			return true
		})
	}
}

// condDepthThreshold is the maximum difference in conditional-branch
// depth between two accesses of the same object (§VI-B's "approximate
// distance check").
const condDepthThreshold = 3

// MemCheckError describes a Tofino memory legality violation.
type MemCheckError struct {
	Func string
	Mem  string
	Mem2 string
	Kind string // "multi-access", "distance", "order", "managed-lookup"
	Msg  string
}

// Error implements error.
func (e *MemCheckError) Error() string { return e.Msg }

// CheckMemory enforces the Tofino stage-local memory restrictions of
// §V-D on every kernel in the module:
//
//  1. a global object may be accessed at most once per execution path
//     (accesses must be mutually exclusive);
//  2. mutually exclusive accesses must be close enough (conditional
//     depth) to share one pipeline stage;
//  3. different objects must be accessed in a consistent relative
//     order across all paths (after independent same-block accesses
//     are normalized to a canonical order);
//  4. managed lookup memory cannot be duplicated, so it admits only a
//     single access.
func CheckMemory(mod *ir.Module) []*MemCheckError {
	var errs []*MemCheckError
	for _, f := range mod.Funcs {
		errs = append(errs, checkFuncMemory(f)...)
	}
	// Managed lookup objects: one access per module.
	for _, mem := range mod.Mems {
		if mem.IsLookup() && mem.Managed {
			if n := len(lookupAccesses(mod, mem)); n > 1 {
				errs = append(errs, &MemCheckError{
					Mem: mem.Name, Kind: "managed-lookup",
					Msg: fmt.Sprintf("managed lookup memory %q is accessed %d times; duplication is not available for managed MATs (one access allowed)", mem.Name, n),
				})
			}
		}
	}
	return errs
}

// access is one global-memory touch with its position.
type access struct {
	instr *ir.Instr
	blk   *ir.Block
	pos   int // canonical position within the block
}

func checkFuncMemory(f *ir.Func) []*MemCheckError {
	var errs []*MemCheckError
	depth := condDepths(f)
	reach := ir.Reach(f)

	// Collect accesses per object, with canonically normalized
	// same-block positions.
	byMem := map[*ir.MemRef][]access{}
	for _, b := range f.Blocks {
		poss := canonicalPositions(b)
		for n, i := range b.Instrs {
			if i.Op == ir.OpAtomicRMW || i.Op == ir.OpLookup {
				p := n
				if cp, ok := poss[i]; ok {
					p = cp
				}
				byMem[i.G] = append(byMem[i.G], access{instr: i, blk: b, pos: p})
			}
		}
	}

	ordered := func(a, b access) bool { // a strictly before b on some path
		if a.blk == b.blk {
			return a.pos < b.pos
		}
		return reach[a.blk][b.blk]
	}

	// Rules 1+2: same object.
	var mems []*ir.MemRef
	for m := range byMem {
		mems = append(mems, m)
	}
	sort.Slice(mems, func(i, j int) bool { return mems[i].Name < mems[j].Name })
	for _, m := range mems {
		as := byMem[m]
		for i := 0; i < len(as); i++ {
			for j := i + 1; j < len(as); j++ {
				a, b := as[i], as[j]
				if ordered(a, b) || ordered(b, a) {
					errs = append(errs, &MemCheckError{
						Func: f.Name, Mem: m.Name, Kind: "multi-access",
						Msg: fmt.Sprintf("kernel %q: global memory %q is accessed more than once on the same path; Tofino stateful memory is stage-local (make the accesses mutually exclusive)", f.Name, m.Name),
					})
					continue
				}
				d := depth[a.blk] - depth[b.blk]
				if d < 0 {
					d = -d
				}
				if d > condDepthThreshold {
					errs = append(errs, &MemCheckError{
						Func: f.Name, Mem: m.Name, Kind: "distance",
						Msg: fmt.Sprintf("kernel %q: accesses to %q are %d conditional levels apart (max %d); they cannot share a pipeline stage", f.Name, m.Name, d, condDepthThreshold),
					})
				}
			}
		}
	}

	// Rule 3: cross-object ordering consistency.
	for i := 0; i < len(mems); i++ {
		for j := i + 1; j < len(mems); j++ {
			ma, mb := mems[i], mems[j]
			var abFirst, baFirst bool
			for _, a := range byMem[ma] {
				for _, b := range byMem[mb] {
					if ordered(a, b) {
						abFirst = true
					}
					if ordered(b, a) {
						baFirst = true
					}
				}
			}
			if abFirst && baFirst {
				errs = append(errs, &MemCheckError{
					Func: f.Name, Mem: ma.Name, Mem2: mb.Name, Kind: "order",
					Msg: fmt.Sprintf("kernel %q: objects %q and %q are accessed in different orders on different paths and the accesses cannot be reordered", f.Name, ma.Name, mb.Name),
				})
			}
		}
	}
	return errs
}

// condDepths computes, per block, the minimum number of conditional
// branches on any path from the entry — the paper's approximation of a
// block's pipeline position.
func condDepths(f *ir.Func) map[*ir.Block]int {
	const inf = 1 << 30
	d := map[*ir.Block]int{}
	for _, b := range f.Blocks {
		d[b] = inf
	}
	if f.Entry() == nil {
		return d
	}
	d[f.Entry()] = 0
	for _, b := range ir.RPO(f) {
		t := b.Term()
		if t == nil {
			continue
		}
		step := 0
		if t.Op == ir.OpBr {
			step = 1
		}
		for _, s := range t.Targets {
			if d[b]+step < d[s] {
				d[s] = d[b] + step
			}
		}
	}
	return d
}

// canonicalPositions tries to renumber a block's independent global
// accesses into a canonical order (by object name) so that reorderable
// access sequences compare equal across branches — the paper allows
// reordering when no data dependence forces the order.
func canonicalPositions(b *ir.Block) map[*ir.Instr]int {
	var accs []int // positions in b.Instrs
	for n, i := range b.Instrs {
		if i.Op == ir.OpAtomicRMW || i.Op == ir.OpLookup {
			accs = append(accs, n)
		}
	}
	if len(accs) < 2 {
		return nil
	}
	index := make(map[*ir.Instr]int, len(b.Instrs))
	bit := make([]int, len(b.Instrs)) // access number, or -1
	for n, i := range b.Instrs {
		index[i] = n
		bit[n] = -1
	}
	for k, n := range accs {
		bit[n] = k
	}
	// deps row n: the accesses b.Instrs[n] transitively uses through
	// in-block operands. One pass in block order completes every row
	// when operands precede their users; an operand that follows its
	// user (a φ of a self-looping block) makes the pass repeat until
	// nothing changes.
	words := (len(accs) + 63) / 64
	deps := make([]uint64, len(b.Instrs)*words)
	row := func(n int) []uint64 { return deps[n*words : (n+1)*words] }
	for again := true; again; {
		back, changed := false, false
		for n, i := range b.Instrs {
			d := row(n)
			for _, a := range i.Args {
				ai, ok := a.(*ir.Instr)
				if !ok {
					continue
				}
				m, in := index[ai]
				if !in {
					continue
				}
				back = back || m >= n
				if k := bit[m]; k >= 0 && d[k/64]&(1<<(k%64)) == 0 {
					d[k/64] |= 1 << (k % 64)
					changed = true
				}
				for w, v := range row(m) {
					if d[w]|v != d[w] {
						d[w] |= v
						changed = true
					}
				}
			}
		}
		again = back && changed
	}
	// Topological selection with name-order tie-breaking: each round
	// takes the smallest-named remaining access that uses no other
	// remaining access.
	remaining := make([]uint64, words)
	for k := range accs {
		remaining[k/64] |= 1 << (k % 64)
	}
	out := make(map[*ir.Instr]int, len(accs))
	for pos := range accs {
		best := -1
		for k, n := range accs {
			if remaining[k/64]&(1<<(k%64)) == 0 {
				continue
			}
			ready := true
			for w, v := range row(n) {
				v &= remaining[w]
				if w == k/64 {
					v &^= 1 << (k % 64)
				}
				if v != 0 {
					ready = false
					break
				}
			}
			if ready && (best == -1 || nameLess(b.Instrs[n], b.Instrs[accs[best]])) {
				best = k
			}
		}
		if best == -1 {
			// Cyclic (only through φs) — bail to source order.
			return nil
		}
		remaining[best/64] &^= 1 << (best % 64)
		out[b.Instrs[accs[best]]] = pos
	}
	return out
}

func nameLess(a, b *ir.Instr) bool {
	an, bn := "", ""
	if a.G != nil {
		an = a.G.Name
	}
	if b.G != nil {
		bn = b.G.Name
	}
	return an < bn
}
