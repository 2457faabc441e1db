// Package passes implements the NetCL device-pipeline transformations
// of the paper (§VI-B): SSA promotion, simplification and DCE, the
// Tofino memory legality checks, access-based memory partitioning,
// lookup-memory duplication, hoisting and speculation, IR pattern
// intrinsics, and φ-elimination before code generation.
package passes

import (
	"netcl/internal/ir"
)

// Mem2Reg promotes scalar allocas (single-element, constant-index
// accesses only) to SSA values, inserting φ-nodes at dominance
// frontiers. Array allocas and dynamically indexed locals are left in
// memory form (they become P4 header stacks).
func Mem2Reg(f *ir.Func) {
	promotable := map[*ir.Instr]bool{}
	f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpAlloca && i.Count == 1 {
			promotable[i] = true
		}
		return true
	})
	// An alloca is demoted if any use is not a simple load/store slot.
	// The same walk lists each alloca's definition blocks in order.
	defs := map[*ir.Instr][]*ir.Block{}
	f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
		switch i.Op {
		case ir.OpLoad, ir.OpStore:
			al, ok := i.Args[0].(*ir.Instr)
			if !ok || al.Op != ir.OpAlloca {
				return true
			}
			idx, ok := i.Args[1].(*ir.Const)
			if !ok || idx.Val != 0 {
				delete(promotable, al)
			}
			// A store whose *value* is the alloca would escape it.
			if i.Op == ir.OpStore {
				if v, ok2 := i.Args[2].(*ir.Instr); ok2 && v.Op == ir.OpAlloca {
					delete(promotable, v)
				}
				if d := defs[al]; len(d) == 0 || d[len(d)-1] != b {
					defs[al] = append(d, b)
				}
			}
		default:
			for _, a := range i.Args {
				if ai, ok := a.(*ir.Instr); ok && ai.Op == ir.OpAlloca {
					delete(promotable, ai)
				}
			}
		}
		return true
	})
	if len(promotable) == 0 {
		return
	}

	dt := ir.BuildDomTree(f)
	df := dt.Frontiers()

	// Insert φ-nodes at the iterated dominance frontier of each
	// alloca's definition blocks.
	phiFor := map[*ir.Instr]*ir.Instr{} // phi -> alloca
	phisIn := map[*ir.Block]map[*ir.Instr]*ir.Instr{}
	for al := range promotable {
		work := defs[al]
		seen := map[*ir.Block]bool{}
		for _, b := range work {
			seen[b] = true
		}
		placed := map[*ir.Block]bool{}
		for len(work) > 0 {
			b := work[0]
			work = work[1:]
			for _, fb := range df[b] {
				if placed[fb] {
					continue
				}
				placed[fb] = true
				phi := &ir.Instr{Op: ir.OpPhi, Ty: al.Elem, Name: al.Name}
				// Insert at block start; assign an ID via a prepend.
				prependInstr(fb, phi)
				phiFor[phi] = al
				if phisIn[fb] == nil {
					phisIn[fb] = map[*ir.Instr]*ir.Instr{}
				}
				phisIn[fb][al] = phi
				if !seen[fb] {
					seen[fb] = true
					work = append(work, fb)
				}
			}
		}
	}

	// Rename along the dominator tree; a promoted load's uses are
	// replaced in one sweep after it.
	stacks := map[*ir.Instr][]ir.Value{}
	repl := map[ir.Value]ir.Value{}
	var rename func(b *ir.Block)
	rename = func(b *ir.Block) {
		var pushed []*ir.Instr
		var toRemove []*ir.Instr
		for _, i := range b.Instrs {
			switch i.Op {
			case ir.OpPhi:
				if al, ok := phiFor[i]; ok {
					stacks[al] = append(stacks[al], i)
					pushed = append(pushed, al)
				}
			case ir.OpLoad:
				al, ok := i.Args[0].(*ir.Instr)
				if ok && promotable[al] {
					repl[i] = currentVal(stacks, al, i.Ty)
					toRemove = append(toRemove, i)
				}
			case ir.OpStore:
				al, ok := i.Args[0].(*ir.Instr)
				if ok && promotable[al] {
					stacks[al] = append(stacks[al], i.Args[2])
					pushed = append(pushed, al)
					toRemove = append(toRemove, i)
				}
			}
		}
		// Fill φ operands in successors.
		for _, s := range b.Succs() {
			for al, phi := range phisIn[s] {
				phi.Args = append(phi.Args, currentVal(stacks, al, phi.Ty))
				phi.In = append(phi.In, b)
			}
		}
		for _, kid := range dt.Children(b) {
			rename(kid)
		}
		for _, i := range toRemove {
			b.Remove(i)
		}
		for _, al := range pushed {
			stacks[al] = stacks[al][:len(stacks[al])-1]
		}
	}
	rename(f.Entry())
	f.ReplaceUses(repl)

	// Remove the allocas themselves.
	for _, b := range f.Blocks {
		var keep []*ir.Instr
		for _, i := range b.Instrs {
			if i.Op == ir.OpAlloca && promotable[i] {
				continue
			}
			keep = append(keep, i)
		}
		b.Instrs = keep
	}

	// Drop trivial φ-nodes (single distinct operand).
	simplifyPhis(f)
}

// currentVal returns the reaching definition of al, or a zero constant
// for reads of uninitialized locals (their value is undefined, §V-B).
func currentVal(stacks map[*ir.Instr][]ir.Value, al *ir.Instr, ty ir.Type) ir.Value {
	s := stacks[al]
	if len(s) == 0 {
		return ir.ConstOf(ty, 0)
	}
	return s[len(s)-1]
}

// prependInstr inserts i at the start of block b, assigning an ID.
func prependInstr(b *ir.Block, i *ir.Instr) {
	b.Append(i) // assigns ID and block
	copy(b.Instrs[1:], b.Instrs[:len(b.Instrs)-1])
	b.Instrs[0] = i
}

// simplifyPhis removes φ-nodes whose incoming values are all identical
// (or the φ itself), iterating to a fixpoint; the other uses are
// replaced in one sweep at the end.
func simplifyPhis(f *ir.Func) {
	repl := map[ir.Value]ir.Value{}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, i := range append([]*ir.Instr(nil), b.Instrs...) {
				if i.Op != ir.OpPhi {
					continue
				}
				i.ReplaceArgs(repl)
				var uniq ir.Value
				trivial := true
				for _, a := range i.Args {
					if a == i {
						continue
					}
					if uniq == nil {
						uniq = a
					} else if uniq != a {
						trivial = false
						break
					}
				}
				if trivial {
					if uniq == nil {
						uniq = ir.ConstOf(i.Ty, 0)
					}
					repl[i] = uniq
					b.Remove(i)
					changed = true
				}
			}
		}
	}
	f.ReplaceUses(repl)
}
