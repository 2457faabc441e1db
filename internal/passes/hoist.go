package passes

import (
	"netcl/internal/ir"
)

// HoistCommon moves pure instructions that compute the same value in
// sibling blocks up to their nearest common dominator, provided their
// operands are available there (§VI-B "hoist instructions computing
// the same value to a common dominator"). Returns hoisted count.
//
// Groups of equal pure instructions are visited in program order and
// the first hoistable one is hoisted; then the scan starts over, since
// a hoist can make an earlier group hoistable. The key index is built
// once: a hoist changes only the keys of the replaced instruction's
// users.
func HoistCommon(f *ir.Func) int {
	dt := ir.BuildDomTree(f)
	ix := newHoistIndex(f)
	moved := 0
	for again := true; again; {
		again = false
		for _, g := range ix.order {
			if len(g.members) < 2 {
				continue
			}
			a, b := g.members[0], g.members[1]
			ba, bb := ix.blk[a], ix.blk[b]
			if ba == bb || dt.Dominates(ba, bb) || dt.Dominates(bb, ba) {
				continue // CSE's job
			}
			nca := dt.NCA(ba, bb)
			if !operandsAvailable(a, nca, dt) {
				continue
			}
			// Move a to the NCA, replace b with a.
			ba.Remove(a)
			nca.InsertBeforeTerm(a)
			nca.Adopt(a)
			ix.blk[a] = nca
			g.members = append(g.members[:1], g.members[2:]...)
			for _, blk := range f.Blocks {
				for _, u := range blk.Instrs {
					replaced := false
					for n, arg := range u.Args {
						if arg == b {
							u.Args[n] = a
							replaced = true
						}
					}
					if replaced && u.Pure() {
						ix.rekey(u)
					}
				}
			}
			bb.Remove(b)
			moved++
			again = true
			break
		}
	}
	return moved
}

// hoistIndex groups a function's pure instructions by cseKey. Members
// of a group are in program order as of the index's construction.
type hoistIndex struct {
	groups map[cseKey]*hoistGroup
	order  []*hoistGroup // by first appearance
	key    map[*ir.Instr]cseKey
	pos    map[*ir.Instr]int
	blk    map[*ir.Instr]*ir.Block
}

type hoistGroup struct{ members []*ir.Instr }

func newHoistIndex(f *ir.Func) *hoistIndex {
	ix := &hoistIndex{groups: map[cseKey]*hoistGroup{}, key: map[*ir.Instr]cseKey{},
		pos: map[*ir.Instr]int{}, blk: map[*ir.Instr]*ir.Block{}}
	for _, b := range f.Blocks {
		for _, i := range b.Instrs {
			if i.Pure() {
				ix.pos[i] = len(ix.pos)
				ix.blk[i] = b
				ix.add(i, keyOf(i))
			}
		}
	}
	return ix
}

// add files i under k, keeping the group's members in program order.
func (ix *hoistIndex) add(i *ir.Instr, k cseKey) {
	ix.key[i] = k
	g := ix.groups[k]
	if g == nil {
		g = &hoistGroup{}
		ix.groups[k] = g
		ix.order = append(ix.order, g)
	}
	n := len(g.members)
	for n > 0 && ix.pos[g.members[n-1]] > ix.pos[i] {
		n--
	}
	g.members = append(g.members, nil)
	copy(g.members[n+1:], g.members[n:])
	g.members[n] = i
}

// rekey moves i, whose operands changed, to the group of its new key.
func (ix *hoistIndex) rekey(i *ir.Instr) {
	g := ix.groups[ix.key[i]]
	for n, m := range g.members {
		if m == i {
			g.members = append(g.members[:n], g.members[n+1:]...)
			break
		}
	}
	ix.add(i, keyOf(i))
}

// Speculate aggressively hoists pure instructions to the earliest
// block where their operands are available (§VI-B "aggressive
// speculation ... hoisting them to the earliest possible block").
// It may execute instructions on paths that do not need them — that is
// the point: it shortens dependence chains and thus stage counts, at
// the cost of PHV pressure. Returns the number of moved instructions.
func Speculate(f *ir.Func) int {
	dt := ir.BuildDomTree(f)
	moved := 0
	for _, b := range dt.RPO() {
		for _, i := range append([]*ir.Instr(nil), b.Instrs...) {
			if !i.Pure() {
				continue
			}
			dest := earliestBlock(i, dt, f)
			if dest == nil || dest == b || !dt.Dominates(dest, b) {
				continue
			}
			b.Remove(i)
			dest.InsertBeforeTerm(i)
			dest.Adopt(i)
			moved++
		}
	}
	return moved
}

// earliestBlock returns the deepest dominator-tree block among the
// defining blocks of i's operands (entry for all-constant operands).
func earliestBlock(i *ir.Instr, dt *ir.DomTree, f *ir.Func) *ir.Block {
	dest := f.Entry()
	for _, a := range i.Args {
		ai, ok := a.(*ir.Instr)
		if !ok {
			continue
		}
		ab := ai.Block()
		if ab == nil {
			return nil
		}
		if dt.Dominates(dest, ab) {
			dest = ab
		} else if !dt.Dominates(ab, dest) {
			return nil // operands on divergent paths
		}
	}
	return dest
}

// operandsAvailable reports whether every instruction operand of i is
// defined in a block dominating dst.
func operandsAvailable(i *ir.Instr, dst *ir.Block, dt *ir.DomTree) bool {
	for _, a := range i.Args {
		ai, ok := a.(*ir.Instr)
		if !ok {
			continue
		}
		if ai.Block() == nil || !dt.Dominates(ai.Block(), dst) {
			return false
		}
	}
	return true
}
