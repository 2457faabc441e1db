package bmv2

// fuse.go rewrites the code once after compilation: a run of k >= 2
// register-action brackets that a NetCL _spec(k) array becomes runs as
// one, lane-looped, one dispatch per instruction for all k lanes.
// DESIGN.md §7 states the rule and what stays scalar.

import "slices"

// mentions calls fn on every slot a scalar instruction reads or
// writes, the implicit slots of a register site included.
func (p *cprog) mentions(in *instr, fn func(slot int32)) {
	a, b, w := in.access()
	for _, x := range [...]int32{a, b, w} {
		if x >= 0 {
			fn(x)
		}
	}
	if in.op == opRegLoad || in.op == opRegStore {
		rs := &p.regSites[in.imm]
		fn(rs.m)
		fn(rs.idxSlot)
		if in.op == opRegLoad {
			fn(rs.o)
		}
	}
}

// target is the pc an instruction may continue at besides the next.
func (in *instr) target() (int32, bool) {
	return in.dst, (in.op >= opJmp && in.op <= opExitChk) || (in.op == opApply && in.dst >= 0)
}

// facts counts the mentions of each slot, in the code and outside it
// (hash arguments, keys, parameters that invoke writes), and the
// jumps and span starts landing on each pc.
func (p *cprog) facts() (uses, entries []int32) {
	uses, entries = make([]int32, len(p.initFrame)), make([]int32, len(p.code)+1)
	for i := range p.code {
		p.mentions(&p.code[i], func(x int32) { uses[x]++ })
		if t, ok := p.code[i].target(); ok {
			entries[t]++
		}
	}
	for _, hs := range p.hashSites {
		for _, a := range hs.args {
			uses[a.slot]++
		}
	}
	for _, tb := range p.tabs {
		for _, k := range tb.keys {
			uses[k.slot]++
		}
		entries[tb.keyCode.start]++
	}
	for _, st := range p.states {
		uses[st.keySlot]++
		entries[st.key.start]++
	}
	for _, ctl := range p.controls() {
		entries[ctl.body.start]++
		for _, a := range ctl.actions {
			entries[a.body.start]++
			for _, x := range a.params {
				uses[x]++
			}
		}
	}
	return uses, entries
}

// fuse fuses every run that qualifies, in one scan.
func (p *cprog) fuse() {
	uses, entries := p.facts()
	for s := 0; s < len(p.code); s++ {
		if p.code[s].op != opRegLoad {
			continue
		}
		L := 1 // a segment runs to the next opRegLoad
		for s+L < len(p.code) && p.code[s+L].op != opRegLoad {
			L++
		}
		k := 1
		for k < 255 && s+(k+1)*L <= len(p.code) && p.sameShape(s, s+k*L, L) {
			k++
		}
		if k > 1 {
			// Fused or not, the scan moves past the isomorphic run,
			// which keeps the pass linear.
			p.fuseLanes(uses, entries, s, L, k)
		}
		s += k*L - 1
	}
}

// sameShape reports whether the segments at s and t, L long, are
// isomorphic up to operand slots: the same opcodes, widths, immediates
// and jump offsets, and brackets at one index slot over registers of
// one size and width, each storing its own.
func (p *cprog) sameShape(s, t, L int) bool {
	for j := 0; j < L; j++ {
		x, y := &p.code[s+j], &p.code[t+j]
		tx, jump := x.target()
		ty, _ := y.target()
		if x.op != y.op || x.bits != y.bits || x.c != y.c || (jump && int(tx)-s != int(ty)-t) {
			return false
		}
		if x.op == opRegLoad || x.op == opRegStore {
			rx, ry := &p.regSites[x.imm], &p.regSites[y.imm]
			if x.a != y.a || rx.bits != ry.bits || rx.rf.size != ry.rf.size || y.imm != p.code[t].imm {
				return false
			}
		} else if x.imm != y.imm {
			return false
		}
	}
	return true
}

// fuseLanes checks the rest of the fusion rule on k isomorphic
// segments of L instructions at s and, when it holds, rewrites lane 0
// in place into the fused run.
func (p *cprog) fuseLanes(uses, entries []int32, s, L, k int) {
	code := p.code
	store := slices.IndexFunc(code[s+1:s+L], func(in instr) bool { return in.op == opRegStore }) + 1
	if store == 0 || code[s+store].imm != code[s].imm {
		return
	}
	ext := 0 // entries inside the run, less its own jumps
	for x := s + 1; x < s+k*L; x++ {
		ext += int(entries[x])
	}
	for j := 1; j < L; j++ {
		in := &code[s+j]
		t, jump := in.target()
		switch rel := int(t) - s; {
		case jump && (in.op == opApply || in.op == opExitChk || rel <= j || rel > L || (j < store && rel > store)):
			return // out of the segment, backwards, or past the store (a caught error's handler)
		case jump && rel == L:
			ext -= k - 1 // the last lane's lands past the run
		case jump:
			ext -= k
		case j != store && !laneable(in.op):
			return
		}
	}
	vs := vregSite{bits: p.regSites[code[s].imm].bits, mask: p.regSites[code[s].imm].mask}
	for i := 0; i < k && ext == 0; i++ {
		if rf := p.regSites[code[s+i*L].imm].rf; !slices.Contains(vs.rfs, rf) {
			vs.rfs = append(vs.rfs, rf)
		}
	}
	if ext != 0 || len(vs.rfs) < k {
		return // a jump from outside into the run, or a register twice
	}

	// owner: the one lane that mentions a slot, or -1. A slot only its
	// own lane mentions, anywhere, is renumbered into a fresh block.
	owner, cnt := map[int32]int{}, map[int32]int32{}
	for x := s; x < s+k*L; x++ {
		i := (x - s) / L
		p.mentions(&code[x], func(y int32) {
			if o, seen := owner[y]; seen && o != i {
				owner[y] = -1
			} else {
				owner[y] = i
			}
			cnt[y]++
		})
	}
	frame, ok := len(p.initFrame), true
	remap := map[int32]int32{}
	type use struct {
		slot         int32
		write, block bool
	}
	var used []use // operands in slots that were there before
	xs := make([]int32, k)
	// lane places xs, one slot per lane: the slot all lanes share
	// (stride 0), or the base of a block of adjacent ones (stride 1).
	lane := func(j int, field func(*instr) int32, write bool) (int32, uint8) {
		for i := range xs {
			xs[i] = field(&code[s+i*L+j])
		}
		base, mapped := remap[xs[0]]
		some, fresh, adjacent, same := false, true, true, true
		for i, x := range xs {
			y, m := remap[x]
			some, mapped = some || m, mapped && m && y == base+int32(i)
			fresh = fresh && !m && int(x) >= p.nGlobal && owner[x] == i && cnt[x] == uses[x]
			adjacent, same = adjacent && x == xs[0]+int32(i), same && x == xs[0]
		}
		switch {
		case same:
			used, ok = append(used, use{xs[0], write, false}), ok && !write
			return xs[0], 0
		case mapped:
			return base, 1
		case some: // renumbered here, another block there
		case fresh:
			base = int32(len(p.initFrame))
			for _, x := range xs {
				remap[x] = int32(len(p.initFrame))
				p.initFrame = append(p.initFrame, p.initFrame[x])
			}
			return base, 1
		case adjacent:
			used = append(used, use{xs[0], write, true})
			return xs[0], 1
		}
		ok = false
		return 0, 0
	}

	vi := uint64(len(p.vregSites))
	seg := slices.Clone(code[s : s+L])
	for j := range seg {
		in := &seg[j]
		a, b, _ := in.access()
		var sa, sb uint8
		switch _, jump := in.target(); {
		case in.op == opRegLoad:
			vs.m, _ = lane(j, func(x *instr) int32 { return p.regSites[x.imm].m }, true)
			vs.o, _ = lane(j, func(x *instr) int32 { return p.regSites[x.imm].o }, true)
			if a >= 0 {
				used = append(used, use{a, false, false})
			}
			*in = instr{op: opRegLoadV, a: a, imm: vi}
		case in.op == opRegStore:
			*in = instr{op: opRegStoreV, imm: vi}
		default:
			if a >= 0 {
				in.a, sa = lane(j, func(x *instr) int32 { return x.a }, false)
			}
			if b >= 0 {
				in.b, sb = lane(j, func(x *instr) int32 { return x.b }, false)
			}
			if jump {
				ok = ok && sa == 0 && sb == 0 // every lane branches alike
				continue
			}
			in.dst, _ = lane(j, func(x *instr) int32 { return x.dst }, true)
			in.op, in.c, in.lanes, in.sa, in.sb = opLanes, int32(in.op), uint8(k), sa, sb
			if b < 0 {
				in.b = -1
			}
		}
	}

	// No lane reads what another writes: a written block overlaps no
	// other block and holds no shared slot (fresh blocks overlap
	// nothing). Few operands are not fresh, so pairs are cheap.
	for _, w := range used {
		for _, u := range used {
			n := int32(1 + (k-1)*int(b2u(u.block)))
			ok = ok && !(w.write && (w.slot != u.slot || !u.block) && u.slot < w.slot+int32(k) && w.slot < u.slot+n)
		}
	}
	if !ok {
		p.initFrame = p.initFrame[:frame]
		return
	}

	// Coalesce: MovW T <- x into a fresh block T that nothing else
	// reads, then the store, then MovW h <- T becomes MovW h <- x in
	// the first one's place, before the store, where x holds the same.
	reads, into := map[int32]int{vs.m: 1}, make([]bool, L+1)
	for _, in := range seg {
		a, b, _ := in.access()
		reads[a]++
		reads[b]++
		if t, jump := in.target(); jump {
			into[int(t)-s] = true
		}
	}
	drop := make([]bool, L)
	for q := 0; q+1 < L; q++ {
		c1, r := &seg[q], q+1
		if seg[r].op == opRegStoreV && !into[r] && r+1 < L {
			r++
		}
		c2 := &seg[r]
		if !drop[q] && c1.op == opLanes && c2.op == opLanes && opcode(c1.c) == opMovW && opcode(c2.c) == opMovW &&
			c1.dst >= int32(frame) && reads[c1.dst] == 1 && c2.a == c1.dst && c2.dst != vs.m && !into[r] {
			c2.a, c2.sa, c2.imm = c1.a, c1.sa, c1.imm&c2.imm
			reads[c1.dst]--
			*c1, drop[r] = *c2, true
		}
	}
	if reads[vs.o] == 0 {
		vs.o = -1
	}

	// Write the run over lane 0, jumps moved with the dropped copies,
	// and a jump past the other lanes.
	at, n := make([]int32, L+1), int32(s)
	for j := range seg {
		at[j] = n
		if !drop[j] {
			code[n] = seg[j]
			n++
		}
	}
	at[L] = int32(s + k*L)
	for x := int32(s); x < n; x++ {
		if t, jump := code[x].target(); jump {
			code[x].dst = at[int(t)-s]
		}
	}
	code[n] = instr{op: opJmp, dst: at[L]}
	p.vregSites = append(p.vregSites, vs)
	p.maxLanes = max(p.maxLanes, k)
}
