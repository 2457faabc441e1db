package bmv2

// fdd.go compiles a table's rule set into a forwarding decision
// diagram (the "A Fast Compiler for NetKAT" technique): one level per
// key field, each node a sorted list of disjoint intervals covering
// the field's whole domain, each leaf the precomputed winning entry.
// A match is then one walk — a binary search per key — instead of the
// per-entry linear scan, so ternary/range/LPM/priority tables match in
// O(levels · log edges) regardless of entry count.
//
// The diagram can be built ahead of time because the winner of the
// reference scoring loop depends only on WHICH rules match, never on
// the packet's key values: an LPM key contributes its prefix length,
// ternary/range keys subtract the entry's priority, and ties go to
// the earliest-inserted entry (the scan's strict > comparison). Each
// rule therefore carries one static score, and a leaf's winner is the
// best-scoring rule alive there.
//
// Every key width is static (p4.Validate decides it; ctable.apply
// stamps it on each key it matches, so the width a diagram was built
// for is the width it is walked with). A node splits only on the bits
// its own rules test (fnode.care). Eligibility is decided at build
// time: no node may expand a rule over more than fddMaxFreeBits free
// bits, nor the diagram exceed the work budget. A table whose rules
// break either gets no diagram and matches by ctable.scan. Where a
// diagram exists its leaf is the answer, as in the NetKAT compiler;
// the fuzzers in fdd_test.go hold it to scan and to the reference
// interpreter.

import (
	"cmp"
	"math/bits"
	"slices"

	"netcl/internal/p4"
)

const (
	// fddMaxWork bounds the elementary intervals of the whole reachable
	// diagram, summed over its nodes before adjacent ones merge; over
	// it the table loses its diagram (scan fallback), never its entries.
	fddMaxWork = 1 << 16
	// fddMaxFreeBits bounds how a ternary rule's mask may differ from its
	// node's care: a node expands a rule into at most 2^fddMaxFreeBits
	// intervals.
	fddMaxFreeBits = 6
)

// Leaf codes share the child namespace with node indices: child >= 0
// is a node, fddMiss is "no entry matched", and any other negative
// value encodes a winning rule id — an index into tsnap.ents, which
// names its record — as -(id)-2.
const fddMiss = int32(-1)

// fnode is one decision level: starts[i] opens the half-open
// elementary interval [starts[i], starts[i+1]) (the last runs to the
// end of the field's domain), and next[i] is its child or leaf code.
// The key is read under care, the bits the node's rules test. starts[0]
// is always 0, so every key value lands in some interval.
type fnode struct {
	starts []uint64
	next   []int32
	care   uint64
}

// fdd is the compiled diagram of one table's rule set.
type fdd struct {
	nodes []fnode
	root  int32 // node index or leaf code (rule-free tables)
}

// match walks the diagram to the winning record, or -1 on a miss.
func (f *fdd) match(keys []uint64, ents []int32) int32 {
	n := f.root
	for lvl := 0; n >= 0; lvl++ {
		nd := &f.nodes[n]
		v := keys[lvl] & nd.care
		// Branch-free halving to the last interval starting at or below v
		// (starts[0] is 0): per step, lo += half when starts[lo+half] <= v,
		// as arithmetic on the borrow of v - starts[lo+half] — the
		// compiler emits a jump for the if-statement form, which random
		// keys mispredict every other step.
		starts := nd.starts
		lo := 0
		for w := len(starts); w > 1; {
			half := w >> 1
			_, below := bits.Sub64(v, starts[lo+half], 0)
			lo += half & (int(below) - 1)
			w -= half
		}
		n = nd.next[lo]
	}
	if n == fddMiss {
		return -1
	}
	return ents[-n-2]
}

// fddLv is one rule at one level: the interval its key covers under
// its own mask, from the value of handle open (fddLevel) to before that
// of shut (-1: the domain's end), and the bits the key tests (mask: the
// whole domain unless ternary) with their values (val).
type fddLv struct {
	open, shut int32
	val, mask  uint64
}

// fddRule is one store record as the diagram sees it: the static
// score the reference loop would assign it and its key at each level.
// lv is nil for a record that can never match (wrong arity, a key
// outside its domain). seq is the record's serial, which names it
// across compaction.
type fddRule struct {
	score int
	lv    []fddLv
	seq   uint32
}

// fddKey is the memo key of a level's rule set whose additive hash
// (fddMix) is h. A hit is verified against the node's level and set.
func fddKey(level int, h uint64) uint64 { return h + uint64(level)*0x9E3779B97F4A7C15 }

// fddMeta is the writer-side record of one arena node: its level, its
// rule set sets[off:off+n], and the elementary intervals it cost.
type fddMeta struct{ level, off, n, work int }

// fddEvent is a sweep endpoint: the rule at position p of the node's
// set enters the active set, or leaves it when p < 0 (as ^p). next
// chains the events at one value: an index into the node's events plus
// one, 0 at the end.
type fddEvent struct{ p, next int32 }

// fddRun is the chain of a node's events at one value.
type fddRun struct {
	at    uint64
	first int32
}

// fddLevel orders a level's endpoint values once for all the nodes it
// builds: rank[h] is the place of handle h's value in ord, the handles
// by value, and sync ranks again only after new values came. A node
// buckets its endpoints by rank under a bitset and reads them out in
// order: O(k + values/64), no comparison sort. Dead values stay until
// compact finds a level's values doubled since it last reinterned them.
// The rest is the sweep's buffers; head and marks (by rank) stay zero.
type fddLevel struct {
	hv    map[uint64]int32 // value -> handle
	vals  []uint64         // by handle
	rank  []int32          // by handle
	ord   []int32          // handles by rank
	fresh []int32          // handles not yet ranked
	kept  int              // values the last reintern kept

	xe    [][2]int32 // a node's endpoints under its care: rule position (^ closing), handle
	ev    []fddEvent
	head  []int32
	marks []uint64
	runs  []fddRun
	words []uint64
	sub   []int32
	cs    []uint64
	cn    []int32
}

// add returns the handle of the value v.
func (l *fddLevel) add(v uint64) int32 {
	h, ok := l.hv[v]
	if !ok {
		h = int32(len(l.vals))
		l.vals, l.rank, l.fresh = append(l.vals, v), append(l.rank, -1), append(l.fresh, h)
		l.hv[v] = h
	}
	return h
}

// span interns the endpoints of [lo, hi] on a level of domain dmask:
// the handle it opens at, and the one it closes at (-1 at the end).
func (l *fddLevel) span(lo, hi, dmask uint64) (open, shut int32) {
	open, shut = l.add(lo), -1
	if hi < dmask {
		shut = l.add(hi + 1)
	}
	return open, shut
}

// order merges the unranked handles, sorted, into the ranked order.
func (l *fddLevel) order() {
	fresh := l.fresh
	if len(fresh) == 0 {
		return
	}
	slices.SortFunc(fresh, func(x, y int32) int { return cmp.Compare(l.vals[x], l.vals[y]) })
	i, ord := len(l.ord)-1, append(l.ord, fresh...)
	for j := len(ord) - 1; len(fresh) > 0; j-- { // merge from the back
		if f := fresh[len(fresh)-1]; i < 0 || l.vals[ord[i]] < l.vals[f] {
			ord[j], fresh = f, fresh[:len(fresh)-1]
		} else {
			ord[j], i = ord[i], i-1
		}
	}
	l.ord, l.fresh = ord, l.fresh[:0]
	for r, h := range l.ord {
		l.rank[h] = int32(r)
	}
}

// reintern drops the values no rule names at level lv and renumbers the
// rest, rewriting the endpoints; sync ranked them all.
func (l *fddLevel) reintern(rules []fddRule, lv int) {
	old, to := l.vals, l.rank // to: old handle -> new + 1
	l.vals = make([]uint64, 0, len(old))
	clear(to)
	keep := func(h int32) int32 {
		if h < 0 {
			return h
		}
		if to[h] == 0 {
			l.vals = append(l.vals, old[h])
			to[h] = int32(len(l.vals))
		}
		return to[h] - 1
	}
	for _, r := range rules {
		if r.lv != nil {
			x := &r.lv[lv]
			x.open, x.shut = keep(x.open), keep(x.shut)
		}
	}
	ord := l.ord[:0]
	for _, h := range l.ord {
		if to[h] != 0 {
			ord = append(ord, to[h]-1)
		}
	}
	clear(l.hv)
	l.ord, l.rank, l.kept = ord, to[:len(l.vals)], len(l.vals)
	for r, h := range ord {
		l.rank[h], l.hv[l.vals[h]] = int32(r), h
	}
}

// fddBuilder is a non-exact table's writer-side diagram state. It
// lives across commits and changes only in commit, under Switch.mu,
// after a batch has validated. Rule ids number the store's records in
// store order (compact keeps that order), so the lower id wins a tie
// exactly as the earlier record does; they follow records by serial,
// so the store's compaction, which moves records, keeps them, and a
// modify, whose record takes the serial of the one it replaces, keeps
// its rule's id. The memo
// maps (level, rule set) to a node of the arena: a commit changes the
// live set and asks for the root again, and every subtree whose set
// did not change is a memo hit, shared with the previous generation.
// The arena only grows: a published generation holds a prefix of it,
// which later commits never write, so publishing stays one pointer
// store. Once dead nodes outnumber the reachable ones, or dead ids the
// live records, compact copies what is live into fresh arrays and the
// next commit stays incremental; only a commit without a diagram drops
// the arena, and the one after it builds cold.
type fddBuilder struct {
	tb    *ctable
	dmask []uint64  // domain mask per key level
	rules []fddRule // by id
	recs  []int32   // by id: the record's index, -1 once dead
	live  []int32   // ids of the store's live records, ascending
	nrec  int       // the store's records at the last sync
	seq   uint32    // the store's next serial at the last sync
	fresh []int32   // sync's records under fresh serials

	nodes []fnode
	meta  []fddMeta        // per node
	sets  []int32          // the nodes' rule sets, back to back
	memo  map[uint64]int32 // fddKey -> node
	work  int              // elementary intervals of the nodes built this commit
	reach int              // nodes reachable from the root this commit published

	lvl   []fddLevel // per level
	alive []int32    // the root's rule set
	mark  []bool     // reached's visited set
}

func newFDDBuilder(tb *ctable) *fddBuilder {
	b := &fddBuilder{tb: tb, lvl: make([]fddLevel, len(tb.kbits)), memo: map[uint64]int32{}}
	for i, kb := range tb.kbits {
		b.dmask = append(b.dmask, maskOf(kb))
		b.lvl[i].hv = map[uint64]int32{}
	}
	return b
}

// commit brings the diagram up to the table's entry store and returns
// the snapshot's matcher state: the records by id — dead ones -1,
// skipped by the scan — and their diagram, or nil when the rule set
// rules one out (masks too scattered, work-budget overflow).
func (b *fddBuilder) commit() ([]int32, *fdd) {
	b.sync()
	dd := b.diagram()
	ents := slices.Clone(b.recs)
	if len(b.nodes) > 2*b.reach || len(b.rules) > 2*len(b.live) {
		b.compact(dd)
	}
	return ents, dd
}

// compact renumbers the live rule ids 0, 1, ... in their order (ties
// still go to the earlier record) and copies the nodes reachable from
// dd's root into a fresh arena, sets and leaf codes renumbered and the
// memo rehashed to point at the copies. The published arena is never
// written (readers may be walking it); the copies are not builds.
func (b *fddBuilder) compact(dd *fdd) {
	for lv := range b.lvl {
		if l := &b.lvl[lv]; len(l.vals) > 2*l.kept {
			l.reintern(b.rules, lv) // a dead rule's lv is nil
		}
	}
	ren := make([]int32, len(b.rules))
	for nid, id := range b.live {
		ren[id] = int32(nid)
		b.rules[nid], b.recs[nid], b.live[nid] = b.rules[id], b.recs[id], int32(nid)
	}
	clear(b.rules[len(b.live):])
	b.rules, b.recs = b.rules[:len(b.live)], b.recs[:len(b.live)]
	if dd == nil || dd.root < 0 {
		return // no node to keep: diagram dropped the arena, or the table has no keys
	}
	// Room for the arena to grow back to its size by the next compaction.
	nodes, meta := make([]fnode, 0, len(b.nodes)), make([]fddMeta, 0, len(b.nodes))
	sets := make([]int32, 0, len(b.sets))
	to := make([]int32, len(b.nodes)) // old node -> copy + 1
	clear(b.memo)
	var cp func(n int32) int32
	cp = func(n int32) int32 {
		if to[n] > 0 {
			return to[n] - 1
		}
		m, next := b.meta[n], slices.Clone(b.nodes[n].next)
		for i, c := range next {
			switch {
			case c >= 0:
				next[i] = cp(c)
			case c != fddMiss:
				next[i] = -ren[-c-2] - 2
			}
		}
		h, off := uint64(0), len(sets)
		for _, id := range b.sets[m.off : m.off+m.n] {
			sets = append(sets, ren[id])
			h += fddMix(ren[id])
		}
		id := int32(len(nodes))
		nodes = append(nodes, fnode{starts: b.nodes[n].starts, next: next, care: b.nodes[n].care})
		meta = append(meta, fddMeta{level: m.level, off: off, n: m.n, work: m.work})
		b.memo[fddKey(m.level, h)] = id
		to[n] = id + 1
		return id
	}
	cp(dd.root)
	b.nodes, b.meta, b.sets = nodes, meta, sets
}

// sync makes live the store's live records. Since the last sync the
// batch deleted records and appended some, past nrec: under fresh
// serials, or a modify's under a live rule's serial, which keeps its id
// and place, and its projection unless the keys or priority changed
// (the old record is still in the arena to say). Fresh rules follow, in
// serial order, so the live list stays in store order.
func (b *fddBuilder) sync() {
	es := b.tb.es
	fresh := b.fresh[:0]
	for ri := int32(b.nrec); ri < int32(len(es.recs)); ri++ {
		if es.next[ri] == recDead {
			continue
		}
		seq := es.recs[ri].seq
		if seq >= b.seq {
			fresh = append(fresh, ri)
			continue
		}
		i, _ := slices.BinarySearchFunc(b.live, seq, func(id int32, seq uint32) int {
			return cmp.Compare(b.rules[id].seq, seq)
		})
		id := b.live[i]
		if !es.sameKeys(b.recs[id], ri) {
			b.reproject(id, ri)
		}
		b.recs[id] = ri
	}
	live := b.live[:0]
	for _, id := range b.live {
		if es.next[b.recs[id]] != recDead {
			live = append(live, id)
		} else {
			b.rules[id], b.recs[id] = fddRule{}, -1
		}
	}
	slices.SortFunc(fresh, func(i, j int32) int { return cmp.Compare(es.recs[i].seq, es.recs[j].seq) })
	for _, ri := range fresh {
		live = append(live, int32(len(b.rules)))
		b.rules, b.recs = append(b.rules, b.project(&es.arena, &es.recs[ri])), append(b.recs, ri)
	}
	b.live, b.fresh, b.nrec, b.seq = live, fresh, len(es.recs), es.seq
	for lv := range b.lvl {
		b.lvl[lv].order()
	}
}

// reproject projects rule id again from record ri, a modify's that
// changed its keys or priority. The memo forgets every node whose set
// holds id: they answer for the old projection.
func (b *fddBuilder) reproject(id, ri int32) {
	b.rules[id] = b.project(&b.tb.es.arena, &b.tb.es.recs[ri])
	for k, n := range b.memo {
		if m := &b.meta[n]; slices.Contains(b.sets[m.off:m.off+m.n], id) {
			delete(b.memo, k)
		}
	}
}

// project reads one record's key at each level; a key that can never
// match leaves the values named before it to the next compaction.
func (b *fddBuilder) project(ar *arena, rec *erec) fddRule {
	tb, r := b.tb, fddRule{seq: rec.seq}
	if rec.nkeys != uint32(len(tb.keys)) {
		return r
	}
	r.lv = make([]fddLv, len(tb.kbits))
	for lv := range r.lv {
		kv := ar.key(rec, lv)
		lo, hi, mask := projIval(tb.kinds[lv], &kv, tb.kbits[lv], int(rec.prio), &r.score)
		if hi = min(hi, b.dmask[lv]); lo > hi {
			return fddRule{seq: rec.seq}
		}
		open, shut := b.lvl[lv].span(lo, hi, b.dmask[lv])
		r.lv[lv] = fddLv{open, shut, lo, mask}
	}
	return r
}

// diagram asks the memo for the root of the live rule set and checks
// the whole reachable diagram against the work budget, so that whether
// a table has a diagram depends on its rule set, never on its history.
// Without one, the arena is dropped: the next commit starts cold.
func (b *fddBuilder) diagram() *fdd {
	var h uint64
	b.alive = b.alive[:0]
	for _, id := range b.live {
		if b.rules[id].lv != nil {
			b.alive = append(b.alive, id)
			h += fddMix(id)
		}
	}
	b.work = 0
	if root, ok := b.child(0, b.alive, h); ok {
		b.mark = append(b.mark[:0], make([]bool, len(b.nodes))...)
		var work int
		if b.reach, work = b.reached(root); work <= fddMaxWork {
			return &fdd{nodes: b.nodes[:len(b.nodes):len(b.nodes)], root: root}
		}
	}
	b.nodes, b.meta, b.sets, b.reach = nil, nil, nil, 0
	clear(b.memo)
	return nil
}

// reached counts the nodes reachable from n and sums their work.
func (b *fddBuilder) reached(n int32) (nodes, work int) {
	if n < 0 || b.mark[n] {
		return 0, 0
	}
	b.mark[n] = true
	m := &b.meta[n]
	nodes, work = 1, m.work
	if m.level+1 < len(b.dmask) {
		for _, c := range b.nodes[n].next {
			cn, cw := b.reached(c)
			nodes, work = nodes+cn, work+cw
		}
	}
	return nodes, work
}

// fddMix spreads a rule id over 64 bits (the splitmix64 finalizer); a
// set's memo hash is the sum over its ids, so a sweep updates it in
// O(1) as rules enter and leave.
func fddMix(id int32) uint64 {
	z := uint64(id) + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// projIval projects one rule key onto its field domain: the interval
// [lo, hi] it covers under its own mask (it can never match when lo
// exceeds hi or the domain), and the bits it tests (mask: the whole
// domain but for a ternary key). It folds the key's score contribution
// into *score exactly like the reference loop (ternary/range subtract
// the priority, LPM overwrites with the prefix length, exact and a kind
// the loop does not know, which matches any key, are neutral).
func projIval(kind p4.MatchKind, kv *p4.KeyValue, kbits, prio int, score *int) (lo, hi, mask uint64) {
	dmask := maskOf(kbits)
	lo, hi, mask = 0, dmask, dmask
	switch kind {
	case p4.MatchExact:
		lo, hi = kv.Value, kv.Value
	case p4.MatchLPM:
		plen := max(kv.PrefixLen, 0)
		if plen > kbits {
			return 1, 0, mask // reference: plen wider than the key never matches
		}
		if *score = plen; plen > 0 {
			shift := uint(kbits - plen)
			lo = kv.Value >> shift << shift
			hi = lo | (uint64(1)<<shift - 1)
		}
	case p4.MatchTernary:
		// Under its own mask the key is one interval: the bits below the
		// lowest tested one are free (all of them when none is tested).
		*score -= prio
		lo, mask = kv.Value&kv.Mask, kv.Mask&dmask
		hi = lo | (mask&-mask-1)&dmask
	case p4.MatchRange:
		*score -= prio
		lo, hi = kv.Value, kv.Hi
	}
	return lo, hi, mask
}

// child returns the node for a rule set one level down — from the
// memo when the arena holds it, else freshly — or,
// past the last level, the set's leaf. h is the set's hash.
func (b *fddBuilder) child(level int, set []int32, h uint64) (int32, bool) {
	if level == len(b.dmask) {
		return b.leaf(set), true
	}
	k := fddKey(level, h)
	if id, ok := b.memo[k]; ok {
		if m := &b.meta[id]; m.level == level && slices.Equal(b.sets[m.off:m.off+m.n], set) {
			return id, true
		}
	}
	id, ok := b.node(level, set)
	if ok {
		b.memo[k] = id
	}
	return id, ok
}

// node builds the decision node of one level's rule set by a sweep over
// its interval endpoints in value order: the rules active in each
// elementary interval are that interval's child set, and adjacent
// intervals with the same child merge. The node reads the key under
// care, the bits its rules test, and a rule that leaves some of them
// free covers one interval per setting of those bits.
func (b *fddBuilder) node(level int, alive []int32) (int32, bool) {
	sc, dmask, care := &b.lvl[level], b.dmask[level], uint64(0)
	for _, id := range alive {
		care |= b.rules[id].lv[level].mask
	}
	xe := sc.xe[:0]
	ends := func(p int32, open, shut int32) {
		if xe = append(xe, [2]int32{p, open}); shut >= 0 {
			xe = append(xe, [2]int32{^p, shut})
		}
	}
	for p, id := range alive {
		x := &b.rules[id].lv[level]
		low := x.mask&-x.mask - 1
		switch free := care &^ x.mask &^ low; {
		case free == 0:
			ends(int32(p), x.open, x.shut)
		case bits.OnesCount64(free) > fddMaxFreeBits:
			return 0, false
		default:
			for s := uint64(0); ; s = (s - free) & free {
				open, shut := sc.span(x.val|s, x.val|s|low, dmask)
				if ends(int32(p), open, shut); s == free {
					break
				}
			}
		}
	}
	sc.xe = xe
	sc.order() // the values a free bit named may be new
	if n := len(sc.ord); len(sc.head) < n {
		sc.head, sc.marks = make([]int32, n), make([]uint64, (n+63)/64)
	}
	ev, head, marks := sc.ev[:0], sc.head, sc.marks[:(len(sc.ord)+63)/64]
	for _, x := range xe {
		r := sc.rank[x[1]]
		ev = append(ev, fddEvent{x[0], head[r]})
		head[r] = int32(len(ev))
		marks[r>>6] |= 1 << (r & 63)
	}
	sc.ev = ev
	// One run per endpoint value, in order, after an empty one at 0
	// unless some endpoint is there: one run per elementary interval.
	runs := append(sc.runs[:0], fddRun{})
	for wi, w := range marks {
		for ; w != 0; w &= w - 1 {
			r := wi<<6 | bits.TrailingZeros64(w)
			runs = append(runs, fddRun{sc.vals[sc.ord[r]], head[r]})
			head[r] = 0
		}
		marks[wi] = 0
	}
	if sc.runs = runs; len(runs) > 1 && runs[1].at == 0 {
		runs = runs[1:]
	}
	if b.work += len(runs); b.work > fddMaxWork {
		return 0, false
	}
	// The active set is a bitset over positions in alive, so it reads
	// out in id order; a rule's intervals are disjoint, so its events
	// toggle it, whatever their order within one value.
	words := append(sc.words[:0], make([]uint64, (len(alive)+63)/64)...)
	sc.words = words
	cs, cn := sc.cs[:0], sc.cn[:0]
	var h uint64
	for _, run := range runs {
		for i := run.first; i != 0; i = ev[i-1].next {
			if p := ev[i-1].p; p >= 0 {
				h += fddMix(alive[p])
				words[p>>6] ^= 1 << (p & 63)
			} else {
				h -= fddMix(alive[^p])
				words[^p>>6] ^= 1 << (^p & 63)
			}
		}
		sub := sc.sub[:0]
		for wi, w := range words {
			for ; w != 0; w &= w - 1 {
				sub = append(sub, alive[wi<<6|bits.TrailingZeros64(w)])
			}
		}
		sc.sub = sub
		child, ok := b.child(level+1, sub, h)
		if !ok {
			return 0, false
		}
		if len(cn) == 0 || cn[len(cn)-1] != child {
			cs, cn = append(cs, run.at), append(cn, child)
		}
	}
	sc.cs, sc.cn = cs, cn
	id := int32(len(b.nodes))
	b.nodes = append(b.nodes, fnode{starts: slices.Clone(cs), next: slices.Clone(cn), care: care})
	b.meta = append(b.meta, fddMeta{level: level, off: len(b.sets), n: len(alive), work: len(runs)})
	b.sets = append(b.sets, alive...)
	b.tb.builds++
	return id, true
}

// leaf picks the winner among the alive rules: best static score,
// lowest id on ties — exactly the scan's matched-flag loop with its
// strict > comparison.
func (b *fddBuilder) leaf(alive []int32) int32 {
	win, best := fddMiss, 0
	for _, id := range alive {
		if sc := b.rules[id].score; win == fddMiss || sc > best {
			win, best = -id-2, sc
		}
	}
	return win
}
