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
// Eligibility is conservative and decided once, at build time: every
// key expression must have a statically-known width (staticBits in
// compile.go mirrors the ops.go width rules; ctable.apply stamps that
// width on each key it matches, so the width a diagram was built for
// is the width it is walked with) and every rule must expand to a
// bounded set of intervals per field (ternary masks with many free
// high bits explode combinatorially). A table that fails either gets
// no diagram and matches by ctable.scan. Where a diagram exists its
// leaf is the answer, as in the NetKAT compiler; the fuzzers in
// fdd_test.go hold it to scan and to the reference interpreter.

import (
	"math/bits"
	"sort"

	"netcl/internal/p4"
)

const (
	// fddMaxWork bounds total interval edges examined during a build;
	// overflow abandons the diagram (scan fallback), never the table.
	fddMaxWork = 1 << 16
	// fddMaxFreeBits bounds non-contiguous ternary masks: a rule may
	// enumerate at most 2^fddMaxFreeBits intervals per field.
	fddMaxFreeBits = 6
)

// Leaf codes share the child namespace with node indices: child >= 0
// is a node, fddMiss is "no entry matched", and any other negative
// value encodes a winning entry index as -(idx)-2.
const fddMiss = int32(-1)

// fnode is one decision level: starts[i] opens the half-open
// elementary interval [starts[i], starts[i+1]) (the last runs to the
// end of the field's domain), and next[i] is its child or leaf code.
// starts[0] is always 0, so every key value lands in some interval.
type fnode struct {
	starts []uint64
	next   []int32
}

// fdd is the compiled diagram of one table's rule set.
type fdd struct {
	nodes []fnode
	root  int32 // node index or leaf code (rule-free tables)
}

// match walks the diagram to the winning entry, or nil on a miss.
func (f *fdd) match(keys []val, ents []centry) *centry {
	n := f.root
	for lvl := 0; n >= 0; lvl++ {
		nd := &f.nodes[n]
		v := keys[lvl].v
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
		return nil
	}
	return &ents[-n-2]
}

// fddIval is one closed interval [lo, hi] of key values.
type fddIval struct{ lo, hi uint64 }

// fddRule is one diagram-eligible entry: its store index, the static
// score the reference loop would assign it, and its per-level interval
// expansion.
type fddRule struct {
	ent   int32
	score int
	iv    [][]fddIval
}

type fddBuilder struct {
	dmask []uint64 // domain mask per key level
	rules []fddRule
	nodes []fnode
	work  int
	memo  map[string]int32
}

// buildFDD compiles sn.ents into a diagram, or returns nil when the
// table is ineligible (dynamic key widths, unrepresentable masks,
// work-budget overflow). Called from ctable.build under the writer
// mutex; the result is immutable once published.
func buildFDD(tb *ctable, sn *tsnap) *fdd {
	if !tb.kstatic {
		return nil
	}
	b := &fddBuilder{
		dmask: make([]uint64, len(tb.kbits)),
		memo:  map[string]int32{},
	}
	for i, kb := range tb.kbits {
		b.dmask[i] = maskOf(kb)
	}
	for i := range sn.ents {
		ce := &sn.ents[i]
		if !ce.eligible {
			continue
		}
		r := fddRule{ent: int32(i), iv: make([][]fddIval, len(tb.kbits))}
		dead := false
		for ki := range ce.e.Keys {
			ivs, ok := projIvals(tb.kinds[ki], &ce.e.Keys[ki], tb.kbits[ki], ce.e.Priority, &r.score)
			if !ok {
				return nil // unrepresentable: whole table falls back
			}
			if len(ivs) == 0 {
				dead = true // this rule can never match
				break
			}
			r.iv[ki] = ivs
		}
		if !dead {
			b.rules = append(b.rules, r)
		}
	}
	alive := make([]int32, len(b.rules))
	for i := range alive {
		alive[i] = int32(i)
	}
	root, ok := b.node(0, alive)
	if !ok {
		return nil
	}
	return &fdd{nodes: b.nodes, root: root}
}

// projIvals projects one rule key onto its field domain as disjoint
// intervals, folding the key's score contribution into *score exactly
// like the reference loop (ternary/range subtract the priority, LPM
// overwrites with the prefix length, exact is neutral). ok=false means
// the key cannot be represented (too many intervals); an empty result
// with ok=true means the key can never match.
func projIvals(kind p4.MatchKind, kv *p4.KeyValue, kbits, prio int, score *int) ([]fddIval, bool) {
	dmask := maskOf(kbits)
	switch kind {
	case p4.MatchExact:
		if kv.Value > dmask {
			return nil, true
		}
		return []fddIval{{kv.Value, kv.Value}}, true
	case p4.MatchLPM:
		plen := kv.PrefixLen
		if plen < 0 {
			plen = 0
		}
		if plen > kbits {
			return nil, true // reference: plen wider than the key never matches
		}
		*score = plen
		if plen == 0 {
			return []fddIval{{0, dmask}}, true
		}
		shift := uint(kbits - plen)
		hb := kv.Value >> shift
		if hb > dmask>>shift {
			return nil, true // prefix lies outside the key domain
		}
		lo := hb << shift
		return []fddIval{{lo, lo | (uint64(1)<<shift - 1)}}, true
	case p4.MatchTernary:
		*score -= prio
		c := kv.Value & kv.Mask
		if c&^dmask != 0 {
			return nil, true // required bits outside the key domain
		}
		me := kv.Mask & dmask
		if me == 0 {
			return []fddIval{{0, dmask}}, true
		}
		low := bits.TrailingZeros64(me)
		lowMask := uint64(1)<<uint(low) - 1
		freeHigh := ^me & dmask &^ lowMask
		if bits.OnesCount64(freeHigh) > fddMaxFreeBits {
			return nil, false
		}
		var ivs []fddIval
		s := uint64(0)
		for {
			base := c | s
			ivs = append(ivs, fddIval{base, base | lowMask})
			if s == freeHigh {
				return ivs, true
			}
			s = (s - freeHigh) & freeHigh
		}
	case p4.MatchRange:
		*score -= prio
		if kv.Value > dmask || kv.Hi < kv.Value {
			return nil, true
		}
		hi := kv.Hi
		if hi > dmask {
			hi = dmask
		}
		return []fddIval{{kv.Value, hi}}, true
	}
	return nil, false
}

// node builds (or reuses, via the memo) the decision node for the
// alive rule set at one level. Memoization on (level, alive) merges
// isomorphic subtrees into a DAG, which is what keeps diagrams of
// overlapping rules compact.
func (b *fddBuilder) node(level int, alive []int32) (int32, bool) {
	if level == len(b.dmask) {
		return b.leaf(alive), true
	}
	key := memoKey(level, alive)
	if id, ok := b.memo[key]; ok {
		return id, true
	}
	// Elementary interval boundaries: 0 plus every alive endpoint.
	starts := []uint64{0}
	for _, r := range alive {
		for _, iv := range b.rules[r].iv[level] {
			starts = append(starts, iv.lo)
			if iv.hi < b.dmask[level] {
				starts = append(starts, iv.hi+1)
			}
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	starts = dedupU64(starts)
	b.work += len(starts)
	if b.work > fddMaxWork {
		return 0, false
	}
	var cs []uint64
	var cn []int32
	var sub []int32
	for _, s := range starts {
		sub = sub[:0]
		for _, r := range alive {
			if ivalsContain(b.rules[r].iv[level], s) {
				sub = append(sub, r)
			}
		}
		child, ok := b.node(level+1, sub)
		if !ok {
			return 0, false
		}
		if len(cn) > 0 && cn[len(cn)-1] == child {
			continue // merge adjacent intervals with identical children
		}
		cs = append(cs, s)
		cn = append(cn, child)
	}
	id := int32(len(b.nodes))
	b.nodes = append(b.nodes, fnode{starts: cs, next: cn})
	b.memo[key] = id
	return id, true
}

// leaf picks the winner among the alive rules: best static score,
// earliest store index on ties — exactly the scan's matched-flag loop
// with its strict > comparison.
func (b *fddBuilder) leaf(alive []int32) int32 {
	win := fddMiss
	best := 0
	matched := false
	for _, r := range alive {
		if sc := b.rules[r].score; !matched || sc > best {
			matched = true
			best = sc
			win = -b.rules[r].ent - 2
		}
	}
	return win
}

func ivalsContain(ivs []fddIval, v uint64) bool {
	for _, iv := range ivs {
		if v >= iv.lo && v <= iv.hi {
			return true
		}
	}
	return false
}

func dedupU64(s []uint64) []uint64 {
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// memoKey encodes (level, alive set) compactly.
func memoKey(level int, alive []int32) string {
	buf := make([]byte, 0, 1+4*len(alive))
	buf = append(buf, byte(level))
	for _, r := range alive {
		buf = append(buf, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
	}
	return string(buf)
}
