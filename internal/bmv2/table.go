package bmv2

// table.go gives each match-action table one matcher, in one of two
// snapshot shapes. All-exact-key tables (the CACHE and CALC dispatch
// pattern) hold a persistent hash trie. Everything else — LPM,
// ternary, range, mixed — holds its entry records and a forwarding
// decision diagram over them (fdd.go), whose leaf is the answer; when
// no diagram can be built (scattered ternary masks, work-budget
// overflow, dynamic key widths) the snapshot carries none and the
// table matches by the linear scan, the reference loop restated over
// the records. That choice is made at build time, per snapshot,
// by dd == nil; nothing is decided per packet. The snapshot (tsnap)
// is immutable and lives inside a program-wide generation behind
// one atomic pointer, RCU style: the data path pins the generation
// with a single atomic read at packet start and never takes a lock,
// while control-plane mutations build fresh snapshots under the
// switch's writer mutex and publish one new generation atomically.
// Because the whole rule set swaps in a single pointer store, a packet
// observes either the pre-batch or the post-batch rules of every table
// — never a mix (the transactional guarantee of Switch.Write).
//
// A table's keys are a plan, not closures: the slot each key value
// sits in (with its static width, when it has one), after a small code
// block for key expressions that are more than a field or a cast.
//
// Both shapes are updated incrementally. An exact snapshot holds a
// persistent map (pmap.go), so applying a one-entry delta costs
// O(log n) path copies instead of an O(table) rebuild. A non-exact
// table keeps its diagram builder across commits (fdd.go): a batch
// marks it dirty, and the commit re-derives only the diagram nodes
// whose rule set the batch changed, sharing the rest with the previous
// generation.

import (
	"cmp"
	"fmt"
	"slices"

	"netcl/internal/p4"
)

// maxExactKeys bounds the width of the exact-index tuple key.
const maxExactKeys = 4

// cact is an action name resolved in a table's control: a nil a is
// NoAction, or, with unknown set, a name the control lacks (an error
// when a packet hits it).
type cact struct {
	a       *caction
	name    string
	unknown bool
}

// tsnap is one immutable published matcher state. Everything the data
// path needs to match and act is in here; nothing in a published tsnap
// is ever mutated again. Both shapes name the entry store's records by
// index into ar, the arena prefix the snapshot was built with: exact
// tables through the persistent map pm, the others through ents and
// its diagram.
//
// Before publication a snapshot staged by a batch carries that batch's
// ownership token, letting later ops of the same batch update it in
// place instead of re-copying the struct per op. Publication drops the
// token reference on the caller side, so the next batch sees a foreign
// owner and copies.
type tsnap struct {
	pm   *pnode  // exact: tuple -> record (persistent)
	ents []int32 // non-exact: record by rule id (store order; -1 once dead)
	dd   *fdd    // decision diagram over ents (fdd.go); nil = scan
	ar   arena
	acts []cact // the store's action names, resolved

	def     cact
	defArgs []uint64

	owner *powner // batch that may still edit this snapshot
}

// withPM rebinds the matcher root over the store's current arena,
// copying the snapshot unless it is already privately owned by token o.
func (tb *ctable) withPM(sn *tsnap, pm *pnode, o *powner) *tsnap {
	if o == nil || sn.owner != o {
		cp := *sn
		sn, cp.owner = &cp, o
	}
	sn.pm, sn.ar, sn.acts = pm, tb.es.arena, tb.resolve()
	return sn
}

// generation is the program-wide rule-set version: one snapshot per
// compiled table, indexed by the table's gslot. Published as a whole
// behind cprog.gen, so multi-table batches swap atomically.
type generation struct {
	snaps []*tsnap
}

// ctable is a compiled match-action table.
type ctable struct {
	name string
	es   *entrySet // the entry store, shared by every table of this name
	ctl  *cctl
	t    *p4.Table
	// Key plan: keyCode evaluates the key expressions that are more
	// than a field or a cast of one (empty otherwise); keys then names
	// the slot each key value sits in, kbits its width.
	keyCode span
	keys    []int32
	kbits   []int
	kinds   []p4.MatchKind
	exact   bool // snapshot shape: the hash trie, else entries + diagram
	gslot   int  // index of this table's snapshot in a generation
	acts    []cact

	// fb holds a non-exact table's entries and diagram across commits.
	fb *fddBuilder
	// builds counts what commits built from scratch. Non-exact: the
	// diagram nodes; one batch commits once, whatever its op count, and
	// builds only the nodes whose rule set it changed (pinned by
	// TestBatchRebuildAmortized and TestBatchNodesODelta). Exact: the
	// full trie builds, which only New makes.
	builds uint64
}

// table compiles the static shape of one table (key plan at
// apply-level scope, matcher choice). Entries are materialized later
// by build, once action instances exist.
func (cc *compiler) table(ctl *cctl, t *p4.Table) (*ctable, error) {
	tb := &ctable{name: t.Name, es: cc.s.entries[t.Name], ctl: ctl, t: t}
	tb.keyCode.start = cc.here()
	exprs := make([]p4.Expr, len(t.Keys))
	for i, k := range t.Keys {
		exprs[i] = k.Expr
	}
	keys, err := cc.operands(ctl.c, nil, exprs)
	if err != nil {
		return nil, err
	}
	for i, o := range keys {
		tb.keys = append(tb.keys, o.slot)
		tb.kinds = append(tb.kinds, t.Keys[i].Match)
		tb.kbits = append(tb.kbits, o.bits)
	}
	tb.keyCode.end = cc.here()
	tb.exact = len(t.Keys) >= 1 && len(t.Keys) <= maxExactKeys && t.AllExact()
	if !tb.exact {
		tb.fb = newFDDBuilder(tb)
	}
	tb.gslot = len(cc.p.tabs)
	cc.p.tabs = append(cc.p.tabs, tb)
	return tb, nil
}

// resolveName resolves one action name in the table's control.
func (tb *ctable) resolveName(name string) cact {
	if name == "NoAction" {
		return cact{}
	}
	a := tb.ctl.actions[name]
	return cact{a: a, name: name, unknown: a == nil}
}

// resolve brings the table's resolutions of the store's interned names
// up to date. Names are only appended, so a published snapshot's
// prefix of acts is never written again.
func (tb *ctable) resolve() []cact {
	for _, n := range tb.es.names[len(tb.acts):] {
		tb.acts = append(tb.acts, tb.resolveName(n))
	}
	return tb.acts
}

// compileDefault resolves the table's current default action into sn.
func (tb *ctable) compileDefault(sn *tsnap) {
	sn.def, sn.defArgs = cact{}, nil
	if d := tb.t.Default; d != nil {
		sn.def, sn.defArgs = tb.resolveName(d.Name), d.Args
	}
}

// build materializes a fresh snapshot from the table's entry store and
// its current default action. It has two callers: compile time, and
// Write's commit (under the switch's writer mutex) for tables a batch
// could not update in place — never the data path. The caller
// publishes the result.
func (tb *ctable) build() *tsnap {
	es := tb.es
	sn := &tsnap{ar: es.arena, acts: tb.resolve()}
	if tb.exact {
		// The eligible records in path order, then the first-inserted
		// of each tuple (the strict score comparison of the linear scan).
		ls := make([]pent, 0, es.live)
		for i := range es.recs {
			if es.next[i] != recDead && es.recs[i].nkeys == uint32(len(tb.keys)) {
				ls = append(ls, pent{phash(es.tuple(int32(i))), int32(i)})
			}
		}
		slices.SortFunc(ls, func(a, b pent) int {
			if a.h != b.h {
				return cmp.Compare(a.h, b.h)
			}
			ta, tb := es.tuple(a.rec), es.tuple(b.rec)
			return cmp.Or(slices.Compare(ta[:], tb[:]), cmp.Compare(a.rec, b.rec))
		})
		ls = slices.CompactFunc(ls, func(a, b pent) bool { return a.h == b.h && es.tuple(a.rec) == es.tuple(b.rec) })
		if len(ls) > 0 {
			sn.pm = pbuild(ls, 0, &es.arena, &pslab{})
		}
		tb.builds++
	} else {
		sn.ents, sn.dd = tb.fb.commit()
	}
	tb.compileDefault(sn)
	return sn
}

// relabel returns the staged snapshot sn over the store's compacted
// arena, to mapping each old record index to its new one: the trie is
// copied with its leaves renamed, the diagram's records (and its
// builder's) renamed; the diagram names rules, not records, and stays.
// Nothing sn holds is written.
func (tb *ctable) relabel(sn *tsnap, to []int32) *tsnap {
	cp := *sn
	cp.ar, cp.acts, cp.owner = tb.es.arena, tb.resolve(), nil
	if tb.exact && sn.pm != nil {
		cp.pm = premap(sn.pm, to, &pslab{})
	} else if !tb.exact {
		cp.ents = rename(slices.Clone(sn.ents), to)
		tb.fb.recs, tb.fb.nrec = rename(tb.fb.recs, to), len(tb.es.recs)
	}
	return &cp
}

// rename maps record indices through to in place; -1 (dead) stays.
func rename(recs, to []int32) []int32 {
	for i, ri := range recs {
		if ri >= 0 {
			recs[i] = to[ri]
		}
	}
	return recs
}

// deltaInsert returns the snapshot after binding record idx's tuple:
// kept by an existing binding, unless replace (the modify op). Exact
// tables path-copy the persistent map in O(log n); other kinds report
// needing a full build by returning nil.
func (tb *ctable) deltaInsert(old *tsnap, idx int32, replace bool, o *powner) *tsnap {
	if !tb.exact {
		return nil
	}
	if tb.es.recs[idx].nkeys != uint32(len(tb.keys)) {
		// Can never match an exact table, nor did what a modify replaced
		// (its key arity is the same).
		return old
	}
	k := keyOf(tb.es.tuple(idx))
	pm, changed := pinsert(old.pm, 0, &k, idx, replace, o, &tb.es.arena)
	if !changed {
		return old // duplicate tuple: first-inserted keeps winning
	}
	return tb.withPM(old, pm, o)
}

// deltaDelete returns the snapshot after removing every entry matching
// the full key tuple. Exact tables path-copy in O(log n); other kinds
// return nil to request a full build.
func (tb *ctable) deltaDelete(old *tsnap, keyVals []uint64, o *powner) *tsnap {
	if !tb.exact {
		return nil
	}
	if len(keyVals) != len(tb.keys) {
		return old // arity mismatch only ever hits ineligible entries
	}
	var k pkey
	copy(k.t[:], keyVals)
	k.h = phash(k.t)
	pm, removed := pdelete(old.pm, 0, &k, o, &tb.es.arena)
	if !removed {
		return old
	}
	return tb.withPM(old, pm, o)
}

// deltaDefault returns the snapshot with the default action recompiled
// from the table's (already updated) declaration — O(1) for every
// kind, sharing the matcher state.
func (tb *ctable) deltaDefault(old *tsnap) *tsnap {
	sn := *old
	tb.compileDefault(&sn)
	return &sn
}

// apply matches and executes the table on the current machine state,
// reading the matcher snapshot pinned in the machine's generation.
func (tb *ctable) apply(m *machine) (bool, error) {
	sn := m.gen.snaps[tb.gslot]
	if tb.keyCode.end > tb.keyCode.start {
		// Key expressions fold their own errors; nothing surfaces here.
		if err := m.exec(tb.keyCode.start, tb.keyCode.end); err != nil {
			return false, err
		}
	}

	var ri int32
	if tb.exact {
		var k pkey
		for i, slot := range tb.keys {
			k.t[i] = m.frame[slot]
		}
		k.h = phash(k.t)
		ri = pget(sn.pm, &k, &sn.ar)
	} else {
		keys := m.keys[:0]
		for _, slot := range tb.keys {
			keys = append(keys, m.frame[slot])
		}
		m.keys = keys
		if sn.dd != nil {
			ri = sn.dd.match(keys, sn.ents)
		} else {
			ri = tb.scan(sn, keys)
		}
	}

	act, args := sn.def, sn.defArgs
	if ri >= 0 {
		r := &sn.ar.recs[ri]
		if r.act == actNone {
			return true, nil
		}
		act, args = sn.acts[r.act], sn.ar.args(r)
	}
	if act.unknown {
		if ri < 0 {
			return false, fmt.Errorf("unknown default action %q", act.name)
		}
		return false, fmt.Errorf("unknown action %q", act.name)
	}
	if act.a != nil {
		if err := act.a.invoke(m, args); err != nil {
			return false, err
		}
	}
	return ri >= 0, nil
}

// scan is the linear matcher of snapshots without a diagram —
// semantically identical to the reference applyTable loop, including
// "no match" (best < 0) kept apart from "matched with score 0". It
// returns the winning record, or -1.
func (tb *ctable) scan(sn *tsnap, keys []uint64) int32 {
	best := int32(-1)
	bestScore := 0
	for _, ri := range sn.ents {
		if ri < 0 || sn.ar.recs[ri].nkeys != uint32(len(keys)) {
			continue
		}
		r := &sn.ar.recs[ri]
		ok := true
		score := 0
		for ki := range keys {
			kv := sn.ar.key(r, ki)
			kval := keys[ki]
			switch tb.kinds[ki] {
			case p4.MatchExact:
				if kval != kv.Value {
					ok = false
				}
			case p4.MatchTernary:
				if kval&kv.Mask != kv.Value&kv.Mask {
					ok = false
				}
				score -= int(r.prio)
			case p4.MatchLPM:
				bits := tb.kbits[ki]
				plen := kv.PrefixLen
				if plen < 0 {
					plen = 0
				}
				if plen > bits {
					ok = false
					break
				}
				shift := uint(bits - plen)
				if plen == 0 || kval>>shift == kv.Value>>shift {
					score = plen
				} else {
					ok = false
				}
			case p4.MatchRange:
				if kval < kv.Value || kval > kv.Hi {
					ok = false
				}
				score -= int(r.prio)
			}
			if !ok {
				break
			}
		}
		if ok && (best < 0 || score > bestScore) {
			best = ri
			bestScore = score
		}
	}
	return best
}
