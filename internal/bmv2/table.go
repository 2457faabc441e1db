package bmv2

// table.go gives each match-action table one matcher, in one of two
// snapshot shapes. All-exact-key tables (the CACHE and CALC dispatch
// pattern) hold a persistent hash trie. Everything else — LPM,
// ternary, range, mixed — holds its compiled entries and a forwarding
// decision diagram over them (fdd.go), whose leaf is the answer; when
// no diagram can be built (scattered ternary masks, work-budget
// overflow, dynamic key widths) the snapshot carries none and the
// table matches by the linear scan, the reference loop restated over
// compiled entries. That choice is made at build time, per snapshot,
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
	"fmt"

	"netcl/internal/p4"
)

// maxExactKeys bounds the width of the exact-index tuple key.
const maxExactKeys = 4

// centry is a compiled table entry: the action resolved to an
// apply-level instance and the argument vals materialized once.
type centry struct {
	e        *p4.Entry
	act      *caction // nil for NoAction / missing action call
	args     []uint64
	unknown  bool // the entry's action name failed to resolve
	eligible bool // len(e.Keys) matches the table's key count
}

// tsnap is one immutable published matcher state. Everything the data
// path needs to match and act is in here; nothing in a published tsnap
// is ever mutated again. Exact tables use the persistent map pm;
// the others use the materialized entry slice and its diagram.
//
// Before publication a snapshot staged by a batch carries that batch's
// ownership token, letting later ops of the same batch update it in
// place instead of re-copying the struct per op. Publication drops the
// token reference on the caller side, so the next batch sees a foreign
// owner and copies.
type tsnap struct {
	pm   *pnode   // exact: tuple -> compiled entry (persistent)
	ents []centry // non-exact: compiled entries by rule id (store order; dead ids zero)
	dd   *fdd     // decision diagram over ents (fdd.go); nil = scan

	defAct     *caction
	defArgs    []uint64
	defUnknown bool   // the default action name failed to resolve
	defName    string // its name, for the error text

	owner *powner // batch that may still edit this snapshot
}

// withPM rebinds the matcher root, copying the snapshot unless it is
// already privately owned by token o.
func (sn *tsnap) withPM(pm *pnode, o *powner) *tsnap {
	if o != nil && sn.owner == o {
		sn.pm = pm
		return sn
	}
	cp := *sn
	cp.pm = pm
	cp.owner = o
	return &cp
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
	sw   *Switch
	ctl  *cctl
	t    *p4.Table
	// Key plan: keyCode evaluates the key expressions that are more
	// than a field or a cast of one (empty otherwise); keys then names
	// the slot each key value sits in and, when static, its width.
	keyCode span
	keys    []tkey
	kinds   []p4.MatchKind
	exact   bool // snapshot shape: the hash trie, else entries + diagram
	gslot   int  // index of this table's snapshot in a generation

	// kbits/kstatic: statically inferred key widths (fdd.go). The
	// decision diagram is built only when every key width is static.
	// fb holds a non-exact table's entries and diagram across commits.
	kbits   []int
	kstatic bool
	fb      *fddBuilder
	// builds counts the diagram nodes built — the cost model of a
	// non-exact commit: one batch commits once, whatever its op count,
	// and builds only the nodes whose rule set it changed (pinned by
	// TestBatchRebuildAmortized and TestBatchNodesODelta).
	builds uint64
}

// tkey is one table key operand.
type tkey struct {
	slot int32
	bits int32 // static width, or -1: the slot's run-time width
}

// table compiles the static shape of one table (key plan at
// apply-level scope, matcher choice). Entries are materialized later
// by build, once action instances exist.
func (cc *compiler) table(ctl *cctl, t *p4.Table) (*ctable, error) {
	tb := &ctable{name: t.Name, sw: cc.s, ctl: ctl, t: t, kstatic: true}
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
		tk := tkey{slot: o.slot, bits: -1}
		if o.static {
			tk.bits = int32(o.bits)
		}
		tb.keys = append(tb.keys, tk)
		tb.kinds = append(tb.kinds, t.Keys[i].Match)
		tb.kbits = append(tb.kbits, o.bits)
		tb.kstatic = tb.kstatic && o.static
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

// tupleOf extracts the exact-index map key of an entry.
func tupleOf(e *p4.Entry) [maxExactKeys]uint64 {
	var k [maxExactKeys]uint64
	for i := 0; i < len(e.Keys) && i < maxExactKeys; i++ {
		k[i] = e.Keys[i].Value
	}
	return k
}

// tupleOfVals zero-pads a key-value tuple into the exact-index key.
func tupleOfVals(vals []uint64) [maxExactKeys]uint64 {
	var k [maxExactKeys]uint64
	for i := 0; i < len(vals) && i < maxExactKeys; i++ {
		k[i] = vals[i]
	}
	return k
}

// compileEntry resolves one entry against the control's apply-level
// action instances.
func (tb *ctable) compileEntry(e *p4.Entry) centry {
	ce := centry{e: e, eligible: len(e.Keys) == len(tb.keys)}
	if e.Action != nil && e.Action.Name != "NoAction" {
		a := tb.ctl.actions[e.Action.Name]
		if a == nil {
			ce.unknown = true
		} else {
			ce.act, ce.args = a, e.Action.Args
		}
	}
	return ce
}

// compileDefault resolves the table's current default action into sn.
func (tb *ctable) compileDefault(sn *tsnap) {
	sn.defAct, sn.defArgs, sn.defUnknown, sn.defName = nil, nil, false, ""
	if d := tb.t.Default; d != nil && d.Name != "NoAction" {
		a := tb.ctl.actions[d.Name]
		if a == nil {
			sn.defUnknown, sn.defName = true, d.Name
		} else {
			sn.defAct, sn.defArgs = a, d.Args
		}
	}
}

// build materializes a fresh snapshot from the switch's current entry
// store and the table's current default action. It has two callers:
// compile time, and Write's commit (under the switch's writer mutex)
// for non-exact tables a batch touched — never the data path. The
// caller publishes the result.
func (tb *ctable) build() *tsnap {
	sn := &tsnap{}
	es := tb.sw.entries[tb.name]
	if tb.exact {
		if es != nil {
			// One token for the whole build: every trie node is owned by
			// this loop, so inserts edit in place instead of path-copying
			// n times. The token goes out of scope with the build, freezing
			// the result.
			o := &powner{}
			for _, e := range es.ents {
				if e == nil {
					continue
				}
				ce := tb.compileEntry(e)
				if !ce.eligible {
					continue
				}
				// First-inserted entry wins on duplicate tuples, like the
				// strict score comparison of the linear scan.
				t := tupleOf(e)
				sn.pm, _ = pinsert(sn.pm, 0, &pleaf{hash: phash(t), tuple: t, ce: ce}, false, o)
			}
		}
	} else {
		sn.ents, sn.dd = tb.fb.commit()
	}
	tb.compileDefault(sn)
	return sn
}

// deltaInsert returns the snapshot after adding one entry. Exact
// tables path-copy the persistent map in O(log n); other kinds report
// needing a full build by returning nil.
func (tb *ctable) deltaInsert(old *tsnap, e *p4.Entry, o *powner) *tsnap {
	if !tb.exact {
		return nil
	}
	ce := tb.compileEntry(e)
	if !ce.eligible {
		return old // can never match an exact table; snapshot unchanged
	}
	t := tupleOf(e)
	pm, changed := pinsert(old.pm, 0, &pleaf{hash: phash(t), tuple: t, ce: ce}, false, o)
	if !changed {
		return old // duplicate tuple: first-inserted keeps winning
	}
	return old.withPM(pm, o)
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
	t := tupleOfVals(keyVals)
	pm, removed := pdelete(old.pm, 0, phash(t), t, o)
	if !removed {
		return old
	}
	return old.withPM(pm, o)
}

// deltaReplace rebinds a tuple to a fresh entry (the modify op). Exact
// only; other kinds return nil to request a full build.
func (tb *ctable) deltaReplace(old *tsnap, e *p4.Entry, o *powner) *tsnap {
	if !tb.exact {
		return nil
	}
	ce := tb.compileEntry(e)
	if !ce.eligible {
		// The replacement cannot match; drop the old binding.
		return tb.deltaDelete(old, entryKeyVals(e), o)
	}
	t := tupleOf(e)
	pm, _ := pinsert(old.pm, 0, &pleaf{hash: phash(t), tuple: t, ce: ce}, true, o)
	return old.withPM(pm, o)
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

	var ce *centry
	if tb.exact {
		var tk [maxExactKeys]uint64
		for i, k := range tb.keys {
			tk[i] = m.frame[k.slot].v
		}
		ce = pget(sn.pm, phash(tk), tk)
	} else {
		keys := m.keys[:0]
		for _, k := range tb.keys {
			v := m.frame[k.slot]
			if k.bits >= 0 {
				v.bits = int(k.bits)
			}
			keys = append(keys, v)
		}
		m.keys = keys
		if sn.dd != nil {
			ce = sn.dd.match(keys, sn.ents)
		} else {
			ce = tb.scan(sn, keys)
		}
	}

	if ce == nil {
		if sn.defUnknown {
			return false, fmt.Errorf("unknown default action %q", sn.defName)
		}
		if sn.defAct != nil {
			if err := sn.defAct.invoke(m, sn.defArgs); err != nil {
				return false, err
			}
		}
		return false, nil
	}
	if ce.unknown {
		return false, fmt.Errorf("unknown action %q", ce.e.Action.Name)
	}
	if ce.act != nil {
		if err := ce.act.invoke(m, ce.args); err != nil {
			return false, err
		}
	}
	return true, nil
}

// scan is the linear matcher of snapshots without a diagram —
// semantically identical to the reference applyTable loop, including
// the explicit matched flag that separates "no match" from "matched
// with score 0".
func (tb *ctable) scan(sn *tsnap, keys []val) *centry {
	var best *centry
	bestScore := 0
	matched := false
	for i := range sn.ents {
		ce := &sn.ents[i]
		if !ce.eligible {
			continue
		}
		ok := true
		score := 0
		for ki := range ce.e.Keys {
			kv := &ce.e.Keys[ki]
			kval := keys[ki].v
			switch tb.kinds[ki] {
			case p4.MatchExact:
				if kval != kv.Value {
					ok = false
				}
			case p4.MatchTernary:
				if kval&kv.Mask != kv.Value&kv.Mask {
					ok = false
				}
				score -= ce.e.Priority
			case p4.MatchLPM:
				bits := keys[ki].bits
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
				score -= ce.e.Priority
			}
			if !ok {
				break
			}
		}
		if ok && (!matched || score > bestScore) {
			best = ce
			bestScore = score
			matched = true
		}
	}
	return best
}
