package bmv2

// batch.go is the transactional control plane of the switch: a
// WriteBatch groups entry inserts/modifies/deletes, register writes,
// and default-action changes into one all-or-nothing unit, and
// Switch.Write applies it with a single atomic generation publish.
// Either every op in the batch takes effect or none does (the failed
// op's index comes back in a *BatchError), and because the whole rule
// set swaps behind one pointer, a concurrently processed packet
// observes the complete pre-batch state or the complete post-batch
// state — never a mix.
//
// The op types live here (not in p4rt) because p4rt imports bmv2;
// p4rt re-exports them by alias so wire clients and the in-process
// Direct client share one vocabulary and one wire encoding.

import (
	"errors"
	"fmt"

	"netcl/internal/p4"
)

// OpKind discriminates batch operations.
type OpKind int

// Batch operation kinds.
const (
	// OpInsert appends a table entry (first-inserted wins on duplicate
	// exact tuples). Errors on unknown tables.
	OpInsert OpKind = iota
	// OpModify atomically replaces the entries matching Entry's full
	// key tuple with Entry. Errors when no entry matches.
	OpModify
	// OpDelete removes every entry whose key values equal Keys exactly
	// (same arity, all values equal). Unknown tables and missing tuples
	// remove zero entries without failing the batch.
	OpDelete
	// OpRegisterWrite sets one register cell. Errors on unknown
	// registers or out-of-range indices.
	OpRegisterWrite
	// OpSetDefault replaces a table's default action. Errors on
	// unknown tables.
	OpSetDefault
)

// Op is one batch operation.
type Op struct {
	Kind   OpKind
	Table  string    // OpInsert/OpModify/OpDelete/OpSetDefault
	Entry  *p4.Entry // OpInsert/OpModify
	Keys   []uint64  // OpDelete: full key tuple
	Reg    string    // OpRegisterWrite
	Idx    int       // OpRegisterWrite
	Val    uint64    // OpRegisterWrite
	Action string    // OpSetDefault
	Args   []uint64  // OpSetDefault
}

// regCell identifies one register cell for write-combining.
type regCell struct {
	name string
	idx  int
}

// WriteBatch accumulates ops for one transactional Write. The builder
// methods return the batch for chaining. Register writes to the same
// cell are write-combined: only the last value survives, which is
// legal because a batch applies atomically and nothing reads registers
// mid-batch — the dominant `_managed_` mirror traffic collapses to one
// op per touched cell.
type WriteBatch struct {
	Ops []Op

	rw map[regCell]int // cell -> index in Ops, for combining
}

// NewWriteBatch returns an empty batch.
func NewWriteBatch() *WriteBatch { return &WriteBatch{} }

// Len reports the number of ops in the batch.
func (b *WriteBatch) Len() int { return len(b.Ops) }

// Insert appends a table-entry insert.
func (b *WriteBatch) Insert(table string, e *p4.Entry) *WriteBatch {
	b.Ops = append(b.Ops, Op{Kind: OpInsert, Table: table, Entry: e})
	return b
}

// Modify appends a replace of the entries matching e's full key tuple.
func (b *WriteBatch) Modify(table string, e *p4.Entry) *WriteBatch {
	b.Ops = append(b.Ops, Op{Kind: OpModify, Table: table, Entry: e})
	return b
}

// Delete appends a full-tuple entry delete.
func (b *WriteBatch) Delete(table string, keys ...uint64) *WriteBatch {
	b.Ops = append(b.Ops, Op{Kind: OpDelete, Table: table, Keys: keys})
	return b
}

// RegisterWrite appends a register-cell write, combining with any
// earlier write to the same cell in this batch (last value wins).
func (b *WriteBatch) RegisterWrite(name string, idx int, v uint64) *WriteBatch {
	c := regCell{name, idx}
	if i, ok := b.rw[c]; ok {
		b.Ops[i].Val = v
		return b
	}
	if b.rw == nil {
		b.rw = map[regCell]int{}
	}
	b.rw[c] = len(b.Ops)
	b.Ops = append(b.Ops, Op{Kind: OpRegisterWrite, Reg: name, Idx: idx, Val: v})
	return b
}

// SetDefault appends a default-action change.
func (b *WriteBatch) SetDefault(table, action string, args []uint64) *WriteBatch {
	b.Ops = append(b.Ops, Op{Kind: OpSetDefault, Table: table, Action: action, Args: args})
	return b
}

// hasRegisterWrites reports whether any op touches a register (the
// sharded engine must quiesce for those; pure table batches publish
// lock-free).
func (b *WriteBatch) hasRegisterWrites() bool {
	for i := range b.Ops {
		if b.Ops[i].Kind == OpRegisterWrite {
			return true
		}
	}
	return false
}

// WriteResult reports per-op outcomes of a committed batch.
type WriteResult struct {
	// Removed has one count per op: entries removed by OpDelete (and
	// replaced by OpModify); zero for other kinds.
	Removed []int
}

// The closed set of failures Write and RegisterRead report. Each
// returned error wraps one of them; p4rt carries the set across TCP.
var (
	ErrNoTable       = errors.New("no table")
	ErrNoRegister    = errors.New("no register")
	ErrRegisterRange = errors.New("out of range")
	ErrNilEntry      = errors.New("nil entry")
	ErrNoMatch       = errors.New("no entry matches key tuple")
	ErrUnknownOp     = errors.New("unknown op kind")
)

// BatchError reports which op failed a Write. The batch had no effect.
type BatchError struct {
	Index int // position in WriteBatch.Ops
	Err   error
}

func (e *BatchError) Error() string { return fmt.Sprintf("batch op %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying op error to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// Entry store ----------------------------------------------------------

// ekey buckets entries by arity plus the first maxExactKeys key
// values. Entries sharing a bucket are verified with entryKeysEqual,
// so wider tuples stay correct — the bucket only bounds the candidate
// scan.
type ekey struct {
	k [maxExactKeys]uint64
	n int
}

func ekeyOf(e *p4.Entry) ekey {
	var k ekey
	k.n = len(e.Keys)
	for i := 0; i < len(e.Keys) && i < maxExactKeys; i++ {
		k.k[i] = e.Keys[i].Value
	}
	return k
}

func ekeyOfVals(vals []uint64) ekey {
	var k ekey
	k.n = len(vals)
	for i := 0; i < len(vals) && i < maxExactKeys; i++ {
		k.k[i] = vals[i]
	}
	return k
}

// entrySet is one table's runtime entry store: an append-only slice
// (nil = tombstone) preserving insertion order — the order entry
// priority ties resolve by — plus a key-tuple index making insert O(1)
// and delete O(candidates) instead of O(table). Tombstones are
// reclaimed by compaction after successful commits, never mid-batch,
// so undo closures can restore deleted slots by index.
type entrySet struct {
	ents  []*p4.Entry // insertion order; nil slots are tombstones
	live  int
	dead  int
	byKey map[ekey][]int // bucket -> candidate indices (may be stale)
}

// insert appends an entry, returning its slot and bucket for undo.
func (es *entrySet) insert(e *p4.Entry) (int, ekey) {
	if es.byKey == nil {
		es.byKey = map[ekey][]int{}
	}
	idx := len(es.ents)
	es.ents = append(es.ents, e)
	k := ekeyOf(e)
	es.byKey[k] = append(es.byKey[k], idx)
	es.live++
	return idx, k
}

// unInsert reverts an insert (rollback path).
func (es *entrySet) unInsert(idx int, k ekey) {
	es.ents[idx] = nil
	es.live--
	es.dead++
	lst := es.byKey[k]
	for j := len(lst) - 1; j >= 0; j-- {
		if lst[j] == idx {
			es.byKey[k] = append(lst[:j], lst[j+1:]...)
			break
		}
	}
}

// removedEntry remembers one tombstoned slot for undo.
type removedEntry struct {
	idx int
	e   *p4.Entry
}

// deleteKey tombstones every entry whose key values equal keyVals
// exactly, appending the removed slots for undo onto dst (a batch-
// scoped arena; callers keep the appended tail). The candidate list is
// filtered in place as it is scanned — removed and stale indices drop
// out — so repeated churn on one key (the managed-lookup replace
// pattern) keeps the bucket short instead of growing it per delete.
func (es *entrySet) deleteKey(dst []removedEntry, keyVals []uint64) []removedEntry {
	if len(keyVals) == 0 {
		return dst
	}
	k := ekeyOfVals(keyVals)
	lst := es.byKey[k]
	kept := lst[:0]
	for _, idx := range lst {
		e := es.ents[idx]
		if e == nil {
			continue // stale tombstone: prune in passing
		}
		if entryKeysEqual(e, keyVals) {
			dst = append(dst, removedEntry{idx, e})
			es.ents[idx] = nil
			es.live--
			es.dead++
			continue // unDelete re-indexes on rollback
		}
		kept = append(kept, idx)
	}
	if len(lst) > 0 {
		if len(kept) == 0 {
			delete(es.byKey, k)
		} else {
			es.byKey[k] = kept
		}
	}
	return dst
}

// unDelete restores tombstoned slots (rollback path), re-adding them
// to the key index deleteKey dropped them from.
func (es *entrySet) unDelete(rm []removedEntry) {
	for _, r := range rm {
		es.ents[r.idx] = r.e
		es.live++
		es.dead--
		k := ekeyOf(r.e)
		es.byKey[k] = append(es.byKey[k], r.idx)
	}
}

// maybeCompact reclaims tombstones once they dominate the slice.
// Amortized O(1) per delete; called only after successful commits.
func (es *entrySet) maybeCompact() {
	if es.dead > 16 && es.dead > es.live {
		es.compact()
	}
}

// compact drops tombstones and rebuilds the key index. Entry order
// among live entries is preserved.
func (es *entrySet) compact() {
	kept := es.ents[:0]
	for _, e := range es.ents {
		if e != nil {
			kept = append(kept, e)
		}
	}
	es.ents = kept
	es.live = len(kept)
	es.dead = 0
	es.byKey = map[ekey][]int{}
	for i, e := range es.ents {
		k := ekeyOf(e)
		es.byKey[k] = append(es.byKey[k], i)
	}
}

// appendKeyVals appends an entry's key values onto dst as a delete
// tuple; dst is typically a reusable scratch buffer.
func appendKeyVals(dst []uint64, e *p4.Entry) []uint64 {
	for i := range e.Keys {
		dst = append(dst, e.Keys[i].Value)
	}
	return dst
}

// entryKeyVals extracts an entry's key values as a fresh delete tuple.
func entryKeyVals(e *p4.Entry) []uint64 {
	return appendKeyVals(make([]uint64, 0, len(e.Keys)), e)
}

// Transactional apply ---------------------------------------------------

// staging tracks one compiled table's pending snapshot during a batch.
// Exact tables accumulate O(delta) persistent-map updates in snap;
// non-exact tables set dirty, and the commit brings their diagram up
// to the store once, building only the nodes the batch changed.
type staging struct {
	snap  *tsnap
	dirty bool
}

// Undo-record kinds. A batch logs one flat record per reversible op
// instead of a heap-allocated closure; on failure the log replays in
// reverse.
const (
	uInsert  = iota // unInsert(idx, k)
	uDelete         // unDelete(rm)
	uDefault        // t.Default = old
)

// undoRec reverses one applied op on rollback.
type undoRec struct {
	kind int8
	es   *entrySet
	idx  int
	k    ekey
	rm   []removedEntry
	t    *p4.Table
	old  *p4.ActionCall
}

// Write applies a batch transactionally. On success every op took
// effect and the new rule set was published as one generation: a
// concurrent packet sees all of the batch or none of it. On failure
// the returned error is a *BatchError naming the eject op, the store
// is rolled back, registers are untouched, and nothing is published.
//
// Safe to call concurrently with packet processing. Batches containing
// register writes additionally require the data path to be quiesced
// when packets are in flight (Sharded.Write does this), because
// register cells are plain memory.
func (s *Switch) Write(b *WriteBatch) (*WriteResult, error) {
	if b == nil || len(b.Ops) == 0 {
		return &WriteResult{}, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	res := &WriteResult{Removed: make([]int, len(b.Ops))}

	type regWrite struct {
		rf  *regfile
		idx int
		val uint64
	}
	var regWrites []regWrite
	undo := make([]undoRec, 0, len(b.Ops))
	var rmArena []removedEntry // backing store for undoRec.rm tails
	var kvBuf []uint64         // scratch key tuple, reused across ops
	var stage map[int]*staging
	var touched map[string]bool
	// One transient token for the whole batch: trie nodes copied by an
	// earlier op are edited in place by later ops, so a k-op batch
	// copies each touched node once, not k times. The token dies with
	// this call, freezing the published nodes.
	owner := &powner{}

	// stageTables folds one mutation into the pending snapshot of every
	// compiled table sharing the name. delta returns the new snapshot or
	// nil to demand a full rebuild at commit.
	stageTables := func(table string, delta func(tb *ctable, old *tsnap) *tsnap) {
		if s.prog == nil {
			return
		}
		tbs := s.prog.tablesByName[table]
		if len(tbs) == 0 {
			return
		}
		if stage == nil {
			stage = map[int]*staging{}
		}
		cur := s.prog.gen.Load()
		for _, tb := range tbs {
			st := stage[tb.gslot]
			if st == nil {
				st = &staging{snap: cur.snaps[tb.gslot]}
				stage[tb.gslot] = st
			}
			if st.dirty {
				continue // a full build at commit covers this op too
			}
			if ns := delta(tb, st.snap); ns != nil {
				st.snap = ns
			} else {
				st.dirty = true
			}
		}
	}
	touch := func(table string) {
		if touched == nil {
			touched = map[string]bool{}
		}
		touched[table] = true
	}
	fail := func(i int, err error) (*WriteResult, error) {
		for j := len(undo) - 1; j >= 0; j-- {
			switch r := &undo[j]; r.kind {
			case uInsert:
				r.es.unInsert(r.idx, r.k)
			case uDelete:
				r.es.unDelete(r.rm)
			default:
				r.t.Default = r.old
			}
		}
		return nil, &BatchError{Index: i, Err: err}
	}

	for i := range b.Ops {
		op := &b.Ops[i]
		switch op.Kind {
		case OpInsert:
			if op.Entry == nil {
				return fail(i, fmt.Errorf("insert into %q: %w", op.Table, ErrNilEntry))
			}
			es := s.entries[op.Table]
			if es == nil {
				if s.findTable(op.Table) == nil {
					return fail(i, fmt.Errorf("%w %q", ErrNoTable, op.Table))
				}
				es = &entrySet{}
				s.entries[op.Table] = es
			}
			e := op.Entry
			idx, k := es.insert(e)
			undo = append(undo, undoRec{kind: uInsert, es: es, idx: idx, k: k})
			touch(op.Table)
			stageTables(op.Table, func(tb *ctable, old *tsnap) *tsnap {
				return tb.deltaInsert(old, e, owner)
			})

		case OpModify:
			if op.Entry == nil {
				return fail(i, fmt.Errorf("modify in %q: %w", op.Table, ErrNilEntry))
			}
			es := s.entries[op.Table]
			if es == nil {
				return fail(i, fmt.Errorf("%w %q", ErrNoTable, op.Table))
			}
			e := op.Entry
			kvBuf = appendKeyVals(kvBuf[:0], e)
			start := len(rmArena)
			rmArena = es.deleteKey(rmArena, kvBuf)
			rm := rmArena[start:len(rmArena):len(rmArena)]
			if len(rm) == 0 {
				return fail(i, fmt.Errorf("modify in %q: %w %v", op.Table, ErrNoMatch, kvBuf))
			}
			idx, k := es.insert(e)
			// Two records so reverse replay un-inserts before un-deleting.
			undo = append(undo,
				undoRec{kind: uDelete, es: es, rm: rm},
				undoRec{kind: uInsert, es: es, idx: idx, k: k})
			res.Removed[i] = len(rm)
			touch(op.Table)
			stageTables(op.Table, func(tb *ctable, old *tsnap) *tsnap {
				return tb.deltaReplace(old, e, owner)
			})

		case OpDelete:
			es := s.entries[op.Table]
			if es == nil {
				continue // deleting from an unknown table removes nothing
			}
			start := len(rmArena)
			rmArena = es.deleteKey(rmArena, op.Keys)
			rm := rmArena[start:len(rmArena):len(rmArena)]
			if len(rm) == 0 {
				continue
			}
			undo = append(undo, undoRec{kind: uDelete, es: es, rm: rm})
			res.Removed[i] = len(rm)
			keys := op.Keys
			touch(op.Table)
			stageTables(op.Table, func(tb *ctable, old *tsnap) *tsnap {
				return tb.deltaDelete(old, keys, owner)
			})

		case OpRegisterWrite:
			rf, ok := s.regs[op.Reg]
			if !ok {
				return fail(i, fmt.Errorf("%w %q", ErrNoRegister, op.Reg))
			}
			if op.Idx < 0 || op.Idx >= rf.size {
				return fail(i, fmt.Errorf("register %q index %d %w", op.Reg, op.Idx, ErrRegisterRange))
			}
			// Staged: register memory is touched only once the whole
			// batch has validated.
			regWrites = append(regWrites, regWrite{rf, op.Idx, op.Val})

		case OpSetDefault:
			t := s.findTable(op.Table)
			if t == nil {
				return fail(i, fmt.Errorf("%w %q", ErrNoTable, op.Table))
			}
			old := t.Default
			t.Default = &p4.ActionCall{Name: op.Action, Args: op.Args}
			undo = append(undo, undoRec{kind: uDefault, t: t, old: old})
			stageTables(op.Table, func(tb *ctable, old *tsnap) *tsnap {
				return tb.deltaDefault(old)
			})

		default:
			return fail(i, fmt.Errorf("%w %d", ErrUnknownOp, op.Kind))
		}
	}

	// Commit: registers first (plain memory; Sharded quiesces around the
	// whole call when packets are in flight), then reclaim dominant
	// tombstones, then publish every touched table in one generation.
	for _, rw := range regWrites {
		rw.rf.store(rw.idx, rw.val)
	}
	for name := range touched {
		if es := s.entries[name]; es != nil {
			es.maybeCompact()
		}
	}
	if stage != nil {
		cur := s.prog.gen.Load()
		snaps := append([]*tsnap(nil), cur.snaps...)
		for gslot, st := range stage {
			if st.dirty {
				snaps[gslot] = s.prog.tabs[gslot].build()
			} else {
				snaps[gslot] = st.snap
			}
		}
		s.prog.gen.Store(&generation{snaps: snaps})
	}
	return res, nil
}
