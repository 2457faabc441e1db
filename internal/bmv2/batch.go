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
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

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
	// key tuple with Entry, in the place of the earliest of them (its
	// position in Entries and in ties). Errors when no entry matches.
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

// erec is one table entry as the store keeps it. It holds no pointer,
// so a table of any size is a few heap objects the collector never
// scans. Its action arguments, then its key words, sit in the arena's
// words from off on: one word per key (the value) when the record is
// narrow — every key with zero Mask and Hi and the one PrefixLen plen —
// else four (value, mask, hi, prefix length).
type erec struct {
	prio  int64
	off   uint32
	nkeys uint32
	nargs uint32
	seq   uint32 // serial: the record's identity across compaction, and its tie order
	act   int32  // index into the store's action names, or actNone
	plen  int32  // the keys' PrefixLen, or wideKeys
}

const (
	actNone  = -1 // the entry has no action call (nil, not NoAction)
	wideKeys = math.MinInt32
	recDead  = -1 // entrySet.next of a deleted record
)

// arena is a table's records in append order and the words they
// name. The store appends to it, and truncates what a refused batch
// appended; a published snapshot holds a prefix nothing writes again.
type arena struct {
	recs  []erec
	words []uint64
}

// size is the number of words record r names.
func (r *erec) size() uint32 {
	if r.plen == wideKeys {
		return r.nargs + 4*r.nkeys
	}
	return r.nargs + r.nkeys
}

func (a *arena) args(r *erec) []uint64 { return a.words[r.off : r.off+r.nargs : r.off+r.nargs] }

func (a *arena) keyVal(r *erec, k int) uint64 {
	if r.plen == wideKeys {
		k *= 4
	}
	return a.words[int(r.off)+int(r.nargs)+k]
}

func (a *arena) key(r *erec, k int) p4.KeyValue {
	if r.plen != wideKeys {
		return p4.KeyValue{Value: a.keyVal(r, k), PrefixLen: int(r.plen)}
	}
	w := a.words[int(r.off)+int(r.nargs)+4*k:]
	return p4.KeyValue{Value: w[0], Mask: w[1], Hi: w[2], PrefixLen: int(int64(w[3]))}
}

// tuple is record i's exact-index key: its first maxExactKeys values.
func (a *arena) tuple(i int32) (t [maxExactKeys]uint64) {
	r := &a.recs[i]
	for k := 0; k < int(r.nkeys) && k < maxExactKeys; k++ {
		t[k] = a.keyVal(r, k)
	}
	return t
}

// entrySet is one table's runtime entry store: the record arena, the
// action names its records index (interned, unknown ones included),
// and a key index — chains through next from heads, bucketed by a hash
// of the key values — that makes insert O(1) and delete O(candidates).
// Deleted records leave the chains and keep their slot until
// compaction after a successful commit, so a refused batch's undo can
// relink them and truncate what it appended. Store order is serial
// order: a modify's record takes the serial of the earliest it replaces.
type entrySet struct {
	arena
	next       []int32 // per record: its chain successor + 1 (0 ends it), or recDead
	heads      []int32 // chain heads, record + 1 (0: empty); len a power of two
	live, dead int
	seq        uint32
	names      []string
	nameIdx    map[string]int32
	kv         []uint64 // scratch key values
}

// keyVals appends record i's key values onto dst.
func (es *entrySet) keyVals(dst []uint64, i int32) []uint64 {
	r := &es.recs[i]
	for k := 0; k < int(r.nkeys); k++ {
		dst = append(dst, es.keyVal(r, k))
	}
	return dst
}

// chain returns the head of the chain holding key values vals.
func (es *entrySet) chain(vals []uint64) *int32 {
	h := mix64(uint64(len(vals)))
	for _, v := range vals {
		h = mix64(h ^ v)
	}
	return &es.heads[h&uint64(len(es.heads)-1)]
}

// link puts live record i at the head of its chain, doubling the heads
// (and relinking every live record) once records outnumber them.
func (es *entrySet) link(i int32) {
	if len(es.recs) > len(es.heads) {
		es.heads = make([]int32, max(64, 2*len(es.heads)))
		for j := range es.next {
			if es.next[j] != recDead && int32(j) != i {
				es.next[j] = 0
				es.link(int32(j))
			}
		}
	}
	es.kv = es.keyVals(es.kv[:0], i)
	h := es.chain(es.kv)
	es.next[i], *h = *h, i+1
}

// keysPlen is the plen of a record of keys: their one PrefixLen when
// no key has a mask or an upper bound, else wideKeys.
func keysPlen(keys []p4.KeyValue) int32 {
	plen := int32(0)
	if len(keys) > 0 {
		plen = int32(keys[0].PrefixLen)
	}
	for _, k := range keys {
		if k.Mask != 0 || k.Hi != 0 || k.PrefixLen != int(plen) {
			return wideKeys
		}
	}
	return plen
}

// add appends a copy of e under the next serial, returning its index.
func (es *entrySet) add(e *p4.Entry) int32 {
	r := erec{prio: int64(e.Priority), off: uint32(len(es.words)), nkeys: uint32(len(e.Keys)), seq: es.seq, act: actNone}
	if e.Action != nil {
		if es.nameIdx == nil {
			es.nameIdx = map[string]int32{}
		}
		a, ok := es.nameIdx[e.Action.Name]
		if !ok {
			a = int32(len(es.names))
			es.nameIdx[e.Action.Name] = a
			es.names = append(es.names, e.Action.Name)
		}
		r.act, r.nargs = a, uint32(len(e.Action.Args))
		es.words = append(es.words, e.Action.Args...)
	}
	r.plen = keysPlen(e.Keys)
	for _, k := range e.Keys {
		es.words = append(es.words, k.Value)
		if r.plen == wideKeys {
			es.words = append(es.words, k.Mask, k.Hi, uint64(k.PrefixLen))
		}
	}
	i := int32(len(es.recs))
	es.seq++
	es.recs, es.next = append(es.recs, r), append(es.next, 0)
	es.live++
	es.link(i)
	return i
}

// load appends a table's static entries, sizing the arena once.
func (es *entrySet) load(ents []*p4.Entry) {
	words := len(es.words)
	for _, e := range ents {
		words += len(e.Keys)
		if keysPlen(e.Keys) == wideKeys {
			words += 3 * len(e.Keys)
		}
		if e.Action != nil {
			words += len(e.Action.Args)
		}
	}
	es.recs = slices.Grow(es.recs, len(ents))
	es.words = slices.Grow(es.words, words-len(es.words))
	es.next = slices.Grow(es.next, len(ents))
	for _, e := range ents {
		es.add(e)
	}
}

// unlink removes live record i from its chain.
func (es *entrySet) unlink(i int32) {
	es.kv = es.keyVals(es.kv[:0], i)
	p := es.chain(es.kv)
	for *p != i+1 {
		p = &es.next[*p-1]
	}
	*p = es.next[i]
}

// unAdd reverts the latest add (rollback path): the record leaves its
// chain and the arena is truncated to before it.
func (es *entrySet) unAdd(i int32) {
	es.unlink(i)
	es.words = es.words[:es.recs[i].off]
	es.recs, es.next = es.recs[:i], es.next[:i]
	es.live--
}

// deleteKey deletes every live record whose key values equal keyVals
// exactly, appending their indices for undo onto dst (a batch-scoped
// arena; callers keep the appended tail).
func (es *entrySet) deleteKey(dst []int32, keyVals []uint64) []int32 {
	if len(keyVals) == 0 || len(es.heads) == 0 {
		return dst
	}
	for p := es.chain(keyVals); *p > 0; {
		i := *p - 1
		if es.kv = es.keyVals(es.kv[:0], i); slices.Equal(es.kv, keyVals) {
			*p, es.next[i] = es.next[i], recDead
			es.live--
			es.dead++
			dst = append(dst, i)
			continue
		}
		p = &es.next[i]
	}
	return dst
}

// unDelete relinks deleted records (rollback path).
func (es *entrySet) unDelete(rm []int32) {
	for _, i := range rm {
		es.live++
		es.dead--
		es.link(i)
	}
}

// sameKeys reports whether records i and j have the same keys and
// priority: a modify between them leaves what the record matches alone.
func (es *entrySet) sameKeys(i, j int32) bool {
	a, b := &es.recs[i], &es.recs[j]
	return a.prio == b.prio && a.plen == b.plen &&
		slices.Equal(es.words[a.off+a.nargs:a.off+a.size()], es.words[b.off+b.nargs:b.off+b.size()])
}

// maybeCompact reclaims deleted records once they dominate the arena,
// copying the live ones into a fresh one in order. It returns nil, or
// the map from each old record index to its new one (-1: reclaimed);
// serials do not change. Amortized O(1) per delete; called only after
// successful commits.
func (es *entrySet) maybeCompact() []int32 {
	if es.dead <= 16 || es.dead <= es.live {
		return nil
	}
	old, next, words := es.arena, es.next, 0
	to := make([]int32, len(old.recs))
	for i := range old.recs {
		if to[i] = -1; next[i] != recDead {
			words += int(old.recs[i].size())
		}
	}
	// Room for as many appends as there are live records: the store
	// compacts again before it needs more, so churn never regrows it.
	n := 2*es.live + 16
	es.arena = arena{make([]erec, 0, n), make([]uint64, 0, 2*words)}
	// The writer's key index is rebuilt in place (next at or below i).
	es.next, es.live, es.dead = next[:0], 0, 0
	clear(es.heads)
	for i, r := range old.recs {
		if next[i] == recDead {
			continue
		}
		es.words = append(es.words, old.words[r.off:r.off+r.size()]...)
		r.off = uint32(len(es.words)) - r.size()
		to[i] = int32(len(es.recs))
		es.recs, es.next = append(es.recs, r), append(es.next, 0)
		es.live++
		es.link(to[i])
	}
	return to
}

// entry rebuilds record i as a fresh entry: the copy Entries and the
// reference interpreter read.
func (es *entrySet) entry(i int) *p4.Entry {
	r := &es.recs[i]
	e := &p4.Entry{Keys: make([]p4.KeyValue, r.nkeys), Priority: int(r.prio)}
	for k := range e.Keys {
		e.Keys[k] = es.key(r, k)
	}
	if r.act != actNone {
		e.Action = &p4.ActionCall{Name: es.names[r.act], Args: slices.Clone(es.args(r))}
	}
	return e
}

// entries rebuilds the live entries in store order.
func (es *entrySet) entries() []*p4.Entry {
	idx := make([]int, 0, es.live)
	for i := range es.recs {
		if es.next[i] != recDead {
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(i, j int) int { return cmp.Compare(es.recs[i].seq, es.recs[j].seq) })
	out := make([]*p4.Entry, len(idx))
	for k, i := range idx {
		out[k] = es.entry(i)
	}
	return out
}

// appendKeyVals appends an entry's key values onto dst as a delete
// tuple; dst is typically a reusable scratch buffer.
func appendKeyVals(dst []uint64, e *p4.Entry) []uint64 {
	for i := range e.Keys {
		dst = append(dst, e.Keys[i].Value)
	}
	return dst
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

// undoRec reverses one applied entry op on rollback: it un-adds record
// idx (when >= 0), then un-deletes the records the batch's rm log holds
// at [lo, hi). A batch logs one flat record per op instead of a
// heap-allocated closure; on failure the log replays in reverse.
type undoRec struct {
	es          *entrySet
	idx, lo, hi int32
}

// Write applies a batch transactionally. On success every op took
// effect and the new rule set was published as one generation: a
// concurrent packet sees all of the batch or none of it. On failure
// the returned error is a *BatchError naming the eject op, the store
// is rolled back, registers are untouched, and nothing is published.
// The store copies what it keeps: the batch's entries and arguments
// stay the caller's.
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
	var rmArena []int32 // the records each undoRec un-deletes
	type defaultUndo struct {
		t   *p4.Table
		old *p4.ActionCall
	}
	var defaults []defaultUndo // independent of the entry ops' log
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
			r := &undo[j]
			if r.idx >= 0 {
				r.es.unAdd(r.idx)
			}
			r.es.unDelete(rmArena[r.lo:r.hi])
		}
		for j := len(defaults) - 1; j >= 0; j-- {
			defaults[j].t.Default = defaults[j].old
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
				return fail(i, fmt.Errorf("%w %q", ErrNoTable, op.Table))
			}
			idx := es.add(op.Entry)
			undo = append(undo, undoRec{es: es, idx: idx})
			touch(op.Table)
			stageTables(op.Table, func(tb *ctable, old *tsnap) *tsnap {
				return tb.deltaInsert(old, idx, false, owner)
			})

		case OpModify:
			if op.Entry == nil {
				return fail(i, fmt.Errorf("modify in %q: %w", op.Table, ErrNilEntry))
			}
			es := s.entries[op.Table]
			if es == nil {
				return fail(i, fmt.Errorf("%w %q", ErrNoTable, op.Table))
			}
			kvBuf = appendKeyVals(kvBuf[:0], op.Entry)
			start := len(rmArena)
			rmArena = es.deleteKey(rmArena, kvBuf)
			rm := rmArena[start:]
			if len(rm) == 0 {
				return fail(i, fmt.Errorf("modify in %q: %w %v", op.Table, ErrNoMatch, kvBuf))
			}
			idx := es.add(op.Entry)
			// Records of one key sit in serial order: the first is the earliest.
			es.recs[idx].seq = es.recs[slices.Min(rm)].seq
			undo = append(undo, undoRec{es, idx, int32(start), int32(len(rmArena))})
			res.Removed[i] = len(rm)
			touch(op.Table)
			stageTables(op.Table, func(tb *ctable, old *tsnap) *tsnap {
				return tb.deltaInsert(old, idx, true, owner)
			})

		case OpDelete:
			es := s.entries[op.Table]
			if es == nil {
				continue // deleting from an unknown table removes nothing
			}
			start := len(rmArena)
			rmArena = es.deleteKey(rmArena, op.Keys)
			rm := rmArena[start:]
			if len(rm) == 0 {
				continue
			}
			undo = append(undo, undoRec{es, -1, int32(start), int32(len(rmArena))})
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
			t.Default = &p4.ActionCall{Name: op.Action, Args: slices.Clone(op.Args)}
			defaults = append(defaults, defaultUndo{t, old})
			stageTables(op.Table, func(tb *ctable, old *tsnap) *tsnap {
				return tb.deltaDefault(old)
			})

		default:
			return fail(i, fmt.Errorf("%w %d", ErrUnknownOp, op.Kind))
		}
	}

	// Commit: registers first (plain memory; Sharded quiesces around the
	// whole call when packets are in flight), then the snapshots, then
	// reclaim dominant deleted records — which renumbers them, so every
	// snapshot over a compacted store is relabelled — then publish every
	// touched table in one generation.
	for _, rw := range regWrites {
		rw.rf.store(rw.idx, rw.val)
	}
	var snaps []*tsnap
	if stage != nil {
		snaps = slices.Clone(s.prog.gen.Load().snaps)
		for gslot, st := range stage {
			if st.dirty {
				snaps[gslot] = s.prog.tabs[gslot].build()
			} else {
				snaps[gslot] = st.snap
			}
		}
	}
	for name := range touched {
		if to := s.entries[name].maybeCompact(); to != nil && snaps != nil {
			for _, tb := range s.prog.tablesByName[name] {
				snaps[tb.gslot] = tb.relabel(snaps[tb.gslot], to)
			}
		}
	}
	if snaps != nil {
		s.prog.gen.Store(&generation{snaps: snaps})
	}
	return res, nil
}
