package bmv2

// writefuzz_test.go holds FuzzWriteBatch, the control plane's own
// oracle. The differential fuzzers compare the engine with the
// reference interpreter, but both read the entry store Write
// maintains, so a Write bug — a delete that drops the wrong duplicate,
// a refused batch that leaves part of itself applied — is invisible to
// them. The model here shares nothing with that store: a per-table
// slice of entries, applied op by op, matched by a priority sort with
// ties to the earlier entry (a modified entry keeps its place).

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"netcl/internal/p4"
)

// wfTables are the fuzzed tables: matcherProg's four (one exact, one
// per non-exact kind) plus mix4, a four-level diagram.
var wfTables = []string{"ex2", "lpm1", "tern1", "rng1", "mix4"}

// wfProg is matcherProgReg with mix4 applied to packets whose sel is
// 5 or more (its exact key is sel itself).
func wfProg() *p4.Program {
	pp := matcherProgReg(nil)
	mix := mixProg(nil).Ingress.TableByName("mix4")
	pp.Ingress.Tables = append(pp.Ingress.Tables, mix)
	sel := p4.FR("hdr", "h", "sel")
	pp.Ingress.Apply = append([]p4.Stmt{&p4.If{
		Cond: &p4.Bin{Op: ">=", X: sel, Y: &p4.IntLit{Val: 5, Bits: 8}},
		Then: []p4.Stmt{&p4.ApplyTable{Table: "mix4"}},
	}}, pp.Ingress.Apply...)
	return pp
}

// wfModel is the naive model: entries per table in insertion order (a
// modified one in the place of the first it replaced), the out value
// each table's default writes, and the register r0.
type wfModel struct {
	ents map[string][]*p4.Entry
	def  map[string]uint64
	regs [8]uint64
}

func newWFModel() *wfModel {
	m := &wfModel{ents: map[string][]*p4.Entry{}, def: map[string]uint64{}}
	for _, t := range wfTables {
		m.def[t] = 0xFFFF_FFFF
	}
	return m
}

func (m *wfModel) clone() *wfModel {
	c := &wfModel{ents: map[string][]*p4.Entry{}, def: map[string]uint64{}, regs: m.regs}
	for t, es := range m.ents {
		c.ents[t] = append([]*p4.Entry(nil), es...)
	}
	for t, d := range m.def {
		c.def[t] = d
	}
	return c
}

func wfKnown(table string) bool {
	for _, t := range wfTables {
		if t == table {
			return true
		}
	}
	return false
}

// remove drops every entry whose key values equal vals (same arity),
// returning how many went. A non-nil with takes the place of the first
// of them (a modify).
func (m *wfModel) remove(table string, vals []uint64, with *p4.Entry) int {
	kept := m.ents[table][:0:0]
	n := 0
	for _, e := range m.ents[table] {
		same := len(vals) > 0 && len(e.Keys) == len(vals)
		for i := 0; same && i < len(vals); i++ {
			same = e.Keys[i].Value == vals[i]
		}
		if same {
			if n++; n == 1 && with != nil {
				kept = append(kept, with)
			}
		} else {
			kept = append(kept, e)
		}
	}
	m.ents[table] = kept
	return n
}

// apply runs one op on the model: the count it removed, or ok=false
// when the op must refuse its batch.
func (m *wfModel) apply(op *Op) (removed int, ok bool) {
	switch op.Kind {
	case OpInsert:
		if op.Entry == nil || !wfKnown(op.Table) {
			return 0, false
		}
		m.ents[op.Table] = append(m.ents[op.Table], wfCopy(op.Entry))
	case OpModify:
		if op.Entry == nil || !wfKnown(op.Table) {
			return 0, false
		}
		if removed = m.remove(op.Table, entryKeyVals(op.Entry), wfCopy(op.Entry)); removed == 0 {
			return 0, false
		}
	case OpDelete:
		removed = m.remove(op.Table, op.Keys, nil)
	case OpRegisterWrite:
		if op.Reg != "r0" || op.Idx < 0 || op.Idx >= len(m.regs) {
			return 0, false
		}
		m.regs[op.Idx] = op.Val
	case OpSetDefault:
		if !wfKnown(op.Table) {
			return 0, false
		}
		m.def[op.Table] = 0xFFFF_FFFF
		if op.Action == "set_out" {
			m.def[op.Table] = op.Args[0]
		}
	default:
		return 0, false
	}
	return removed, true
}

// entryKeyVals extracts an entry's key values as a fresh delete tuple.
func entryKeyVals(e *p4.Entry) []uint64 {
	return appendKeyVals(make([]uint64, 0, len(e.Keys)), e)
}

// wfCopy deep-copies an entry: the model shares no memory with the ops
// it is handed, which the fuzzer overwrites once their batch is in.
func wfCopy(e *p4.Entry) *p4.Entry {
	c := *e
	c.Keys = slices.Clone(e.Keys)
	if e.Action != nil {
		a := *e.Action
		a.Args = slices.Clone(a.Args)
		c.Action = &a
	}
	return &c
}

// wfScribble overwrites an entry in place, as a caller reusing its
// buffers would: what the switch stores must not change with it.
func wfScribble(e *p4.Entry) {
	for i := range e.Keys {
		e.Keys[i] = p4.KeyValue{Value: 0x5C5C, Mask: 0xFF, Hi: 0x5C5C, PrefixLen: 7}
	}
	e.Priority = 1 << 20
	if e.Action != nil {
		for i := range e.Action.Args {
			e.Action.Args[i] = 0x5C5C
		}
	}
}

// wfSpec names each table's key kinds and which packet field feeds each
// key: 0 sel (8 bits), 1 k1 (32), 2 k2 (16).
var wfSpec = map[string]struct {
	kinds  []p4.MatchKind
	fields []int
}{
	"ex2":   {[]p4.MatchKind{p4.MatchExact, p4.MatchExact}, []int{1, 2}},
	"lpm1":  {[]p4.MatchKind{p4.MatchLPM}, []int{1}},
	"tern1": {[]p4.MatchKind{p4.MatchTernary}, []int{1}},
	"rng1":  {[]p4.MatchKind{p4.MatchRange}, []int{2}},
	"mix4":  {[]p4.MatchKind{p4.MatchExact, p4.MatchLPM, p4.MatchRange, p4.MatchTernary}, []int{0, 1, 2, 1}},
}

// out is the value the model says the packet leaves in h.out.
func (m *wfModel) out(sel uint8, k1 uint32, k2 uint16) uint64 {
	var table string
	switch {
	case sel >= 5:
		table = "mix4"
	case sel >= 1:
		table = wfTables[sel-1]
	default:
		return 0
	}
	spec := wfSpec[table]
	vals := [3]uint64{uint64(sel), uint64(k1), uint64(k2)}
	widths := [3]int{8, 32, 16}
	type hit struct {
		e     *p4.Entry
		score int
	}
	var hits []hit
	for _, e := range m.ents[table] {
		if len(e.Keys) != len(spec.kinds) {
			continue
		}
		score, ok := 0, true
		for i, kv := range e.Keys {
			v, w := vals[spec.fields[i]], widths[spec.fields[i]]
			switch spec.kinds[i] {
			case p4.MatchExact:
				ok = v == kv.Value
			case p4.MatchTernary:
				ok = v&kv.Mask == kv.Value&kv.Mask
				score -= e.Priority
			case p4.MatchRange:
				ok = kv.Value <= v && v <= kv.Hi
				score -= e.Priority
			case p4.MatchLPM:
				plen := max(kv.PrefixLen, 0)
				ok = plen <= w && (plen == 0 || v>>(w-plen) == kv.Value>>(w-plen))
				score = plen
			}
			if !ok {
				break
			}
		}
		if ok {
			hits = append(hits, hit{e, score})
		}
	}
	if len(hits) == 0 {
		return m.def[table]
	}
	sort.SliceStable(hits, func(i, j int) bool { return hits[i].score > hits[j].score })
	return hits[0].e.Action.Args[0]
}

// wfStateHash digests everything a refused batch must leave alone: the
// entry store, the default actions and the registers.
func wfStateHash(sw *Switch) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, t := range wfTables {
		h.Write([]byte(t))
		for _, e := range sw.Entries(t) {
			word(uint64(len(e.Keys)))
			for _, kv := range e.Keys {
				word(kv.Value)
				word(kv.Mask)
				word(kv.Hi)
				word(uint64(kv.PrefixLen))
			}
			word(uint64(e.Priority))
			word(e.Action.Args[0])
		}
		d := sw.findTable(t).Default
		h.Write([]byte(d.Name))
		for _, a := range d.Args {
			word(a)
		}
	}
	regs, _ := sw.ReadRegisters("r0")
	for _, v := range regs {
		word(v)
	}
	return h.Sum64()
}

// wfReader hands out fuzz bytes; an exhausted input reads as zeros.
type wfReader []byte

func (r *wfReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	v := (*r)[0]
	*r = (*r)[1:]
	return int(v)
}

// Small palettes, so that key tuples collide, prefixes nest and ranges
// overlap; 0x0000FFFF leaves sixteen free high bits, more than a
// diagram takes, so tern1 and mix4 drop to the scan and come back.
var (
	wfK1    = []uint64{0, 1, 0x0A00_0000, 0x0A00_0001, 0x0A00_00FF, 0x0A00_FF00, 0x8000_0000, 0xFFFF_FFFF}
	wfPlen  = []int{0, 1, 8, 16, 24, 31, 32, 33}
	wfMask  = []uint64{0, 0xFFFF_FFFF, 0xFF00_0000, 0xFFFF_0000, 0xFFFF_FF00, 0xFF0F_FF00, 0xFFFF_FFFE, 0x0000_FFFF}
	wfLo    = []uint64{0, 1, 100, 1000, 0x7FFF, 0xFFFF}
	wfWidth = []uint64{0, 1, 50, 5000, 0x1_FFFF}
)

func (r *wfReader) key(kind p4.MatchKind, field int) p4.KeyValue {
	switch kind {
	case p4.MatchLPM:
		return p4.KeyValue{Value: wfK1[r.next()%len(wfK1)], PrefixLen: wfPlen[r.next()%len(wfPlen)]}
	case p4.MatchTernary:
		return p4.KeyValue{Value: wfK1[r.next()%len(wfK1)], Mask: wfMask[r.next()%len(wfMask)]}
	case p4.MatchRange:
		lo := wfLo[r.next()%len(wfLo)]
		hi := lo + wfWidth[r.next()%len(wfWidth)]
		if r.next()%8 == 0 {
			hi = lo - 1 // empty
		}
		return p4.KeyValue{Value: lo, Hi: hi}
	}
	switch field {
	case 0:
		return kv(uint64(5 + r.next()%3))
	case 1:
		return kv(wfK1[r.next()%len(wfK1)])
	}
	return kv(wfLo[r.next()%len(wfLo)])
}

// entry draws an entry for table; one in sixteen has the wrong arity.
func (r *wfReader) entry(table string, out uint64) *p4.Entry {
	spec := wfSpec[table]
	n := len(spec.kinds)
	if r.next()%16 == 0 {
		n = 1 + n%2
	}
	e := entry("set_out", out, r.next()%4)
	for i := 0; i < n; i++ {
		j := i % len(spec.kinds)
		e.Keys = append(e.Keys, r.key(spec.kinds[j], spec.fields[j]))
	}
	return e
}

// op draws one batch op against the model's current entries, so that
// deletes and modifies usually name a live key tuple.
func (r *wfReader) op(m *wfModel, serial uint64) Op {
	table := wfTables[r.next()%len(wfTables)]
	live := m.ents[table]
	var pick *p4.Entry
	if len(live) > 0 {
		pick = live[r.next()%len(live)]
	}
	switch k := r.next() % 10; {
	case k < 3:
		if pick != nil && r.next()%4 == 0 {
			return Op{Kind: OpInsert, Table: table, Entry: wfCopy(pick)} // the same entry again
		}
		return Op{Kind: OpInsert, Table: table, Entry: r.entry(table, serial)}
	case k == 3:
		e := r.entry(table, serial)
		if pick != nil && r.next()%4 != 0 {
			e.Keys = slices.Clone(pick.Keys)
		}
		return Op{Kind: OpModify, Table: table, Entry: e}
	case k < 6:
		if pick != nil && r.next()%4 != 0 {
			return Op{Kind: OpDelete, Table: table, Keys: entryKeyVals(pick)}
		}
		return Op{Kind: OpDelete, Table: table, Keys: entryKeyVals(r.entry(table, 0))}
	case k == 6:
		if r.next()%2 == 0 {
			return Op{Kind: OpSetDefault, Table: table, Action: "miss_out"}
		}
		return Op{Kind: OpSetDefault, Table: table, Action: "set_out", Args: []uint64{serial}}
	case k == 7:
		return Op{Kind: OpRegisterWrite, Reg: "r0", Idx: r.next() % 10, Val: serial}
	case k == 8:
		return Op{Kind: OpDelete, Table: "nope", Keys: []uint64{1}} // removes nothing
	}
	// Ops that must refuse the whole batch.
	switch r.next() % 6 {
	case 0:
		return Op{Kind: OpInsert, Table: "nope", Entry: r.entry(table, serial)}
	case 1:
		return Op{Kind: OpInsert, Table: table}
	case 2:
		return Op{Kind: OpModify, Table: "nope", Entry: r.entry(table, serial)}
	case 3:
		return Op{Kind: OpSetDefault, Table: "nope", Action: "miss_out"}
	case 4:
		return Op{Kind: OpRegisterWrite, Reg: "nope"}
	}
	return Op{Kind: OpKind(99)}
}

// wfProbes draws packets at the edges of the model's live rules and
// some anywhere.
func wfProbes(rng *rand.Rand, m *wfModel) (sels []uint8, k1s []uint32, k2s []uint16) {
	for sel := uint8(0); sel <= 7; sel++ {
		table := "mix4"
		if sel >= 1 && sel <= 4 {
			table = wfTables[sel-1]
		}
		ents := m.ents[table]
		for i := 0; i < 6; i++ {
			k1, k2 := rng.Uint32(), uint16(rng.Uint32())
			if len(ents) > 0 && i < 5 {
				e := ents[rng.Intn(len(ents))]
				spec := wfSpec[table]
				for j, kv := range e.Keys {
					if j >= len(spec.fields) {
						break
					}
					v := kv.Value
					switch rng.Intn(4) {
					case 0:
						v = kv.Hi
					case 1:
						v++
					case 2:
						v |= uint64(rng.Intn(256))
					}
					switch spec.fields[j] {
					case 1:
						k1 = uint32(v)
					case 2:
						k2 = uint16(v)
					}
				}
			}
			sels, k1s, k2s = append(sels, sel), append(k1s, k1), append(k2s, k2)
		}
	}
	return sels, k1s, k2s
}

// FuzzWriteBatch interleaves random op batches — inserts, modifies and
// deletes on exact, LPM, ternary, range and mixed tables, default and
// register writes, and ops that must refuse their batch — with probe
// packets. After every batch the switch agrees with the model on which
// ops refused and what each removed, a refused batch leaves the store,
// defaults, registers and published generation as they were, and
// every probe leaves the value the model predicts.
func FuzzWriteBatch(f *testing.F) {
	f.Add([]byte{1, 0, 0, 3, 0, 0, 1, 0, 0, 0, 3, 0, 0, 1, 0, 0, 0, 4, 0, 0, 1})
	f.Add([]byte{3, 1, 0, 0, 0, 2, 4, 1, 3, 1, 0, 0, 3, 2, 0, 9, 1, 1, 0, 4, 1})
	f.Add([]byte{5, 4, 0, 2, 0, 1, 2, 3, 1, 0, 4, 0, 0, 5, 2, 1, 1, 4, 1, 1, 3, 0, 2, 2, 0, 1, 9, 0})
	f.Add([]byte{2, 2, 0, 1, 0, 7, 3, 2, 0, 4, 1, 9, 2, 2, 1, 0, 0, 3, 5, 2, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		sw := New(wfProg())
		if sw.CompileErr() != nil {
			t.Fatalf("not compiled: %v", sw.CompileErr())
		}
		m := newWFModel()
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		r := wfReader(data)
		serial := uint64(1000)
		for step := 0; len(r) > 0 && step < 64; step++ {
			b := NewWriteBatch()
			for n := 1 + r.next()%6; n > 0; n-- {
				serial++
				b.Ops = append(b.Ops, r.op(m, serial))
			}
			next, refuse := m.clone(), -1
			removed := make([]int, len(b.Ops))
			for i := range b.Ops {
				var ok bool
				if removed[i], ok = next.apply(&b.Ops[i]); !ok {
					refuse = i
					break
				}
			}
			hash, gen := wfStateHash(sw), sw.prog.gen.Load()
			res, err := sw.Write(b)
			if refuse >= 0 {
				var be *BatchError
				if !errors.As(err, &be) || be.Index != refuse {
					t.Fatalf("step %d: want op %d refused, got %v (ops %+v)", step, refuse, err, b.Ops)
				}
				if wfStateHash(sw) != hash || sw.prog.gen.Load() != gen {
					t.Fatalf("step %d: refused batch changed switch state (ops %+v)", step, b.Ops)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: %v (ops %+v)", step, err, b.Ops)
				}
				for i, n := range removed {
					if res.Removed[i] != n {
						t.Fatalf("step %d: op %d removed %d, model %d (ops %+v)", step, i, res.Removed[i], n, b.Ops)
					}
				}
				m = next
			}
			// The batch is in: overwrite everything the caller handed
			// over, then every entry Entries hands out, after checking it
			// against the model.
			for i := range b.Ops {
				if op := &b.Ops[i]; op.Entry != nil {
					wfScribble(op.Entry)
				}
				for j := range b.Ops[i].Keys {
					b.Ops[i].Keys[j] = 0x5C5C
				}
				for j := range b.Ops[i].Args {
					b.Ops[i].Args[j] = 0x5C5C
				}
			}
			for _, table := range wfTables {
				got, want := sw.Entries(table), m.ents[table]
				if len(got) != len(want) {
					t.Fatalf("step %d: %s: %d entries, model %d", step, table, len(got), len(want))
				}
				for i, e := range got {
					w := want[i]
					if !slices.Equal(e.Keys, w.Keys) || e.Priority != w.Priority || e.Action.Name != w.Action.Name || !slices.Equal(e.Action.Args, w.Action.Args) {
						t.Fatalf("step %d: %s entry %d: %+v %+v, model %+v %+v", step, table, i, e, e.Action, w, w.Action)
					}
					wfScribble(e)
				}
			}
			for i, v := range m.regs {
				if got, _ := sw.RegisterRead("r0", i); got != v {
					t.Fatalf("step %d: r0[%d] = %d, model %d", step, i, got, v)
				}
			}
			sels, k1s, k2s := wfProbes(rng, m)
			for i, sel := range sels {
				res, err := sw.Process(matcherPkt(sel, k1s[i], k2s[i]), 0)
				if err != nil {
					t.Fatalf("step %d: probe sel=%d: %v", step, sel, err)
				}
				if got, want := uint64(matcherOut(t, res)), m.out(sel, k1s[i], k2s[i]); got != want {
					t.Fatalf("step %d: probe sel=%d k1=%#x k2=%#x: out %d, model %d", step, sel, k1s[i], k2s[i], got, want)
				}
			}
		}
	})
}
