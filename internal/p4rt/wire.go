package p4rt

// wire.go is the compact encoding of a write batch's op list. The
// request/response frames stay gob (self-describing, versioned), but a
// batch's ops ride inside the frame as one hand-packed byte string:
// gob's per-field reflection over []Op — five struct types deep — cost
// about half the per-op budget of a batched TCP write, and all of it
// is avoidable because the op vocabulary is closed. Varint packing
// also shrinks NetCache-scale churn frames several-fold on the wire.
//
// Table, register, and action names repeat in every op of a control
// stream, so the decoder interns them: a 10k-op churn burst allocates
// each name once, not 10k times.

import (
	"encoding/binary"
	"fmt"
	"sync"

	"netcl/internal/p4"
)

// opList carries request.Ops through gob via the custom codec below.
type opList []Op

// GobEncode packs the op list into one byte string.
func (ops opList) GobEncode() ([]byte, error) {
	// Sized for small key/arg tuples; AppendUvarint grows as needed.
	b := make([]byte, 0, 16+24*len(ops))
	b = binary.AppendUvarint(b, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		b = append(b, byte(op.Kind))
		switch op.Kind {
		case OpInsert, OpModify:
			b = appendStr(b, op.Table)
			b = appendEntry(b, op.Entry)
		case OpDelete:
			b = appendStr(b, op.Table)
			b = appendU64s(b, op.Keys)
		case OpRegisterWrite:
			b = appendStr(b, op.Reg)
			b = binary.AppendUvarint(b, uint64(op.Idx))
			b = binary.AppendUvarint(b, op.Val)
		case OpSetDefault:
			b = appendStr(b, op.Table)
			b = appendStr(b, op.Action)
			b = appendU64s(b, op.Args)
		default:
			return nil, fmt.Errorf("p4rt: encode unknown op kind %d", op.Kind)
		}
	}
	return b, nil
}

// GobDecode unpacks an op list; it is the inverse of GobEncode.
func (ops *opList) GobDecode(b []byte) error {
	d := wireReader{b: b}
	n := d.uvarint()
	out := make([]Op, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		op := Op{Kind: OpKind(d.byte())}
		switch op.Kind {
		case OpInsert, OpModify:
			op.Table = d.name()
			op.Entry = d.entry()
		case OpDelete:
			op.Table = d.name()
			op.Keys = d.u64s(false)
		case OpRegisterWrite:
			op.Reg = d.name()
			op.Idx = int(d.uvarint())
			op.Val = d.uvarint()
		case OpSetDefault:
			op.Table = d.name()
			op.Action = d.name()
			op.Args = d.u64s(true)
		default:
			if d.err == nil {
				d.err = fmt.Errorf("p4rt: decode unknown op kind %d", op.Kind)
			}
		}
		out = append(out, op)
	}
	*ops = out
	return d.err
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendU64s(b []byte, vs []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func appendEntry(b []byte, e *p4.Entry) []byte {
	if e == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.AppendUvarint(b, uint64(len(e.Keys)))
	for i := range e.Keys {
		k := &e.Keys[i]
		b = binary.AppendUvarint(b, k.Value)
		b = binary.AppendUvarint(b, k.Mask)
		b = binary.AppendUvarint(b, k.Hi)
		b = binary.AppendVarint(b, int64(k.PrefixLen))
	}
	b = binary.AppendVarint(b, int64(e.Priority))
	if e.Action == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendStr(b, e.Action.Name)
	return appendU64s(b, e.Action.Args)
}

// wireReader decodes the packed form, latching the first error so the
// per-op code stays straight-line. What the switch keeps — an entry
// with its keys and action, a default action's arguments — is
// allocated on its own, so a long-lived entry holds only its own
// memory. Delete tuples, which die with the batch, come from one
// shared arena: a few allocations per frame instead of one per op.
type wireReader struct {
	b   []byte
	err error

	u64a []uint64
}

func (d *wireReader) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("p4rt: truncated op list")
	}
}

func (d *wireReader) byte() byte {
	if d.err != nil || len(d.b) == 0 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *wireReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *wireReader) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// name decodes a string through the intern pool.
func (d *wireReader) name() string {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	s := internName(d.b[:n])
	d.b = d.b[n:]
	return s
}

// u64s decodes a tuple; keep gives it its own allocation.
func (d *wireReader) u64s(keep bool) []uint64 {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.b)) { // each value costs at least one byte
		d.fail()
		return nil
	}
	var out []uint64
	if keep {
		out = make([]uint64, n)
	} else {
		if cap(d.u64a)-len(d.u64a) < int(n) {
			d.u64a = make([]uint64, 0, max(64, int(n)))
		}
		s := len(d.u64a)
		d.u64a = d.u64a[:s+int(n)]
		out = d.u64a[s:len(d.u64a):len(d.u64a)]
	}
	for i := range out {
		out[i] = d.uvarint()
	}
	return out
}

func (d *wireReader) entry() *p4.Entry {
	if d.byte() == 0 {
		return nil
	}
	// One allocation for the entry and its action.
	box := &struct {
		e p4.Entry
		a p4.ActionCall
	}{}
	e := &box.e
	nk := d.uvarint()
	if d.err != nil || nk > uint64(len(d.b)) {
		d.fail()
		return e
	}
	if nk > 0 {
		e.Keys = make([]p4.KeyValue, nk)
		for i := range e.Keys {
			k := &e.Keys[i]
			k.Value = d.uvarint()
			k.Mask = d.uvarint()
			k.Hi = d.uvarint()
			k.PrefixLen = int(d.varint())
		}
	}
	e.Priority = int(d.varint())
	if d.byte() == 1 {
		box.a.Name = d.name()
		box.a.Args = d.u64s(true)
		e.Action = &box.a
	}
	return e
}

// internName returns a canonical string for b. Control streams repeat
// the same few table/register/action names in every op; the pool is
// bounded by the number of distinct names the programs use.
var (
	internMu sync.RWMutex
	interned = map[string]string{}
)

func internName(b []byte) string {
	internMu.RLock()
	s, ok := interned[string(b)] // no alloc: map lookup keyed by []byte
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	interned[s] = s
	internMu.Unlock()
	return s
}
