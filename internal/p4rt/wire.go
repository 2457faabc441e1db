package p4rt

// wire.go is the p4rt wire protocol, one hand-packed frame for both
// directions. A body is uvarints, varints (signed fields) and strings (a
// uvarint length and the bytes):
//
//	frame    = u32 length (big-endian, of what follows) · version byte · kind byte · body
//	rread    = name · varint index
//	write    = count · op*  (op = kind · its fields, as appendOp writes them)
//	response = code · varint failed-op index · detail · value · count · removed*

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
)

// wireVersion is the revision spoken: 4 is the frame above; 3 was gob.
const wireVersion = 4

const kindRRead, kindWrite, kindResp byte = 1, 2, 3 // frame kinds

// maxFrame caps a frame's length: a frame is held whole and decoding
// inflates it at most ~45× (a 3-byte delete becomes a 128-byte Op), so
// one frame costs the server at most ~45 MiB. 1 MiB still carries a
// 10k-op churn burst at under 50 bytes per op.
const maxFrame = 1 << 20

// Transport failures: the frame, not the device, is at fault.
var (
	ErrUnsupportedVersion = errors.New("p4rt: unsupported wire version")
	ErrMalformedFrame     = errors.New("p4rt: malformed frame")
)

// codes is the closed set of errors that cross the wire, indexed by
// code (0: success; codeOther: any other error, as its text only). The
// client rebuilds each so errors.Is, *BatchError and the text match Direct.
var codes = [...]error{nil,
	bmv2.ErrNoTable, bmv2.ErrNoRegister, bmv2.ErrRegisterRange,
	bmv2.ErrNilEntry, bmv2.ErrNoMatch, bmv2.ErrUnknownOp,
	ErrUnsupportedVersion, ErrMalformedFrame,
	nil, // codeOther
}

const codeOther = uint64(len(codes) - 1)

// remoteError is a device's error text rebuilt around its code.
type remoteError struct {
	msg  string
	code error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.code }

// msg is one frame: a request (kindRRead, kindWrite) or a response.
type msg struct {
	kind    byte
	reg     string // rread
	idx     int    // rread
	ops     []Op   // write
	code    uint64 // response: 0 or the error's code
	index   int    // response: the failed op, -1 when the error names none
	detail  string // response: the error's text
	val     uint64 // response to rread
	removed []int  // response to write
}

// setErr records err in a response.
func (m *msg) setErr(err error) {
	m.index = -1
	if be, ok := err.(*BatchError); ok {
		m.index, err = be.Index, be.Err
	}
	c := slices.IndexFunc(codes[1:], func(c error) bool { return c == nil || errors.Is(err, c) })
	m.code, m.detail = uint64(c+1), err.Error() // codeOther's nil matches any error
}

// err rebuilds the error a response carries.
func (m *msg) err() error {
	if m.code == 0 {
		return nil
	}
	var err error = &remoteError{m.detail, codes[m.code]}
	if m.index >= 0 {
		err = &BatchError{Index: m.index, Err: err}
	}
	return err
}

// appendFrame appends m as one frame. An op of unknown kind fails its
// batch here, with the error Switch.Write would return for it.
func appendFrame(b []byte, m *msg) ([]byte, error) {
	at := len(b)
	b = append(b, 0, 0, 0, 0, wireVersion, m.kind)
	switch m.kind {
	case kindRRead:
		b = binary.AppendVarint(appendStr(b, m.reg), int64(m.idx))
	case kindWrite:
		b = binary.AppendUvarint(b, uint64(len(m.ops)))
		for i := range m.ops {
			if b = appendOp(b, &m.ops[i]); b == nil {
				return nil, &BatchError{Index: i, Err: fmt.Errorf("%w %d", bmv2.ErrUnknownOp, m.ops[i].Kind)}
			}
		}
	default:
		b = appendStr(binary.AppendVarint(binary.AppendUvarint(b, m.code), int64(m.index)), m.detail)
		b = appendUvarints(binary.AppendUvarint(b, m.val), m.removed)
	}
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b, nil
}

// appendOp appends one op, or returns nil for an unknown kind.
func appendOp(b []byte, op *Op) []byte {
	b = binary.AppendUvarint(b, uint64(op.Kind))
	switch op.Kind {
	case OpInsert, OpModify:
		return appendEntry(appendStr(b, op.Table), op.Entry)
	case OpDelete:
		return appendUvarints(appendStr(b, op.Table), op.Keys)
	case OpRegisterWrite:
		return binary.AppendUvarint(binary.AppendVarint(appendStr(b, op.Reg), int64(op.Idx)), op.Val)
	case OpSetDefault:
		return appendUvarints(appendStr(appendStr(b, op.Table), op.Action), op.Args)
	}
	return nil
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendUvarints[T int | uint64](b []byte, vs []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

func appendEntry(b []byte, e *p4.Entry) []byte {
	if e == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(append(b, 1), uint64(len(e.Keys)))
	for _, k := range e.Keys {
		b = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(b, k.Value), k.Mask), k.Hi)
		b = binary.AppendVarint(b, int64(k.PrefixLen))
	}
	b = binary.AppendVarint(b, int64(e.Priority))
	if e.Action == nil {
		return append(b, 0)
	}
	return appendUvarints(appendStr(append(b, 1), e.Action.Name), e.Action.Args)
}

const maxStrs = 32 // well above one program's table, register and action names

// wireReader decodes the frames of one connection. It trusts nothing:
// a frame over maxFrame is refused unread, every count is checked
// before anything is allocated, and the first error is latched so the
// per-op code stays straight-line. No decoded value aliases the frame;
// a write's ops, entries, keys and arguments live in storage the next
// read reuses (Client.Write keeps nothing of a batch).
type wireReader struct {
	hdr  [4]byte
	buf  []byte // the connection's frame buffer
	b    []byte // what is left of the frame being decoded
	err  error
	strs []string // interned: a control stream repeats a few names

	m     msg // what read returns
	ops   slab[Op]
	boxes slab[entryBox]
	keys  slab[p4.KeyValue]
	words slab[uint64]
}

// entryBox is one decoded entry and its action, allocated together.
type entryBox struct {
	e p4.Entry
	a p4.ActionCall
}

// slab hands out a frame's slices of T from a reused array, then just
// what is asked (nil: always that); reset sizes it to what the last
// frame took, so frames of one shape decode without allocating.
type slab[T any] struct {
	buf  []T
	took int
}

func (s *slab[T]) reset() {
	if s.took > cap(s.buf) || 4*s.took < cap(s.buf) {
		s.buf = make([]T, 0, s.took)
	}
	s.buf, s.took = s.buf[:0], 0
}

func (s *slab[T]) take(n int) []T {
	if s == nil {
		return make([]T, n)
	}
	if s.took += n; len(s.buf)+n > cap(s.buf) {
		return make([]T, n)
	}
	t := s.buf[len(s.buf) : len(s.buf)+n : len(s.buf)+n]
	s.buf = s.buf[:len(s.buf)+n]
	clear(t)
	return t
}

// read reads one frame of a wanted kind; a clean end of stream is io.EOF.
func (d *wireReader) read(r io.Reader, kinds ...byte) (*msg, error) {
	_, err := io.ReadFull(r, d.hdr[:])
	if n := binary.BigEndian.Uint32(d.hdr[:]); err == nil && (n < 2 || n > maxFrame) {
		return nil, fmt.Errorf("%w: frame length %d outside [2, %d]", ErrMalformedFrame, n, maxFrame)
	} else if err == nil {
		d.buf = slices.Grow(d.buf[:0], int(n))[:n]
		if _, err = io.ReadFull(r, d.buf); err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	if err == io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("%w: truncated frame", ErrMalformedFrame)
	} else if err != nil {
		return nil, err
	}
	if d.buf[0] != wireVersion {
		return nil, fmt.Errorf("%w %d (speak %d)", ErrUnsupportedVersion, d.buf[0], wireVersion)
	}
	if !slices.Contains(kinds, d.buf[1]) {
		return nil, fmt.Errorf("%w: unexpected kind %d", ErrMalformedFrame, d.buf[1])
	}
	m := &d.m
	*m = msg{kind: d.buf[1]}
	d.b, d.err = d.buf[2:], nil
	switch m.kind {
	case kindRRead:
		m.reg, m.idx = d.str(), int(d.varint())
	case kindWrite:
		d.ops.reset()
		d.boxes.reset()
		d.keys.reset()
		d.words.reset()
		m.ops = d.readOps()
	default:
		m.code, m.index, m.detail, m.val = d.uvarint(), int(d.varint()), d.str(), d.uvarint()
		m.removed = uvarints[int](d, nil)
		if m.code > codeOther {
			d.failf("unknown error code %d", m.code)
		}
	}
	if d.err == nil && len(d.b) > 0 {
		d.failf("%d trailing bytes", len(d.b))
	}
	return m, d.err
}

func (d *wireReader) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrMalformedFrame}, args...)...)
	}
}

// skip consumes an n-byte field; n ≤ 0 means the frame ended inside it.
func (d *wireReader) skip(n int) {
	if n <= 0 {
		d.failf("truncated body")
		return
	}
	d.b = d.b[n:]
}

func (d *wireReader) uvarint() uint64 { v, n := binary.Uvarint(d.b); d.skip(n); return v }
func (d *wireReader) varint() int64   { v, n := binary.Varint(d.b); d.skip(n); return v }

// count reads an element count and checks that the rest of the frame
// holds that many elements of at least min bytes each.
func (d *wireReader) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/min) {
		d.failf("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// str decodes a string, interning the connection's first maxStrs.
func (d *wireReader) str() string {
	n := d.count(1)
	b := d.b[:n]
	d.b = d.b[n:]
	if i := slices.IndexFunc(d.strs, func(s string) bool { return s == string(b) }); i >= 0 {
		return d.strs[i]
	}
	s := string(b)
	if len(d.strs) < maxStrs {
		d.strs = append(d.strs, s)
	}
	return s
}

func (d *wireReader) readOps() []Op {
	out := d.ops.take(d.count(3)) // an op takes at least a kind and two counts
	for i := 0; i < len(out) && d.err == nil; i++ {
		op := &out[i]
		op.Kind = OpKind(d.uvarint())
		switch op.Kind {
		case OpInsert, OpModify:
			op.Table, op.Entry = d.str(), d.entry()
		case OpDelete:
			op.Table, op.Keys = d.str(), uvarints(d, &d.words)
		case OpRegisterWrite:
			op.Reg, op.Idx, op.Val = d.str(), int(d.varint()), d.uvarint()
		case OpSetDefault:
			op.Table, op.Action, op.Args = d.str(), d.str(), uvarints(d, &d.words)
		default:
			d.failf("op %d: unknown op kind %d", i, op.Kind)
		}
	}
	return out
}

// uvarints decodes a counted tuple into storage from s (nil when empty).
func uvarints[T int | uint64](d *wireReader, s *slab[T]) []T {
	var out []T
	if n := d.count(1); n > 0 {
		out = s.take(n)
	}
	for i := range out {
		out[i] = T(d.uvarint())
	}
	return out
}

func (d *wireReader) entry() *p4.Entry {
	if d.uvarint() == 0 {
		return nil
	}
	box := &d.boxes.take(1)[0]
	e := &box.e
	if n := d.count(4); n > 0 { // a key is four varints
		e.Keys = d.keys.take(n)
		for i := range e.Keys {
			k := &e.Keys[i]
			k.Value, k.Mask, k.Hi, k.PrefixLen = d.uvarint(), d.uvarint(), d.uvarint(), int(d.varint())
		}
	}
	e.Priority = int(d.varint())
	if d.uvarint() != 0 {
		box.a = p4.ActionCall{Name: d.str(), Args: uvarints(d, &d.words)}
		e.Action = &box.a
	}
	return e
}
