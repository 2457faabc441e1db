package p4rt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
)

// wireSpec spells a frame body field by field, as wire.go's header
// comment lays it out, and records where each count sits.
type wireSpec struct {
	b      []byte
	counts []int
}

func (w *wireSpec) count(n int) *wireSpec {
	w.counts = append(w.counts, len(w.b))
	w.b = binary.AppendUvarint(w.b, uint64(n))
	return w
}

func (w *wireSpec) str(s string) *wireSpec {
	w.count(len(s))
	w.b = append(w.b, s...)
	return w
}

func (w *wireSpec) u(vs ...uint64) *wireSpec {
	for _, v := range vs {
		w.b = binary.AppendUvarint(w.b, v)
	}
	return w
}

func (w *wireSpec) i(vs ...int64) *wireSpec {
	for _, v := range vs {
		w.b = binary.AppendVarint(w.b, v)
	}
	return w
}

func decodeRequest(b []byte) (*msg, error) {
	return new(wireReader).read(bytes.NewReader(b), kindRRead, kindWrite)
}

// TestOpListRoundTrip pushes every op kind — including the awkward
// corners: nil entries, nil actions, lpm prefix -1, ternary masks,
// priorities, empty key tuples — through the frame codec, pins the
// byte layout, and checks that truncation anywhere and an oversized
// value at any count position fail with a typed error.
func TestOpListRoundTrip(t *testing.T) {
	in := []Op{
		{Kind: OpInsert, Table: "fwd", Entry: &p4.Entry{
			Keys:   []p4.KeyValue{{Value: 7, PrefixLen: -1}, {Value: 9, Mask: 0xFF, Hi: 12, PrefixLen: 24}},
			Action: &p4.ActionCall{Name: "set_out", Args: []uint64{1, 1 << 60}},
		}},
		{Kind: OpModify, Table: "fwd", Entry: &p4.Entry{
			Keys:     []p4.KeyValue{{Value: 3, PrefixLen: -1}},
			Priority: -5,
		}},
		{Kind: OpInsert, Table: "fwd"}, // nil entry (server rejects, wire must carry)
		{Kind: OpDelete, Table: "fwd", Keys: []uint64{7, 9}},
		{Kind: OpDelete, Table: "other"}, // empty tuple
		{Kind: OpRegisterWrite, Reg: "r0", Idx: 3, Val: ^uint64(0)},
		{Kind: OpSetDefault, Table: "fwd", Action: "miss", Args: []uint64{42}},
		{Kind: OpSetDefault, Table: "fwd", Action: "drop"},
	}
	spec := new(wireSpec).count(len(in)).
		u(uint64(OpInsert)).str("fwd").u(1).count(2).u(7, 0, 0).i(-1).u(9, 0xFF, 12).i(24).
		i(0).u(1).str("set_out").count(2).u(1, 1<<60).
		u(uint64(OpModify)).str("fwd").u(1).count(1).u(3, 0, 0).i(-1).i(-5).u(0).
		u(uint64(OpInsert)).str("fwd").u(0).
		u(uint64(OpDelete)).str("fwd").count(2).u(7, 9).
		u(uint64(OpDelete)).str("other").count(0).
		u(uint64(OpRegisterWrite)).str("r0").i(3).u(^uint64(0)).
		u(uint64(OpSetDefault)).str("fwd").str("miss").count(1).u(42).
		u(uint64(OpSetDefault)).str("fwd").str("drop").count(0)

	b, err := appendFrame(nil, &msg{kind: kindWrite, ops: in})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if want := frame(wireVersion, kindWrite, spec.b...); !bytes.Equal(b, want) {
		t.Fatalf("layout:\n got %x\nwant %x", b, want)
	}
	out, err := decodeRequest(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out.ops) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out.ops)
	}

	// Truncation at any prefix must error, not panic or misread: a
	// stream cut inside the frame, and a body cut under an honest
	// length prefix.
	for i := 1; i < len(b); i++ {
		if _, err := decodeRequest(b[:i]); !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("decode of %d/%d bytes: %v", i, len(b), err)
		}
		if i >= 6 {
			if _, err := decodeRequest(frame(wireVersion, kindWrite, b[6:i]...)); !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("decode of a %d/%d-byte body: %v", i-6, len(b)-6, err)
			}
		}
	}

	// An oversized count at any count position is refused before it
	// allocates: 2^40, and the whole frame's length.
	for _, at := range spec.counts {
		_, n := binary.Uvarint(spec.b[at:])
		for _, v := range []uint64{1 << 40, uint64(len(b))} {
			body := binary.AppendUvarint(slices.Clip(spec.b[:at]), v)
			body = append(body, spec.b[at+n:]...)
			if _, err := decodeRequest(frame(wireVersion, kindWrite, body...)); !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("count %d at offset %d: %v", v, at, err)
			}
		}
	}
}

func TestOpListEncodeUnknownKind(t *testing.T) {
	_, err := appendFrame(nil, &msg{kind: kindWrite, ops: []Op{{Kind: OpDelete}, {Kind: OpKind(99)}}})
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("want a *BatchError at op 1 for unknown op kind, got %v", err)
	}
	if _, err := decodeRequest(frame(wireVersion, kindWrite, 1, 99, 0, 0)); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("want a malformed-frame error decoding unknown op kind, got %v", err)
	}
}

// TestDecodeAllocBounded checks maxFrame's promise: decoding allocates
// at most ~45× the frame, both for the worst well-formed frame (as many
// minimal deletes as fit) and for counts that claim every byte left.
func TestDecodeAllocBounded(t *testing.T) {
	const n = 1 << 16
	deletes := new(wireSpec).count(n / 3)
	for i := 0; i < n/3; i++ {
		deletes.u(uint64(OpDelete)).str("").count(0)
	}
	zeros := make([]byte, n)
	frames := map[string][]byte{
		"minimal deletes":       frame(wireVersion, kindWrite, deletes.b...),
		"op count = bytes left": frame(wireVersion, kindWrite, append(binary.AppendUvarint(nil, n), zeros...)...),
		"key count = bytes left": frame(wireVersion, kindWrite,
			append(new(wireSpec).count(1).u(uint64(OpInsert)).str("").u(1).count(n).b, zeros...)...),
		"removed count = bytes left": frame(wireVersion, kindResp, append([]byte{0, 1, 0, 0}, append(binary.AppendUvarint(nil, n), zeros...)...)...),
	}
	for name, f := range frames {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		new(wireReader).read(bytes.NewReader(f), kindWrite, kindResp)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 46*uint64(len(f)) {
			t.Errorf("%s: decoding %d bytes allocated %d (%.0f×)", name, len(f), got, float64(got)/float64(len(f)))
		}
	}
}

// TestResponseCodes checks the response codec: a failed batch comes
// back as its *BatchError, an error outside the set as its text alone
// (never as success), and a code outside the set is malformed.
func TestResponseCodes(t *testing.T) {
	roundTrip := func(err error) error {
		resp := msg{kind: kindResp}
		resp.setErr(err)
		b, _ := appendFrame(nil, &resp)
		m, rerr := new(wireReader).read(bytes.NewReader(b), kindResp)
		if rerr != nil {
			t.Fatalf("%v: %v", err, rerr)
		}
		return m.err()
	}
	var be *BatchError
	err := roundTrip(&BatchError{Index: 3, Err: fmt.Errorf("modify in %q: %w %v", "fwd", bmv2.ErrNoMatch, []uint64{5})})
	if !errors.As(err, &be) || be.Index != 3 || !errors.Is(be, bmv2.ErrNoMatch) ||
		be.Err.Error() != `modify in "fwd": no entry matches key tuple [5]` {
		t.Fatalf("batch error round trip: %v", err)
	}
	err = roundTrip(errors.New("device offline"))
	if err == nil || err.Error() != "device offline" || errors.As(err, &be) {
		t.Fatalf("other error round trip: %v", err)
	}
	for _, code := range codes[1:codeOther] {
		if errors.Is(err, code) {
			t.Fatalf("other error matches %v", code)
		}
	}
	for _, code := range []uint64{codeOther + 1, 1 << 40} {
		body := append(binary.AppendUvarint(nil, code), 1, 0, 0, 0)
		if _, err := new(wireReader).read(bytes.NewReader(frame(wireVersion, kindResp, body...)), kindResp); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("code %d: want a malformed-frame error, got %v", code, err)
		}
	}
}

// TestNamePoolBounded decodes 10⁴ distinct junk names on one
// connection's reader and checks that the name pool stays capped and
// that nothing they allocated outlives its frame.
func TestNamePoolBounded(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var d wireReader
	name := bytes.Repeat([]byte{'x'}, 100)
	before := heap()
	for f := 0; f < 100; f++ {
		spec := new(wireSpec).count(100)
		for i := 0; i < 100; i++ {
			copy(name, fmt.Sprintf("junk%06d", f*100+i))
			spec.u(uint64(OpDelete)).str(string(name)).count(0)
		}
		if _, err := d.read(bytes.NewReader(frame(wireVersion, kindWrite, spec.b...)), kindWrite); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.strs) > maxStrs {
		t.Fatalf("name pool holds %d names, cap %d", len(d.strs), maxStrs)
	}
	// 10⁴ names of 100 bytes are ~1 MiB if anything keeps them.
	if grew := int64(heap()) - int64(before); grew > 256<<10 {
		t.Fatalf("heap grew %d bytes over 10⁴ decoded names", grew)
	}
	runtime.KeepAlive(&d)
}

// FuzzP4RTFrame feeds arbitrary bytes to both frame decoders. Neither
// may panic; each returns a value or a typed error (io.EOF only for an
// empty stream); and a decoded value re-encodes to bytes that decode to
// the same value. The seed corpus (testdata/fuzz/FuzzP4RTFrame) has one
// request frame per op kind, a register read, a response, and the two
// frames that once crashed the server: an op count of 2^40 and a length
// prefix of 0xFFFFFFFF.
func FuzzP4RTFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kinds := range [][]byte{{kindRRead, kindWrite}, {kindResp}} {
			m, err := new(wireReader).read(bytes.NewReader(data), kinds...)
			if err != nil {
				if !errors.Is(err, ErrMalformedFrame) && !errors.Is(err, ErrUnsupportedVersion) && (len(data) > 0 || err != io.EOF) {
					t.Fatalf("untyped error %v", err)
				}
				continue
			}
			b, err := appendFrame(nil, m)
			if err != nil {
				t.Fatalf("re-encode %+v: %v", m, err)
			}
			if again, err := new(wireReader).read(bytes.NewReader(b), kinds...); err != nil || !reflect.DeepEqual(m, again) {
				t.Fatalf("round trip: %+v -> %+v (%v)", m, again, err)
			}
			_ = m.err() // a response's error rebuilds without panicking
		}
	})
}
