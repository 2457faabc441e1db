package runtime

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"netcl/internal/wire"
)

// Differential fuzzing of the message codec against its oracle, the
// byte-at-a-time pack and unpack below: Pack against PackAppend (fresh
// buffer vs append-into-pooled-buffer must be byte-identical), both
// against packBytewise, and UnpackInto against unpackBytewise on what
// was packed and on raw bytes, including the nil-slice conventions
// (pack zeros, skip on unpack), short-input rejection and malformed
// specifications. The fuzz input is interpreted as a little
// spec-and-values program so the corpus explores layouts, not just
// payloads.

// packBytewise is the oracle of PackAppend: one byte per iteration.
func packBytewise(dst []byte, spec *MessageSpec, hdr wire.Header, args [][]uint64) ([]byte, error) {
	if len(args) != len(spec.Args) {
		return dst, fmt.Errorf("pack: %d argument slots for %d-argument specification %s", len(args), len(spec.Args), spec)
	}
	buf := hdr.Marshal(dst)
	for i, a := range spec.Args {
		vals := args[i]
		if vals != nil && len(vals) != a.Count {
			return dst, fmt.Errorf("pack: argument %d (%s) needs %d elements, got %d", i, a.Name, a.Count, len(vals))
		}
		for k := 0; k < a.Count; k++ {
			var v uint64
			if vals != nil {
				v = vals[k]
			}
			for b := a.Bytes - 1; b >= 0; b-- {
				buf = append(buf, byte(v>>(8*uint(b))))
			}
		}
	}
	return buf, nil
}

// unpackBytewise is the oracle of UnpackInto: one byte per iteration.
func unpackBytewise(spec *MessageSpec, data []byte, args [][]uint64) (wire.Header, error) {
	var hdr wire.Header
	rest, ok := hdr.Unmarshal(data)
	if !ok {
		return hdr, errUnpackShort
	}
	if len(args) != len(spec.Args) {
		return hdr, errArgSlots
	}
	if len(rest) < spec.DataBytes() {
		return hdr, errUnpackDataShort
	}
	off := 0
	for i, a := range spec.Args {
		vals := args[i]
		if vals != nil && len(vals) != a.Count {
			return hdr, errArgLen
		}
		for k := 0; k < a.Count; k++ {
			var v uint64
			for b := 0; b < a.Bytes; b++ {
				v = v<<8 | uint64(rest[off+b])
			}
			if vals != nil {
				vals[k] = v
			}
			off += a.Bytes
		}
	}
	return hdr, nil
}

// fuzzSpec derives a MessageSpec plus argument values from raw bytes.
func fuzzSpec(data []byte) (*MessageSpec, [][]uint64, []byte) {
	if len(data) < 2 {
		return nil, nil, nil
	}
	nargs := int(data[0]%5) + 1 // 1..5 arguments
	sizes := []int{1, 2, 4, 8}
	spec := &MessageSpec{Comp: 1}
	args := make([][]uint64, 0, nargs)
	rest := data[1:]
	take := func() byte {
		if len(rest) == 0 {
			return 0
		}
		b := rest[0]
		rest = rest[1:]
		return b
	}
	for i := 0; i < nargs; i++ {
		ctl := take()
		a := ArgSpec{
			Name:  "a",
			Bytes: sizes[int(ctl)%len(sizes)],
			Count: int(ctl/4)%6 + 1, // 1..6 elements
		}
		spec.Args = append(spec.Args, a)
		if ctl&0x80 != 0 {
			args = append(args, nil) // the NULL convention: pack zeros
			continue
		}
		vals := make([]uint64, a.Count)
		for k := range vals {
			var raw [8]byte
			for b := range raw {
				raw[b] = take()
			}
			vals[k] = binary.BigEndian.Uint64(raw[:])
		}
		args = append(args, vals)
	}
	return spec, args, rest
}

// spareFF returns an empty buffer whose spare capacity holds 0xFF, as
// a pooled buffer holds stale bytes: a segment PackAppend fails to
// write shows.
func spareFF(n int) []byte {
	return bytes.Repeat([]byte{0xFF}, n)[:0]
}

// copyArgs deep-copies argument slots, keeping nil slices nil.
func copyArgs(args [][]uint64) [][]uint64 {
	out := make([][]uint64, len(args))
	for i, a := range args {
		out[i] = slices.Clone(a)
	}
	return out
}

func FuzzPackUnpackRoundTrip(f *testing.F) {
	f.Add([]byte{0x01, 0x03, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0x04, 0x80, 0x07, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x02, 0x15, 0, 0, 0, 0, 0, 0, 0, 0, 0x96})
	f.Add(bytes.Repeat([]byte{0xA5}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, args, _ := fuzzSpec(data)
		if spec == nil {
			return
		}
		hdr := Message{Src: 3, Dst: 9, Device: 1, Comp: spec.Comp}.Header()

		packed, err := Pack(spec, hdr, args)
		if err != nil {
			t.Fatalf("Pack rejected a well-formed spec: %v", err)
		}
		if len(packed) != spec.Size() {
			t.Fatalf("packed %d bytes, spec.Size() %d", len(packed), spec.Size())
		}
		want, err := packBytewise(nil, spec, hdr, args)
		if err != nil || !bytes.Equal(packed, want) {
			t.Fatalf("Pack diverged from the oracle (%v):\n  %x\n  %x", err, packed, want)
		}

		// Differential: PackAppend onto a non-empty prefix, with stale
		// bytes in its spare capacity, must append the identical bytes
		// and leave the prefix alone.
		prefix := []byte{0xDE, 0xAD}
		appended, err := PackAppend(append(spareFF(len(prefix)+len(packed)), prefix...), spec, hdr, args)
		if err != nil {
			t.Fatalf("PackAppend: %v", err)
		}
		if !bytes.Equal(appended[:len(prefix)], prefix) {
			t.Fatal("PackAppend clobbered the prefix")
		}
		if !bytes.Equal(appended[len(prefix):], packed) {
			t.Fatalf("PackAppend diverged from Pack:\n  %x\n  %x", appended[len(prefix):], packed)
		}

		// Round trip against the oracle, with a trailing reliability
		// trailer that UnpackInto must ignore.
		trailered := wire.Seq{Seq: 7}.Append(append([]byte(nil), packed...))
		out := make([][]uint64, len(spec.Args))
		for i, a := range spec.Args {
			if i%2 == 1 {
				continue // nil slice: skipped on unpack
			}
			out[i] = make([]uint64, a.Count)
		}
		out2 := copyArgs(out)
		h1, err := unpackBytewise(spec, packed, out)
		if err != nil {
			t.Fatalf("oracle unpack: %v", err)
		}
		h2, err := UnpackInto(spec, trailered, out2)
		if err != nil {
			t.Fatalf("UnpackInto: %v", err)
		}
		if h1 != h2 || h1.Src != 3 || h1.Dst != 9 {
			t.Fatalf("headers diverged: %+v vs %+v", h1, h2)
		}
		for i := range out {
			if out[i] == nil {
				continue
			}
			a := spec.Args[i]
			mask := ^uint64(0)
			if a.Bytes < 8 {
				mask = 1<<(8*uint(a.Bytes)) - 1
			}
			for k := range out[i] {
				want := uint64(0)
				if args[i] != nil {
					want = args[i][k] & mask
				}
				if out2[i][k] != want {
					t.Fatalf("arg %d[%d]: got %#x want %#x", i, k, out2[i][k], want)
				}
				if out[i][k] != out2[i][k] {
					t.Fatalf("UnpackInto and the oracle diverged at arg %d[%d]", i, k)
				}
			}
		}

		// Truncations must reject without panicking, on every length,
		// with the oracle's error value.
		for cut := 0; cut < len(packed); cut++ {
			_, err := UnpackInto(spec, packed[:cut], out)
			if _, want := unpackBytewise(spec, packed[:cut], out); err == nil || err != want {
				t.Fatalf("truncated message (%d/%d bytes): %v, oracle %v", cut, len(packed), err, want)
			}
		}
	})
}

// rawWidths are the widths FuzzUnpackIntoRaw draws from: the four a
// specification may use and three it may not.
var rawWidths = []int{0, 1, 2, 3, 4, 8, 16}

// rawSpec derives a specification and argument slots from the last
// nargs%4 bytes of data, one control byte per argument: the width is
// rawWidths[ctl%7] and the count (ctl>>4)%8-1, from -1 to 6. Bits of
// nargs: 0x04 gives the first non-nil slice one element too many,
// 0x08 adds an argument slot the spec lacks, and 0x10<<i makes slot i
// nil. Non-nil slices are filled with a sentinel.
func rawSpec(data []byte, nargs byte) (*MessageSpec, [][]uint64) {
	spec := &MessageSpec{Comp: 1}
	n := min(int(nargs)%4, len(data))
	args := make([][]uint64, n, n+1)
	for i, ctl := range data[len(data)-n:] {
		a := ArgSpec{Name: "x", Bytes: rawWidths[int(ctl)%len(rawWidths)], Count: int(ctl>>4)%8 - 1}
		spec.Args = append(spec.Args, a)
		if nargs&(0x10<<i) != 0 {
			continue
		}
		l := max(a.Count, 0)
		if nargs&0x04 != 0 {
			l, nargs = l+1, nargs&^0x04
		}
		args[i] = make([]uint64, l)
		for k := range args[i] {
			args[i][k] = 0x5A5A
		}
	}
	if nargs&0x08 != 0 {
		args = append(args, nil)
	}
	return spec, args
}

// wellFormed is the test's own statement of what check accepts; the
// fuzzer's counts stay far below the size bound.
func wellFormed(spec *MessageSpec) bool {
	for _, a := range spec.Args {
		if !slices.Contains([]int{1, 2, 4, 8}, a.Bytes) || a.Count < 0 {
			return false
		}
	}
	return true
}

// FuzzUnpackIntoRaw feeds arbitrary bytes straight into the parser,
// against specifications drawn from the same input, malformed ones
// included: it must never panic, must agree with the oracle on every
// well-formed spec (the values on success, the error value on
// failure), must refuse every malformed spec with errBadSpec once the
// header and slot count pass, and must leave the slices untouched on
// any refusal. PackAppend must refuse the same malformed specs.
func FuzzUnpackIntoRaw(f *testing.F) {
	f.Add([]byte{}, byte(1))
	f.Add(bytes.Repeat([]byte{0xFF}, 40), byte(2))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, byte(0))
	hdr := []byte{0, 1, 0, 2, 0, 5, 0, 2, 1, 0, 0, 0}
	seed := func(nargs byte, tail ...byte) { f.Add(append(slices.Clone(hdr), tail...), nargs) }
	seed(2, 1, 2, 3, 4, 5, 0x33, 0x24)                                                    // u16 ×2, u8 ×1
	seed(0x22, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 0x36, 0x20) // u64 ×2, nil u32 ×1
	seed(1, 1, 2, 3, 0x26)                                                                // u24: malformed
	seed(1, 0x23)                                                                         // u0: malformed
	seed(1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0x22)                      // u128: malformed
	seed(1, 0x04)                                                                         // u32 ×-1: malformed
	seed(5, 1, 2, 3, 0x20)                                                                // u32 ×1 into two elements
	f.Fuzz(func(t *testing.T, data []byte, nargs byte) {
		spec, args := rawSpec(data, nargs)
		before := copyArgs(args)
		_, err := UnpackInto(spec, data, args)
		if wellFormed(spec) {
			oracle := copyArgs(before)
			_, want := unpackBytewise(spec, data, oracle)
			if err != want {
				t.Fatalf("spec %s: UnpackInto %v, oracle %v", spec, err, want)
			}
			if err == nil {
				for i := range args {
					if !slices.Equal(args[i], oracle[i]) {
						t.Fatalf("spec %s: arg %d = %x, oracle %x", spec, i, args[i], oracle[i])
					}
				}
			}
		} else {
			want := errBadSpec
			switch {
			case len(data) < wire.HeaderBytes:
				want = errUnpackShort
			case len(args) != len(spec.Args):
				want = errArgSlots
			}
			if err != want {
				t.Fatalf("malformed spec %s: UnpackInto %v, want %v", spec, err, want)
			}
			dst := spareFF(64)
			if out, err := PackAppend(dst, spec, wire.Header{}, args); err == nil || len(out) != 0 || !bytes.Equal(dst[:64], spareFF(64)[:64]) {
				t.Fatalf("malformed spec %s: PackAppend %v, wrote %x", spec, err, dst[:64])
			}
		}
		if err != nil {
			for i := range args {
				if !slices.Equal(args[i], before[i]) {
					t.Fatalf("refused message (%v) wrote arg %d: %x", err, i, args[i])
				}
			}
		}
	})
}

// TestPackArgumentValidation pins the codec's error paths: wrong slot
// counts and wrong element counts are rejected by both pack variants,
// and nil-slice packing really writes zeros.
func TestPackArgumentValidation(t *testing.T) {
	spec := &MessageSpec{Comp: 1, Args: []ArgSpec{
		{Name: "a", Bytes: 4, Count: 2},
		{Name: "b", Bytes: 1, Count: 1},
	}}
	hdr := Message{Src: 1, Dst: 2, Device: 1, Comp: 1}.Header()
	if _, err := Pack(spec, hdr, [][]uint64{{1, 2}}); err == nil {
		t.Error("slot-count mismatch accepted by Pack")
	}
	if _, err := PackAppend(nil, spec, hdr, [][]uint64{{1, 2}, {3}, {4}}); err == nil {
		t.Error("slot-count mismatch accepted by PackAppend")
	}
	if _, err := Pack(spec, hdr, [][]uint64{{1}, {3}}); err == nil {
		t.Error("element-count mismatch accepted")
	}
	msg, err := Pack(spec, hdr, [][]uint64{nil, {0xAB}})
	if err != nil {
		t.Fatal(err)
	}
	for i := wire.HeaderBytes; i < wire.HeaderBytes+8; i++ {
		if msg[i] != 0 {
			t.Fatalf("nil arg byte %d = %#x, want zero", i, msg[i])
		}
	}
	if msg[wire.HeaderBytes+8] != 0xAB {
		t.Errorf("second arg = %#x, want 0xAB", msg[wire.HeaderBytes+8])
	}
}

// TestMalformedSpecRefused pins the codec's refusal of specifications
// the compiler never emits: Pack, PackAppend and UnpackInto return
// errBadSpec before they size a buffer or touch dst or an argument
// slice. A message of exactly one UDP datagram (maxData bytes of
// arguments) is the largest accepted.
func TestMalformedSpecRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []ArgSpec
	}{
		{"negative count", []ArgSpec{{Bytes: 4, Count: -100}}},
		{"negative width", []ArgSpec{{Bytes: -4, Count: 2}}},
		{"16-byte width", []ArgSpec{{Bytes: 16, Count: 1}}},
		{"0-byte width", []ArgSpec{{Bytes: 0, Count: 3}}},
		{"3-byte width", []ArgSpec{{Bytes: 3, Count: 1}}},
		{"one byte over a datagram", []ArgSpec{{Bytes: 1, Count: maxData + 1}}},
		{"over a datagram in sum", []ArgSpec{{Bytes: 8, Count: maxData / 8}, {Bytes: 4, Count: 2}}},
		{"overflowing Bytes*Count", []ArgSpec{{Bytes: 8, Count: 1 << 61}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := &MessageSpec{Comp: 1, Args: tc.args}
			args := make([][]uint64, len(tc.args))
			for i, a := range tc.args {
				if a.Count >= 0 && a.Count <= 4 {
					args[i] = []uint64{1, 2, 3, 4}[:a.Count]
				}
			}
			before := copyArgs(args)
			hdr := Message{Src: 1, Dst: 2, Device: 1, Comp: 1}.Header()
			if _, err := Pack(spec, hdr, args); err != errBadSpec {
				t.Errorf("Pack: %v, want %v", err, errBadSpec)
			}
			dst := spareFF(64)
			if out, err := PackAppend(dst, spec, hdr, args); err != errBadSpec || len(out) != 0 || !bytes.Equal(dst[:64], spareFF(64)[:64]) {
				t.Errorf("PackAppend: %v, wrote %x", err, dst[:64])
			}
			msg := make([]byte, 1<<17)
			if _, err := UnpackInto(spec, msg, args); err != errBadSpec {
				t.Errorf("UnpackInto: %v, want %v", err, errBadSpec)
			}
			for i := range args {
				if !slices.Equal(args[i], before[i]) {
					t.Errorf("arg %d written: %v", i, args[i])
				}
			}
		})
	}

	hdr := Message{Src: 1, Dst: 2, Device: 1, Comp: 1}.Header()
	largest := &MessageSpec{Comp: 1, Args: []ArgSpec{{Bytes: 1, Count: maxData}}}
	msg, err := Pack(largest, hdr, [][]uint64{nil})
	if err != nil || len(msg) != 65507 {
		t.Fatalf("largest message: %d bytes, %v; want 65507", len(msg), err)
	}
	if _, err := UnpackInto(largest, msg, [][]uint64{make([]uint64, maxData)}); err != nil {
		t.Fatalf("largest message unpack: %v", err)
	}
}

// aggSpec is the AGG message layout the compiler emits:
// [1,1,1,1,1,32][u8,u16,u16,u16,u32,u32].
var aggSpec = &MessageSpec{Comp: 1, Args: []ArgSpec{
	{Name: "ver", Bytes: 1, Count: 1},
	{Name: "bmp_idx", Bytes: 2, Count: 1},
	{Name: "agg_idx", Bytes: 2, Count: 1},
	{Name: "mask", Bytes: 2, Count: 1},
	{Name: "exp", Bytes: 4, Count: 1, Out: true},
	{Name: "v", Bytes: 4, Count: 32, Out: true},
}}

func aggArgs() [][]uint64 {
	v := make([]uint64, 32)
	for i := range v {
		v[i] = uint64(i) * 0x01010101
	}
	return [][]uint64{{0}, {3}, {5}, {1 << 2}, {17}, v}
}

// TestCodecAllocs pins the codec's zero-allocation contract on every
// path: PackAppend into spare capacity and UnpackInto, on success and
// on each refusal.
func TestCodecAllocs(t *testing.T) {
	hdr := Message{Src: 1, Dst: 2, Device: 1, Comp: 1}.Header()
	args := aggArgs()
	buf := make([]byte, 0, aggSpec.Size())
	msg, err := PackAppend(nil, aggSpec, hdr, args)
	if err != nil {
		t.Fatal(err)
	}
	bad := &MessageSpec{Comp: 1, Args: []ArgSpec{{Bytes: 3, Count: 1}}}
	for _, tc := range []struct {
		name string
		want error
		run  func() error
	}{
		{"pack", nil, func() error { _, err := PackAppend(buf, aggSpec, hdr, args); return err }},
		{"pack nil args", nil, func() error { _, err := PackAppend(buf, aggSpec, hdr, make([][]uint64, 6)); return err }},
		{"pack slots", errArgSlots, func() error { _, err := PackAppend(buf, aggSpec, hdr, args[:5]); return err }},
		{"pack length", errArgLen, func() error {
			_, err := PackAppend(buf, aggSpec, hdr, [][]uint64{{0}, {3}, {5}, {4}, {17}, {1}})
			return err
		}},
		{"pack spec", errBadSpec, func() error { _, err := PackAppend(buf, bad, hdr, [][]uint64{nil}); return err }},
		{"unpack", nil, func() error { _, err := UnpackInto(aggSpec, msg, args); return err }},
		{"unpack short", errUnpackShort, func() error { _, err := UnpackInto(aggSpec, msg[:4], args); return err }},
		{"unpack slots", errArgSlots, func() error { _, err := UnpackInto(aggSpec, msg, args[:5]); return err }},
		{"unpack data short", errUnpackDataShort, func() error { _, err := UnpackInto(aggSpec, msg[:40], args); return err }},
		{"unpack length", errArgLen, func() error {
			_, err := UnpackInto(aggSpec, msg, [][]uint64{{0}, {3}, {5}, {4}, {17}, {1}})
			return err
		}},
		{"unpack spec", errBadSpec, func() error { _, err := UnpackInto(bad, msg, [][]uint64{nil}); return err }},
	} {
		if err := tc.run(); err != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = tc.run() }); n != 0 {
			t.Errorf("%s: %v allocs, want 0", tc.name, n)
		}
	}
}

// benchMsg and benchHdr keep the benchmarks' results live.
var (
	benchMsg []byte
	benchHdr wire.Header
)

func BenchmarkPackAppend(b *testing.B) {
	hdr := Message{Src: 1, Dst: 2, Device: 1, Comp: 1}.Header()
	args := aggArgs()
	buf := make([]byte, 0, aggSpec.Size())
	b.SetBytes(int64(aggSpec.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, err := PackAppend(buf, aggSpec, hdr, args)
		if err != nil {
			b.Fatal(err)
		}
		benchMsg = msg
	}
}

func BenchmarkUnpackInto(b *testing.B) {
	hdr := Message{Src: 1, Dst: 2, Device: 1, Comp: 1}.Header()
	args := aggArgs()
	msg, err := Pack(aggSpec, hdr, args)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdr, err := UnpackInto(aggSpec, msg, args)
		if err != nil {
			b.Fatal(err)
		}
		benchHdr = hdr
	}
}
