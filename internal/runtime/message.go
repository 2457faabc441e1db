// Package runtime implements the NetCL host runtime: NetCL message
// construction (pack/unpack against kernel specifications, §V-A),
// communication backends (in-process simulation and real UDP), and
// managed-memory access through the device control plane (§V-B).
package runtime

import (
	"encoding/binary"
	"fmt"
	"slices"

	"netcl/internal/wire"
)

// ArgSpec describes one kernel argument in a message layout.
type ArgSpec struct {
	Name  string
	Bytes int // element size in bytes (1, 2, 4, 8)
	Count int // element count (the specification)
	Out   bool
}

// MessageSpec is a computation's message layout, derived from its
// kernel specification by the compiler and consumed by pack/unpack.
type MessageSpec struct {
	Comp uint8
	Args []ArgSpec
}

// DataBytes is the total payload size of the kernel arguments.
func (s *MessageSpec) DataBytes() int {
	n := 0
	for _, a := range s.Args {
		n += a.Bytes * a.Count
	}
	return n
}

// Size is the full NetCL message size (header + data).
func (s *MessageSpec) Size() int { return wire.HeaderBytes + s.DataBytes() }

// String renders the spec like the paper: [1,2][u32,u8].
func (s *MessageSpec) String() string {
	c, t := "", ""
	for i, a := range s.Args {
		if i > 0 {
			c += ","
			t += ","
		}
		c += fmt.Sprintf("%d", a.Count)
		t += fmt.Sprintf("u%d", a.Bytes*8)
	}
	return "[" + c + "][" + t + "]"
}

// Message mirrors ncl::message: the 4-tuple plus computation id.
type Message struct {
	Src, Dst uint16
	Device   uint16 // requested computing device ("through d")
	Comp     uint8
}

// Header builds the wire header for a fresh message (from = none, to =
// the requested device).
func (m Message) Header() wire.Header {
	return wire.Header{
		Src: m.Src, Dst: m.Dst, From: wire.None, To: m.Device,
		Comp: m.Comp, Act: wire.ActPass, Arg: 0,
	}
}

// Pack serializes a NetCL message (header + kernel arguments) into a
// fresh buffer. args supplies one slice per kernel argument, holding
// Count element values; a nil slice packs zeros (the ncl::pack NULL
// convention that skips copying, §V-A).
func Pack(spec *MessageSpec, hdr wire.Header, args [][]uint64) ([]byte, error) {
	return PackAppend(nil, spec, hdr, args)
}

// maxData bounds a message's kernel arguments so that the message fits
// one UDP datagram over IPv4, whose 16-bit length FrameInPlace writes.
const maxData = 1<<16 - 1 - ipv4Bytes - udpBytes - wire.HeaderBytes

// check validates args against spec before any byte moves: the slot
// count, each width and count, the data size and each non-nil slice's
// length. It returns the data size, with errArgLen too, so that
// UnpackInto can rank a short message first as the byte loops did.
func (s *MessageSpec) check(args [][]uint64) (int, error) {
	if len(args) != len(s.Args) {
		return 0, errArgSlots
	}
	n, err := 0, error(nil)
	for i, a := range s.Args {
		// A negative count, or one whose product overflows, is over maxData as a uint.
		n += a.Bytes * a.Count
		if a.Bytes != 1 && a.Bytes != 2 && a.Bytes != 4 && a.Bytes != 8 || uint(a.Count) > maxData || n > maxData {
			return 0, errBadSpec
		}
		if args[i] != nil && len(args[i]) != a.Count {
			err = errArgLen
		}
	}
	return n, err
}

// PackAppend serializes a NetCL message at the end of dst, growing it
// like the append builtin. It allocates nothing when dst has spec.Size()
// bytes of spare capacity (pooled send buffers, see GetBuf/PutBuf), and
// a refused message returns dst with its spare capacity untouched.
func PackAppend(dst []byte, spec *MessageSpec, hdr wire.Header, args [][]uint64) ([]byte, error) {
	n, err := spec.check(args)
	if err != nil {
		return dst, err
	}
	buf := hdr.Marshal(slices.Grow(dst, wire.HeaderBytes+n))
	for i := range spec.Args {
		switch vals, w := args[i], spec.Args[i].Bytes; {
		case vals == nil:
			end := len(buf) + w*spec.Args[i].Count
			clear(buf[len(buf):end]) // pooled buffers hold stale bytes
			buf = buf[:end]
		case w == 1:
			for _, v := range vals {
				buf = append(buf, byte(v))
			}
		case w == 2:
			for _, v := range vals {
				buf = binary.BigEndian.AppendUint16(buf, uint16(v))
			}
		case w == 4:
			for _, v := range vals {
				buf = binary.BigEndian.AppendUint32(buf, uint32(v))
			}
		default:
			for _, v := range vals {
				buf = binary.BigEndian.AppendUint64(buf, v)
			}
		}
	}
	return buf, nil
}

// UnpackInto parses a NetCL message. Non-nil arg slices receive the
// corresponding element values (they must have the right length); nil
// slices are skipped. It allocates nothing, a refused message leaves
// every slice untouched, and bytes past the data region (e.g. a
// reliability trailer) are ignored.
func UnpackInto(spec *MessageSpec, data []byte, args [][]uint64) (wire.Header, error) {
	var hdr wire.Header
	rest, ok := hdr.Unmarshal(data)
	if !ok {
		return hdr, errUnpackShort
	}
	n, err := spec.check(args)
	if len(rest) < n {
		err = errUnpackDataShort
	}
	if err != nil {
		return hdr, err
	}
	for i, a := range spec.Args {
		vals, in := args[i], rest[:a.Bytes*a.Count]
		rest = rest[len(in):]
		switch {
		case vals == nil:
		case a.Bytes == 1:
			for k := range vals {
				vals[k] = uint64(in[k])
			}
		case a.Bytes == 2:
			for k := range vals {
				vals[k] = uint64(binary.BigEndian.Uint16(in[2*k:]))
			}
		case a.Bytes == 4:
			for k := range vals {
				vals[k] = uint64(binary.BigEndian.Uint32(in[4*k:]))
			}
		default:
			for k := range vals {
				vals[k] = binary.BigEndian.Uint64(in[8*k:])
			}
		}
	}
	return hdr, nil
}

// The codec's error values are fixed instances, so pack and unpack
// allocate nothing even when refusing a message.
var (
	errUnpackShort     = fmt.Errorf("unpack: short message")
	errUnpackDataShort = fmt.Errorf("unpack: message data shorter than specification")
	errArgSlots        = fmt.Errorf("message: argument slot count does not match specification")
	errArgLen          = fmt.Errorf("message: argument slice length does not match element count")
	errBadSpec         = fmt.Errorf("message: malformed specification")
)
