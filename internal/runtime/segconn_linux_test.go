package runtime

import (
	"bytes"
	"encoding/binary"
	"syscall"
	"testing"
)

var bothOrders = []binary.ByteOrder{binary.LittleEndian, binary.BigEndian}

// cmsg builds one control message the way the kernel lays it out.
func cmsg(bo binary.ByteOrder, level, typ uint32, data []byte) []byte {
	m := make([]byte, syscall.CmsgSpace(len(data)))
	putCmsgLen(m, bo, syscall.CmsgLen(len(data)))
	bo.PutUint32(m[syscall.CmsgLen(0)-8:], level)
	bo.PutUint32(m[syscall.CmsgLen(0)-4:], typ)
	copy(m[syscall.CmsgLen(0):], data)
	return m
}

func groCmsg(bo binary.ByteOrder, size int32) []byte {
	data := make([]byte, 4)
	bo.PutUint32(data, uint32(size))
	return cmsg(bo, solUDP, udpGRO, data)
}

// TestSegmentCmsgLayout: the encoder's bytes are a cmsghdr of
// CmsgLen(2) at level SOL_UDP, type UDP_SEGMENT, a uint16 behind it, in
// CmsgSpace(2) bytes — in either byte order, and in this machine's the
// standard library's parser reads it back.
func TestSegmentCmsgLayout(t *testing.T) {
	for _, bo := range bothOrders {
		b := appendSegmentCmsg([]byte{0xAA}, bo, 1400)[1:]
		hdr := syscall.CmsgLen(0)
		if len(b) != syscall.CmsgSpace(2) || cmsgLen(b, bo) != uint64(syscall.CmsgLen(2)) {
			t.Fatalf("%v: %d bytes, length field %d; want %d and %d", bo, len(b), cmsgLen(b, bo), syscall.CmsgSpace(2), syscall.CmsgLen(2))
		}
		if l, ty, v := bo.Uint32(b[hdr-8:]), bo.Uint32(b[hdr-4:]), bo.Uint16(b[hdr:]); l != 17 || ty != 103 || v != 1400 {
			t.Errorf("%v: level %d type %d size %d", bo, l, ty, v)
		}
		if !bytes.Equal(b[hdr+2:], make([]byte, len(b)-hdr-2)) {
			t.Errorf("%v: padding not zero: %x", bo, b)
		}
	}
	msgs, err := syscall.ParseSocketControlMessage(appendSegmentCmsg(nil, binary.NativeEndian, 1400))
	if err != nil || len(msgs) != 1 || msgs[0].Header.Level != solUDP || msgs[0].Header.Type != udpSegment ||
		binary.NativeEndian.Uint16(msgs[0].Data) != 1400 {
		t.Errorf("syscall parses it as %+v, %v", msgs, err)
	}
}

func TestGROSize(t *testing.T) {
	for _, bo := range bothOrders {
		other := cmsg(bo, 0, 2, []byte{64, 0, 0, 0}) // some IP-level message
		long := groCmsg(bo, 40)
		putCmsgLen(long, bo, len(long)+8)
		short := groCmsg(bo, 40)
		putCmsgLen(short, bo, syscall.CmsgLen(0)-1)
		small := cmsg(bo, solUDP, udpGRO, []byte{40, 0})
		cases := []struct {
			name string
			oob  []byte
			n    int
			size int
			ok   bool
		}{
			{"no control message: one datagram", nil, 633, 633, true},
			{"a train of 40s", groCmsg(bo, 40), 633, 40, true},
			{"a train of one", groCmsg(bo, 633), 633, 633, true},
			{"behind another message", append(other, groCmsg(bo, 40)...), 633, 40, true},
			{"another message only", other, 633, 633, true},
			{"size zero", groCmsg(bo, 0), 633, 0, false},
			{"size negative", groCmsg(bo, -40), 633, 0, false},
			{"size beyond the read", groCmsg(bo, 634), 633, 0, false},
			{"empty read", nil, 0, 0, false},
			{"header cut short", groCmsg(bo, 40)[:syscall.CmsgLen(0)-1], 633, 0, false},
			{"length beyond the buffer", long, 633, 0, false},
			{"length below a header", short, 633, 0, false},
			{"size field cut short", small, 633, 0, false},
		}
		for _, tc := range cases {
			if size, ok := groSize(tc.oob, bo, tc.n, 0); ok != tc.ok || (ok && size != tc.size) {
				t.Errorf("%v %s: size %d ok %v, want %d %v", bo, tc.name, size, ok, tc.size, tc.ok)
			}
		}
	}
}

// TestSplitRead: a read is cut at the segment size with a shorter tail,
// and a read flagged truncated — data or control — yields nothing.
func TestSplitRead(t *testing.T) {
	data := fill(633, 0)
	segs, err := splitRead(nil, data, groCmsg(binary.NativeEndian, 40), 0)
	if err != nil || len(segs) != 16 || len(segs[15]) != 33 || !bytes.Equal(bytes.Join(segs, nil), data) {
		t.Errorf("%d segments, tail %d, %v", len(segs), len(segs[len(segs)-1]), err)
	}
	for _, flags := range []int{syscall.MSG_TRUNC, syscall.MSG_CTRUNC} {
		if segs, err := splitRead(nil, data, groCmsg(binary.NativeEndian, 40), flags); err != errBadRead || len(segs) != 0 {
			t.Errorf("flags %#x: %d segments, %v", flags, len(segs), err)
		}
	}
	if segs, err := splitRead(nil, data, groCmsg(binary.NativeEndian, 0), 0); err != errBadRead || len(segs) != 0 {
		t.Errorf("size 0: %d segments, %v", len(segs), err)
	}
}

// FuzzGROControl: whatever the control bytes, the parser does not panic
// and never reports a size outside (0, n]; a read it accepts splits
// into non-empty pieces that put back together are the read.
func FuzzGROControl(f *testing.F) {
	for _, bo := range bothOrders {
		f.Add(groCmsg(bo, 40), uint16(633), bo == binary.BigEndian)
		f.Add(groCmsg(bo, 0), uint16(633), bo == binary.BigEndian)
		f.Add(append(cmsg(bo, 0, 2, []byte{1}), groCmsg(bo, 1472)...), uint16(65507), bo == binary.BigEndian)
	}
	f.Add([]byte{}, uint16(0), false)
	f.Fuzz(func(t *testing.T, oob []byte, n uint16, big bool) {
		bo := bothOrders[0]
		if big {
			bo = bothOrders[1]
		}
		size, ok := groSize(oob, bo, int(n), 0)
		if ok && (size <= 0 || size > int(n)) {
			t.Fatalf("size %d accepted for a read of %d", size, n)
		}
		data := make([]byte, n)
		segs, err := splitRead(nil, data, oob, 0)
		if err != nil {
			if len(segs) != 0 {
				t.Fatalf("%d segments with %v", len(segs), err)
			}
			return
		}
		total := 0
		for _, s := range segs {
			if len(s) == 0 {
				t.Fatal("empty segment")
			}
			total += len(s)
		}
		if total != int(n) {
			t.Fatalf("segments hold %d of %d bytes", total, n)
		}
	})
}
