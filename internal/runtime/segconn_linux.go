package runtime

import (
	"encoding/binary"
	"errors"
	"net"
	"syscall"
)

// SOL_UDP and its two offload options (linux/udp.h); package syscall
// does not name them.
const (
	solUDP     = 17
	udpSegment = 103 // cmsg on send: cut the payload into datagrams of this size (uint16)
	udpGRO     = 104 // sockopt: coalesce on receive; cmsg on receive: the datagram size (int32)
)

// setGRO asks the kernel to coalesce trains of equal-length datagrams
// from one source into one receive.
func setGRO(c *net.UDPConn) error {
	rc, err := c.SyscallConn()
	if err != nil {
		return err
	}
	cerr := rc.Control(func(fd uintptr) { err = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) })
	return errors.Join(cerr, err)
}

// A control message is a cmsghdr — length (a C size_t: 12 or 16 bytes
// of header), level, type — then the data, padded to that alignment.
func cmsgLen(b []byte, bo binary.ByteOrder) uint64 {
	if syscall.CmsgLen(0) == 16 {
		return bo.Uint64(b)
	}
	return uint64(bo.Uint32(b))
}

func putCmsgLen(b []byte, bo binary.ByteOrder, l int) {
	if syscall.CmsgLen(0) == 16 {
		bo.PutUint64(b, uint64(l))
	} else {
		bo.PutUint32(b, uint32(l))
	}
}

// appendSegmentCmsg appends the UDP_SEGMENT control message.
func appendSegmentCmsg(b []byte, bo binary.ByteOrder, size uint16) []byte {
	hdr := syscall.CmsgLen(0)
	b = append(b, make([]byte, syscall.CmsgSpace(2))...)
	m := b[len(b)-syscall.CmsgSpace(2):]
	putCmsgLen(m, bo, syscall.CmsgLen(2))
	bo.PutUint32(m[hdr-8:], solUDP)
	bo.PutUint32(m[hdr-4:], udpSegment)
	bo.PutUint16(m[hdr:], size)
	return b
}

// groSize walks the control messages of a receive of n bytes and
// returns the datagram size: UDP_GRO's when present, else n. ok is
// false for a receive flagged truncated (data or control), a malformed
// buffer, and any size outside (0, n].
func groSize(oob []byte, bo binary.ByteOrder, n, flags int) (size int, ok bool) {
	hdr := syscall.CmsgLen(0)
	size = n
	if flags&(syscall.MSG_TRUNC|syscall.MSG_CTRUNC) != 0 {
		return 0, false
	}
	for len(oob) > 0 {
		if len(oob) < hdr {
			return 0, false
		}
		l := cmsgLen(oob, bo)
		if l < uint64(hdr) || l > uint64(len(oob)) {
			return 0, false
		}
		if bo.Uint32(oob[hdr-8:]) == solUDP && bo.Uint32(oob[hdr-4:]) == udpGRO {
			if l < uint64(hdr)+4 {
				return 0, false
			}
			size = int(int32(bo.Uint32(oob[hdr:])))
		}
		oob = oob[min(syscall.CmsgSpace(int(l)-hdr), len(oob)):]
	}
	return size, size > 0 && size <= n
}
