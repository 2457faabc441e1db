package runtime

import (
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"sync/atomic"
)

// Limits of one segmented write (UDP_SEGMENT): at most maxSegments
// datagrams out of at most maxRunBytes, each fitting an Ethernet MTU.
const (
	maxSegments = 64
	maxRunBytes = 65507
	maxSegment  = 1472
)

// errBadRead marks a read that must not be processed — truncated, or
// its control bytes malformed or at odds with what was read. Receivers
// count it and carry on.
var errBadRead = errors.New("netcl/runtime: truncated or malformed read")

// segConn is a UDP socket that moves a run of messages per kernel
// crossing where the kernel has UDP_SEGMENT / UDP_GRO: queue gathers
// consecutive equal-length messages to one destination, flush writes
// them as one payload the kernel cuts back into the same datagrams, and
// read returns every datagram the kernel coalesced into one receive.
// Offload is detected, not configured: once the socket option or a
// segmented write fails the socket is per datagram, same bytes on the
// wire. queue/flush and read belong to one goroutine each; write1 to any.
type segConn struct {
	*net.UDPConn
	off           atomic.Pointer[error] // what turned offload off; nil while on
	reads, writes atomic.Uint64

	dst  netip.AddrPort // the run being gathered:
	run  []byte         // equal-length segments back to back
	size int            // their length
	woob []byte

	rbuf, roob []byte
	segs       [][]byte
}

func newSegConn(conn *net.UDPConn) *segConn {
	s := &segConn{UDPConn: conn, rbuf: make([]byte, 65536), roob: make([]byte, 64)}
	if err := setGRO(conn); err != nil {
		s.disable(err)
	}
	return s
}

func (s *segConn) disable(err error) { s.off.CompareAndSwap(nil, &err) }

// offload is the offload state as Stats reports it.
func (s *segConn) offload() string {
	if e := s.off.Load(); e != nil {
		return "off: " + (*e).Error()
	}
	return "on"
}

// write1 is the per-datagram path.
func (s *segConn) write1(dst netip.AddrPort, msg []byte) error {
	s.writes.Add(1)
	_, err := s.WriteToUDPAddrPort(msg, dst)
	return err
}

// queue adds msg to the run toward dst, first writing out a run it
// cannot join. A shorter message may end a run; one that cannot be a
// segment at all goes out on its own.
func (s *segConn) queue(dst netip.AddrPort, msg []byte) error {
	alone := s.off.Load() != nil || len(msg) == 0 || len(msg) > maxSegment
	if len(s.run) > 0 && (alone || dst != s.dst || len(msg) > s.size ||
		len(s.run) == maxSegments*s.size || len(s.run)+len(msg) > maxRunBytes) {
		if err := s.flush(); err != nil {
			return err
		}
	}
	if alone {
		return s.write1(dst, msg)
	}
	if len(s.run) == 0 {
		s.dst, s.size = dst, len(msg)
	}
	s.run = append(s.run, msg...)
	if len(msg) < s.size {
		return s.flush()
	}
	return nil
}

// flush writes the gathered run: one segmented write or, for a run of
// one and once a segmented write has failed, one write per message.
func (s *segConn) flush() error {
	run := s.run
	s.run = s.run[:0]
	if len(run) == 0 {
		return nil
	}
	if len(run) > s.size {
		s.woob = appendSegmentCmsg(s.woob[:0], binary.NativeEndian, uint16(s.size))
		s.writes.Add(1)
		_, _, err := s.WriteMsgUDPAddrPort(run, s.woob, s.dst)
		if err == nil {
			return nil
		}
		s.disable(err)
	}
	for len(run) > 0 {
		m := run[:min(s.size, len(run))]
		if err := s.write1(s.dst, m); err != nil {
			return err
		}
		run = run[len(m):]
	}
	return nil
}

// read blocks for one receive and returns its datagrams in arrival
// order. They alias the socket's buffer until the next read.
func (s *segConn) read() ([][]byte, netip.AddrPort, error) {
	n, oobn, flags, from, err := s.ReadMsgUDPAddrPort(s.rbuf, s.roob)
	if err != nil {
		return nil, from, err
	}
	s.reads.Add(1)
	s.segs, err = splitRead(s.segs[:0], s.rbuf[:n], s.roob[:oobn], flags)
	return s.segs, from, err
}

// splitRead cuts one receive into its datagrams by the UDP_GRO control
// message; a receive without one is a single datagram.
func splitRead(segs [][]byte, data, oob []byte, flags int) ([][]byte, error) {
	size, ok := groSize(oob, binary.NativeEndian, len(data), flags)
	if !ok {
		return segs, errBadRead
	}
	for len(data) > size {
		segs = append(segs, data[:size])
		data = data[size:]
	}
	return append(segs, data), nil
}
