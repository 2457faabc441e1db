//go:build !linux

package runtime

import (
	"encoding/binary"
	"errors"
	"net"
)

// No UDP_SEGMENT / UDP_GRO here: setGRO fails, so a segConn is per
// datagram from the start and never builds or sees a control message.

func setGRO(*net.UDPConn) error { return errors.ErrUnsupported }

func appendSegmentCmsg(b []byte, _ binary.ByteOrder, _ uint16) []byte { return b }

func groSize(_ []byte, _ binary.ByteOrder, n, _ int) (int, bool) { return n, n > 0 }
