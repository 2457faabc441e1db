package runtime

import (
	"time"

	"netcl/internal/wire"
)

// Endpoint is the backend-agnostic host-side messaging surface: the
// real-UDP HostConn and the simulator's host endpoint both implement
// it, each with a window-1 Channel over its Transport, so application
// code and the reliability protocol do not care which substrate
// carries the messages.
type Endpoint interface {
	// Send transmits one NetCL message, fire-and-forget.
	Send(msg []byte) error
	// Recv waits up to timeout for one inbound message. Duplicate
	// retransmissions are suppressed and the reliability trailer, if
	// present, is stripped.
	Recv(timeout time.Duration) ([]byte, error)
	// Call sends msg with a fresh sequence number and waits for the
	// response carrying it, retransmitting with exponential backoff
	// within the endpoint's retry budget. timeout overrides the
	// configured initial per-attempt timeout when positive.
	Call(msg []byte, timeout time.Duration) ([]byte, error)
	// Close releases the endpoint.
	Close() error
}

// Transport is the raw substrate under a Channel: an
// unreliable datagram path plus a monotonic clock (wall time for UDP,
// simulated time for netsim). Recv returns messages verbatim,
// trailer included.
type Transport interface {
	Send(msg []byte) error
	Recv(timeout time.Duration) ([]byte, error)
	Now() time.Duration
}

// BatchTransport is an optional Transport extension: SendBatch
// transmits several messages, in order, as one operation. The simulator
// pays the per-send host processing cost once for the batch; the UDP
// backend writes each run of equal-length messages as one segmented
// datagram (one kernel crossing; see segConn). The Channel sends what
// was admitted since its last pass and what is due again together.
type BatchTransport interface {
	SendBatch(msgs [][]byte) error
}

// BatchRecver is an optional Transport extension: RecvBatch waits up to
// timeout for one read of the transport and returns every message it
// carried, in arrival order. The slices alias transport-owned memory
// until the next receive: the Channel's pump, single-threaded by
// design, dispatches the whole read and copies only what it keeps.
type BatchRecver interface {
	RecvBatch(timeout time.Duration) ([][]byte, error)
}

// SendTo packs and sends a message over any endpoint (ncl::pack +
// send, fire-and-forget). The message is packed into a pooled buffer,
// so the steady-state path allocates nothing; Endpoint.Send must not
// retain the buffer past its return (both backends copy or frame it
// synchronously).
func SendTo(e Endpoint, spec *MessageSpec, m Message, args [][]uint64) error {
	buf := GetBuf()
	defer PutBuf(buf)
	packed, err := PackAppend(*buf, spec, m.Header(), args)
	if err != nil {
		return err
	}
	*buf = packed
	return e.Send(packed)
}

// CallMessage packs m, performs a reliable Call over the endpoint, and
// unpacks the response into out (nil slices are skipped). The request
// is packed into a pooled buffer: Call appends the sequence trailer
// into its own retransmission copy, so the buffer is recycled as soon
// as Call returns.
func CallMessage(e Endpoint, spec *MessageSpec, m Message, args, out [][]uint64, timeout time.Duration) (wire.Header, error) {
	buf := GetBuf()
	defer PutBuf(buf)
	packed, err := PackAppend(*buf, spec, m.Header(), args)
	if err != nil {
		return wire.Header{}, err
	}
	*buf = packed
	reply, err := e.Call(packed, timeout)
	if err != nil {
		return wire.Header{}, err
	}
	return UnpackInto(spec, reply, out)
}
