package netsim

import (
	"errors"
	"time"

	"netcl/internal/runtime"
)

// HostEndpoint adapts a simulated host to the runtime.Endpoint
// interface: Send injects a message into the network, and Call,
// SendReliable and Recv run the reliability protocol on a window-1
// runtime.Channel whose transport drives the event loop until a message
// is delivered to this host (or the simulated-time deadline passes) —
// the same engine the real-UDP HostConn uses, so reliability behavior
// is identical on both backends.
//
// The endpoint is single-threaded like the simulator itself: use it
// from the goroutine that owns the network. It pumps one event at a
// time on partition 0, so it needs a network SetPartitions has not cut.
type HostEndpoint struct {
	h     *Host
	n     *Network
	cfg   runtime.ReliabilityConfig
	ch    *runtime.Channel // window 1: the engine behind Call, SendReliable and Recv
	inbox [][]byte
}

// ErrPartitionedEndpoint is what a HostEndpoint's receive path returns
// on a network cut into more than one partition: the single-event pump
// would run partition 0 alone and never see the other partitions'
// events, so every wait would end in a timeout the network did not cause.
var ErrPartitionedEndpoint = errors.New("netsim: HostEndpoint needs a network of one partition")

// NewEndpoint wraps host h in an Endpoint. It chains onto the host's
// Receive callback, so an existing callback keeps firing.
func (n *Network) NewEndpoint(h *Host, cfg runtime.ReliabilityConfig) *HostEndpoint {
	ep := &HostEndpoint{h: h, n: n, cfg: cfg}
	ep.ch = runtime.NewChannel(simTransport{ep}, runtime.ChannelConfig{Window: 1, Reliability: cfg})
	prev := h.ReceiveFn()
	h.SetReceive(func(hh *Host, msg []byte) {
		ep.inbox = append(ep.inbox, append([]byte(nil), msg...))
		if prev != nil {
			prev(hh, msg)
		}
	})
	return ep
}

// Stats returns the counters of the endpoint's window-1 channel: the
// traffic of Call, SendReliable and Recv.
func (ep *HostEndpoint) Stats() runtime.ChannelStats { return ep.ch.Stats() }

// NewChannel opens a pipelined sliding-window channel over this
// endpoint's transport (see runtime.Channel). A zero cfg.Reliability
// inherits the endpoint's reliability knobs. Like the endpoint itself
// the channel is single-threaded: pump it from the goroutine that owns
// the network.
func (ep *HostEndpoint) NewChannel(cfg runtime.ChannelConfig) *runtime.Channel {
	if cfg.Reliability == (runtime.ReliabilityConfig{}) {
		cfg.Reliability = ep.cfg
	}
	return runtime.NewChannel(simTransport{ep}, cfg)
}

// Transport implementation (raw, unreliable primitives).

type simTransport struct{ ep *HostEndpoint }

func (t simTransport) Send(msg []byte) error {
	t.ep.h.Send(msg)
	return nil
}

// SendBatch flushes several messages as one host operation (see
// Host.SendBatch): the per-send processing cost is amortized over the
// batch.
func (t simTransport) SendBatch(msgs [][]byte) error {
	t.ep.h.SendBatch(msgs)
	return nil
}

// Recv pops the inbox, running the simulator forward until a message
// arrives or simulated time reaches the deadline. The whole pump is one
// ExecWall interval, not one per event.
func (t simTransport) Recv(timeout time.Duration) ([]byte, error) {
	ep := t.ep
	if ep.n.Partitions() > 1 {
		return nil, ErrPartitionedEndpoint
	}
	deadline := ep.n.Now() + Time(timeout)
	if len(ep.inbox) == 0 {
		defer ep.n.addWall(time.Now())
	}
	for len(ep.inbox) == 0 {
		ran, err := ep.n.step(deadline)
		if err != nil {
			return nil, err
		}
		if !ran {
			return nil, runtime.ErrTimeout
		}
	}
	msg := ep.inbox[0]
	ep.inbox = ep.inbox[1:]
	return msg, nil
}

func (t simTransport) Now() time.Duration { return time.Duration(t.ep.n.Now()) }

// Endpoint implementation.

// Send transmits one NetCL message, fire-and-forget.
func (ep *HostEndpoint) Send(msg []byte) error { return simTransport{ep}.Send(msg) }

// Recv waits up to timeout (simulated time; 0 waits until a message
// arrives) for one inbound message, with duplicate suppression and
// trailer stripping.
func (ep *HostEndpoint) Recv(timeout time.Duration) ([]byte, error) { return ep.ch.Recv(timeout) }

// Call sends msg and waits for the response carrying its sequence
// number, retransmitting with exponential backoff within the retry
// budget. timeout, when positive, replaces the configured initial
// per-attempt timeout. Timeouts are simulated time.
func (ep *HostEndpoint) Call(msg []byte, timeout time.Duration) ([]byte, error) {
	return ep.ch.Call(msg, timeout)
}

// SendReliable transmits msg with an ack request, retransmitting until
// the receiving host acknowledges it or the retry budget runs out.
func (ep *HostEndpoint) SendReliable(msg []byte) error {
	p, err := ep.ch.SendReliable(msg)
	if err == nil {
		_, err = p.Wait(0)
	}
	return err
}

// Close abandons a call still in flight and detaches the endpoint from
// the host.
func (ep *HostEndpoint) Close() error {
	ep.ch.Close()
	ep.h.SetReceive(nil)
	return nil
}
