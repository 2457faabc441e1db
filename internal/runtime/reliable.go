package runtime

import (
	"errors"
	"net"
	"sync/atomic"
	"time"

	"netcl/internal/wire"
)

// The reliability protocol: per-message sequence numbers, ack/retransmit
// with exponential backoff and a bounded retry budget, and
// receiver-side duplicate suppression. It runs entirely on the end
// hosts — devices forward the seq trailer untouched (see wire/seq.go)
// — so device-side idempotency is preserved: a kernel may observe a
// retransmitted message, but the receiving host delivers it to the
// application at most once. Channel (channel.go) is its one engine:
// an Endpoint's stop-and-wait Call, SendReliable and Recv run on a
// Channel of window 1.

// ErrTimeout reports that no message arrived within the deadline.
var ErrTimeout = errors.New("netcl/runtime: receive timeout")

// ErrRetryBudget reports that a reliable operation exhausted its
// retransmission budget without confirmation.
var ErrRetryBudget = errors.New("netcl/runtime: retry budget exhausted")

// ReliabilityConfig carries the reliability knobs. The zero value
// selects the defaults below.
type ReliabilityConfig struct {
	// Timeout is the initial per-attempt retransmission timeout
	// (default 20ms wall clock; interpreted as simulated time on the
	// simulator backend).
	Timeout time.Duration
	// MaxRetries bounds retransmissions per message (default 8;
	// negative disables retransmission entirely).
	MaxRetries int
	// Backoff multiplies the timeout after every failed attempt
	// (default 2.0).
	Backoff float64
	// MaxTimeout caps the backed-off per-attempt timeout (default 1s).
	MaxTimeout time.Duration
	// DedupWindow is how many sequence numbers per source the receiver
	// remembers for duplicate suppression (default 1024).
	DedupWindow int
}

func (c ReliabilityConfig) withDefaults() ReliabilityConfig {
	if c.Timeout <= 0 {
		c.Timeout = 20 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Backoff < 1 {
		c.Backoff = 2
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = time.Second
	}
	if c.DedupWindow <= 0 {
		c.DedupWindow = 1024
	}
	return c
}

// IsTimeout classifies transport receive errors: timeouts are retried
// (or treated as "no message yet" by polling receivers), anything else
// aborts the operation.
func IsTimeout(err error) bool {
	if errors.Is(err, ErrTimeout) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// appendAck builds the acknowledgement of (body, seq) at the end of
// dst: body's header with src/dst swapped and transit fields cleared,
// so transit devices forward it without invoking kernels, then body's
// data and an ack trailer.
func appendAck(dst, body []byte, seq uint32) ([]byte, bool) {
	var hdr wire.Header
	rest, ok := hdr.Unmarshal(body)
	if !ok {
		return dst, false
	}
	hdr.Src, hdr.Dst = hdr.Dst, hdr.Src
	hdr.From, hdr.To = wire.None, wire.None
	hdr.Act = wire.ActPass
	out := hdr.Marshal(dst)
	out = append(out, rest...)
	return wire.Seq{Seq: seq, Flags: wire.SeqFlagAck}.AppendTo(out), true
}

// nextBackoff advances a per-attempt timeout by the backoff factor,
// capped at max.
func nextBackoff(per time.Duration, factor float64, max time.Duration) time.Duration {
	per = time.Duration(float64(per) * factor)
	if per > max {
		per = max
	}
	return per
}

// FaultSpec injects probabilistic faults into the real-UDP backend for
// chaos testing: datagrams are dropped or duplicated with the given
// rates, driven by a seeded RNG so runs are reproducible. The
// simulator backend has its own richer injector (netsim.FaultConfig).
type FaultSpec struct {
	// LossRate is the per-datagram drop probability (applied to both
	// inbound and outbound traffic of a device).
	LossRate float64
	// DupRate is the per-datagram duplication probability.
	DupRate float64
	// Seed seeds the injector's RNG (0 = a fixed default seed).
	Seed int64
}

func (f FaultSpec) active() bool { return f.LossRate > 0 || f.DupRate > 0 }

// faultInjector is the seeded RNG behind FaultSpec decisions. The
// stream is a splitmix64 counter generator advanced with one atomic
// add, so concurrent device workers draw decisions without sharing a
// lock (and without touching the global math/rand source); for a fixed
// seed the serial decision sequence is reproducible.
type faultInjector struct {
	state atomic.Uint64
	spec  FaultSpec
}

func newFaultInjector(spec FaultSpec) *faultInjector {
	if !spec.active() {
		return nil
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	f := &faultInjector{spec: spec}
	f.state.Store(uint64(seed))
	return f
}

// next draws a uniform value in [0, 1).
func (f *faultInjector) next() float64 {
	z := f.state.Add(0x9E3779B97F4A7C15) // splitmix64
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// drop decides whether to drop one datagram.
func (f *faultInjector) drop() bool {
	if f == nil {
		return false
	}
	return f.next() < f.spec.LossRate
}

// dup decides whether to duplicate one datagram.
func (f *faultInjector) dup() bool {
	if f == nil {
		return false
	}
	return f.next() < f.spec.DupRate
}
