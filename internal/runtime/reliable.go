package runtime

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"netcl/internal/wire"
)

// The reliability layer: per-message sequence numbers, ack/retransmit
// with exponential backoff and a bounded retry budget, and
// receiver-side duplicate suppression. It runs entirely on the end
// hosts — devices forward the seq trailer untouched (see wire/seq.go)
// — so device-side idempotency is preserved: a kernel may observe a
// retransmitted message, but the receiving host delivers it to the
// application at most once.

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
	// DedupWindow is how many (source, seq) pairs the receiver
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

// RelStats counts reliability-layer events.
type RelStats struct {
	Sent          uint64 // reliable messages sent (first transmissions)
	Retransmits   uint64 // timeout-driven resends
	Timeouts      uint64 // attempts that expired unanswered
	Duplicates    uint64 // inbound duplicates suppressed
	AcksSent      uint64 // acknowledgements emitted
	AcksReceived  uint64 // acknowledgements consumed
	Failures      uint64 // operations that exhausted the retry budget
	StrayMessages uint64 // unmatched inbound messages discarded mid-call
}

// relCounters is RelStats sharded onto atomics, so counting never
// touches the dedup mutex and concurrent endpoint workers do not
// serialize on statistics.
type relCounters struct {
	sent, retransmits, timeouts, duplicates atomic.Uint64
	acksSent, acksReceived                  atomic.Uint64
	failures, strayMessages                 atomic.Uint64
}

// snapshot loads a plain RelStats view.
func (c *relCounters) snapshot() RelStats {
	return RelStats{
		Sent:          c.sent.Load(),
		Retransmits:   c.retransmits.Load(),
		Timeouts:      c.timeouts.Load(),
		Duplicates:    c.duplicates.Load(),
		AcksSent:      c.acksSent.Load(),
		AcksReceived:  c.acksReceived.Load(),
		Failures:      c.failures.Load(),
		StrayMessages: c.strayMessages.Load(),
	}
}

// Reliability implements the policy over any Transport. It is safe for
// concurrent use.
type Reliability struct {
	cfg ReliabilityConfig

	seq   atomic.Uint32
	stats relCounters

	mu    sync.Mutex // guards dedup only
	dedup *dedupTable
}

// NewReliability builds a reliability policy instance.
func NewReliability(cfg ReliabilityConfig) *Reliability {
	cfg = cfg.withDefaults()
	return &Reliability{cfg: cfg, dedup: newDedupTable(cfg.DedupWindow)}
}

// Config returns the effective (default-filled) configuration.
func (r *Reliability) Config() ReliabilityConfig { return r.cfg }

// Stats returns a snapshot of the counters.
func (r *Reliability) Stats() RelStats { return r.stats.snapshot() }

// NextSeq allocates a sequence number.
func (r *Reliability) NextSeq() uint32 { return r.seq.Add(1) }

// isDup records (src, seq) in the anti-replay window and reports
// whether it was already seen.
func (r *Reliability) isDup(src uint16, seq uint32) bool {
	r.mu.Lock()
	dup := r.dedup.observe(src, seq)
	r.mu.Unlock()
	if dup {
		r.stats.duplicates.Add(1)
	}
	return dup
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

// Call implements reliable request/response: send msg with a fresh
// seq, await a message echoing that seq (a device reflect carries the
// trailer back automatically; a host responder acks), retransmitting
// with exponential backoff. timeout overrides the configured initial
// per-attempt timeout when positive.
func (r *Reliability) Call(t Transport, msg []byte, timeout time.Duration) ([]byte, error) {
	seq := r.NextSeq()
	req := wire.Seq{Seq: seq}.Append(msg)
	body, err := r.confirm(t, req, seq, timeout, false)
	return body, err
}

// SendReliable implements reliable one-way delivery: the trailer asks
// the receiving host for an acknowledgement and the message is
// retransmitted until it arrives. The receiver's Recv suppresses the
// duplicates, so the application observes the message once.
func (r *Reliability) SendReliable(t Transport, msg []byte, timeout time.Duration) error {
	seq := r.NextSeq()
	req := wire.Seq{Seq: seq, Flags: wire.SeqFlagWantAck}.Append(msg)
	_, err := r.confirm(t, req, seq, timeout, true)
	return err
}

// confirm transmits req until a message matching seq arrives. ackOnly
// restricts matches to explicit acknowledgements.
func (r *Reliability) confirm(t Transport, req []byte, seq uint32, timeout time.Duration, ackOnly bool) ([]byte, error) {
	per := r.cfg.Timeout
	if timeout > 0 {
		per = timeout
	}
	r.stats.sent.Add(1)
	for attempt := 0; attempt <= r.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			r.stats.retransmits.Add(1)
		}
		if err := t.Send(req); err != nil {
			return nil, err
		}
		deadline := t.Now() + per
		for {
			rem := deadline - t.Now()
			if rem <= 0 {
				break
			}
			m, err := t.Recv(rem)
			if err == errBadRead {
				r.stats.strayMessages.Add(1)
				continue
			}
			if err != nil {
				if IsTimeout(err) {
					break
				}
				return nil, err
			}
			body, sq, ok := wire.ParseSeq(m)
			if !ok {
				// Untrailered traffic is not ours to consume here.
				r.stats.strayMessages.Add(1)
				continue
			}
			if sq.Flags&wire.SeqFlagWantAck != 0 {
				// A peer's one-way message racing our call: ack it so
				// the peer can make progress, and let dedup decide
				// whether a later Recv should still deliver it.
				r.ack(t, body, sq.Seq)
			}
			if sq.Seq != seq {
				r.stats.strayMessages.Add(1)
				continue
			}
			if sq.Flags&wire.SeqFlagAck != 0 {
				r.stats.acksReceived.Add(1)
				if ackOnly {
					return nil, nil
				}
				continue // ack of the request; keep waiting for data
			}
			if ackOnly {
				continue
			}
			// Suppress duplicate responses to retransmitted requests.
			if len(body) >= wire.HeaderBytes {
				src := uint16(body[0])<<8 | uint16(body[1])
				if r.isDup(src, sq.Seq) {
					continue
				}
			}
			return body, nil
		}
		r.stats.timeouts.Add(1)
		per = nextBackoff(per, r.cfg.Backoff, r.cfg.MaxTimeout)
	}
	r.stats.failures.Add(1)
	return nil, fmt.Errorf("%w (seq %d, %d attempts)", ErrRetryBudget, seq, r.cfg.MaxRetries+1)
}

// Recv delivers the next application message: acknowledgements are
// consumed, ack requests are answered, duplicates are suppressed, and
// the trailer is stripped. Messages without a trailer pass through
// unchanged, preserving pre-reliability behavior.
func (r *Reliability) Recv(t Transport, timeout time.Duration) ([]byte, error) {
	var deadline time.Duration
	if timeout > 0 {
		deadline = t.Now() + timeout
	}
	for {
		rem := timeout
		if timeout > 0 {
			rem = deadline - t.Now()
			if rem <= 0 {
				return nil, ErrTimeout
			}
		}
		m, err := t.Recv(rem)
		if err == errBadRead {
			r.stats.strayMessages.Add(1)
			continue
		}
		if err != nil {
			return nil, err
		}
		body, sq, ok := wire.ParseSeq(m)
		if !ok {
			return m, nil
		}
		if sq.Flags&wire.SeqFlagAck != 0 {
			r.stats.acksReceived.Add(1)
			continue
		}
		if sq.Flags&wire.SeqFlagWantAck != 0 {
			// Acknowledge every copy: the previous ack may be the one
			// that was lost.
			r.ack(t, body, sq.Seq)
		}
		if len(body) >= wire.HeaderBytes {
			src := uint16(body[0])<<8 | uint16(body[1])
			if r.isDup(src, sq.Seq) {
				continue
			}
		}
		return body, nil
	}
}

// ack echoes msg back to its source as an acknowledgement of seq: the
// header's src/dst are swapped and to is cleared so transit devices
// forward it without invoking kernels. The ack is built in a pooled
// scratch buffer — both backends are done with the bytes when Send
// returns, so the buffer recycles immediately and the steady-state ack
// path allocates nothing.
func (r *Reliability) ack(t Transport, body []byte, seq uint32) {
	buf := GetBuf()
	defer PutBuf(buf)
	out, ok := appendAck(*buf, body, seq)
	if !ok {
		return
	}
	*buf = out
	if err := t.Send(out); err == nil {
		r.stats.acksSent.Add(1)
	}
}

// appendAck builds the acknowledgement of (body, seq) at the end of
// dst: body's header with src/dst swapped and transit fields cleared,
// body's data, and an ack trailer.
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
