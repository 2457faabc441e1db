package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"netcl/internal/wire"
)

// Channel is the host runtime's one reliable-messaging engine: a
// sliding window of up to Window unacknowledged messages in flight over
// a Transport, each carrying the seq trailer of wire/seq.go. At Window
// 1 it is the stop-and-wait protocol, and every Endpoint's Call,
// SendReliable and Recv run on a window-1 Channel (HostConn,
// netsim.HostEndpoint). Pending
// sends live in a fixed per-seq slot table serviced by a single
// service pass sharing one timer: each entry keeps its own exponential
// backoff and retry budget, and the earliest deadline bounds how long
// the channel blocks in the transport. That pass is the one place a
// message is sent: admitting stages it, and the pass a pump runs before
// it waits sends what was staged and what is due for retransmission as
// one batch — a window fill is one SendBatch, a stop-and-wait Call still
// one send and one receive. A read that carries several messages is
// dispatched whole before the pump looks at its condition again, so a
// caller working through a window's replies re-admits a window's worth
// before anything is sent (DESIGN.md §9).
//
// Three completion styles cover the host-side protocols:
//
//   - Call/CallAsync — matched request/response: the entry completes
//     when a message echoing its sequence number arrives (a device
//     reflect carries the trailer back).
//   - SendReliable — fire-and-forget reliable: the entry completes on
//     an explicit acknowledgement from the receiving host.
//   - Post/Complete — application-driven: the entry is retransmitted
//     until the application observes the effect it was waiting for
//     (an AGG slot completion, a Paxos delivery) and calls Complete.
//     This keeps self-clocked protocols correct: the channel owns the
//     timer, backoff and budget, the application owns the semantics
//     of "done".
//
// Receiver-side duplicate suppression uses fixed-size anti-replay
// bitmaps (see dedup.go) instead of a map.
//
// Like the simulator endpoint it runs over, a Channel is pumped: all
// protocol progress happens inside the caller's Recv/Call/Wait/Drain,
// never on a background goroutine, so it works identically over the
// single-threaded discrete-event transport and over real sockets.
// One goroutine owns those pumping calls; Complete (and Stats) may be
// called from any goroutine.

// ChannelConfig parameterizes a Channel.
type ChannelConfig struct {
	// Window is the maximum number of unacknowledged messages in
	// flight (default 32).
	Window int
	// Reliability carries the shared retransmission knobs: initial
	// per-entry timeout, backoff factor and cap, and retry budget.
	Reliability ReliabilityConfig
	// Name labels the channel. The channel itself never reads it; it
	// stays only because bench/calc_udp.go sets it (ROADMAP 1(f)).
	Name string
}

// ChannelStats counts channel events. All counters are cumulative.
type ChannelStats struct {
	Sent         uint64 // entries admitted to the window
	Flushes      uint64 // transport send operations of the service pass; Sent/Flushes is the batch size
	Retransmits  uint64 // timeout-driven resends
	Timeouts     uint64 // per-entry attempt expiries
	Completed    uint64 // entries completed successfully
	Failures     uint64 // entries that exhausted the retry budget
	Duplicates   uint64 // inbound duplicates suppressed
	AcksSent     uint64 // acknowledgements emitted
	AcksReceived uint64 // acknowledgements consumed
	Delivered    uint64 // application messages delivered by Recv
	Stray        uint64 // inbound messages matching nothing
	InFlight     int    // current window occupancy
	PeakInFlight int    // highest occupancy observed
}

// entry kinds: how a pending send completes.
const (
	entryCall = iota // inbound message echoing the seq
	entryAck         // explicit acknowledgement
	entryPost        // application calls Complete(token)
)

// pendEntry is one window slot.
type pendEntry struct {
	used     bool
	staged   bool // admitted, not yet transmitted
	kind     uint8
	seq      uint32
	token    uint64
	buf      *[]byte       // pooled backing store, held until completion
	msg      []byte        // trailered wire message (aliases *buf)
	deadline time.Duration // next retransmission due (set at first transmission)
	per      time.Duration // current per-attempt timeout
	attempts int           // retransmissions so far
	p        *Pending      // completion observer (Call/SendReliable)
}

// Pending is the completion handle of an asynchronous window entry.
type Pending struct {
	c      *Channel
	done   bool
	err    error
	resp   []byte // Call response body, trailer stripped
	sentAt time.Duration
	doneAt time.Duration
}

// Channel implements the sliding-window protocol over a Transport.
type Channel struct {
	t    Transport
	bt   BatchTransport // non-nil when t batches sends
	br   BatchRecver    // non-nil when a read of t may carry several messages
	cfg  ChannelConfig
	rcfg ReliabilityConfig

	mu       sync.Mutex
	ents     []pendEntry
	inFlight int
	seq      uint32
	inbox    [][]byte
	dedup    *dedupTable
	closed   bool
	sticky   error // first retry-budget failure of a posted entry, returned by Recv/Drain
	stats    ChannelStats

	staged []*pendEntry // admitted since the last service pass, in order
	sendq  [][]byte     // the service pass's batch
	one    [1][]byte    // a single-message receive as a read of one
}

// ErrChannelClosed reports use of a closed channel.
var ErrChannelClosed = errors.New("netcl/runtime: channel closed")

// ErrWindowClosed reports a Pending abandoned by Close.
var ErrWindowClosed = errors.New("netcl/runtime: window entry abandoned by Close")

// NewChannel builds a channel over t.
func NewChannel(t Transport, cfg ChannelConfig) *Channel {
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	cfg.Reliability = cfg.Reliability.withDefaults()
	c := &Channel{
		t: t, cfg: cfg, rcfg: cfg.Reliability,
		ents:  make([]pendEntry, cfg.Window),
		dedup: newDedupTable(dedupWindow),
	}
	c.bt, _ = t.(BatchTransport)
	c.br, _ = t.(BatchRecver)
	return c
}

// Window returns the configured window size.
func (c *Channel) Window() int { return c.cfg.Window }

// Stats snapshots the counters.
func (c *Channel) Stats() ChannelStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Err returns the sticky error: the first retry-budget failure of a
// posted entry, if any. It is also returned by Recv and Drain. A Call
// or SendReliable entry that fails reports it to its Pending instead,
// so one failed stop-and-wait call does not fail every later Recv.
func (c *Channel) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sticky
}

// Close abandons pending entries, sent or still staged, and releases
// their buffers. Pendings still being waited on observe ErrWindowClosed.
func (c *Channel) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	now := c.t.Now()
	for i := range c.ents {
		e := &c.ents[i]
		if e.used {
			c.finishLocked(e, nil, ErrWindowClosed, now)
		}
	}
	return nil
}

// admit blocks (pumping the channel) until a window slot is free, then
// fills it with msg plus a fresh seq trailer in a pooled buffer and
// stages it for the next service pass. The caller keeps msg. per, when
// positive, replaces the configured initial per-attempt timeout.
func (c *Channel) admit(kind uint8, token uint64, flags uint8, msg []byte, p *Pending, per time.Duration) error {
	err := c.pump(0, func() bool { return c.inFlight < len(c.ents) })
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrChannelClosed
	}
	var e *pendEntry
	for i := range c.ents {
		if !c.ents[i].used {
			e = &c.ents[i]
			break
		}
	}
	if e == nil {
		return fmt.Errorf("netcl/runtime: window accounting lost a slot")
	}
	if per <= 0 {
		per = c.rcfg.Timeout
	}
	c.seq++
	buf := GetBuf()
	wireMsg := append(*buf, msg...)
	wireMsg = wire.Seq{Seq: c.seq, Flags: flags}.AppendTo(wireMsg)
	*buf = wireMsg
	*e = pendEntry{
		used: true, staged: true, kind: kind, seq: c.seq, token: token,
		buf: buf, msg: wireMsg, per: per, p: p,
	}
	c.staged = append(c.staged, e)
	c.inFlight++
	c.stats.Sent++
	c.stats.InFlight = c.inFlight
	if c.inFlight > c.stats.PeakInFlight {
		c.stats.PeakInFlight = c.inFlight
	}
	return nil
}

// CallAsync admits msg to the window as a request and returns its
// completion handle; the response is the message echoing the seq.
func (c *Channel) CallAsync(msg []byte) (*Pending, error) { return c.call(msg, 0) }

// Call is the synchronous request/response round trip, CallAsync plus
// Wait(0): with Window 1 it is exactly the stop-and-wait protocol of
// Endpoint.Call. timeout, when positive, replaces the configured
// initial per-attempt timeout; the retry budget bounds the wait.
func (c *Channel) Call(msg []byte, timeout time.Duration) ([]byte, error) {
	p, err := c.call(msg, timeout)
	if err != nil {
		return nil, err
	}
	return p.Wait(0)
}

func (c *Channel) call(msg []byte, per time.Duration) (*Pending, error) {
	p := &Pending{c: c}
	if err := c.admit(entryCall, 0, 0, msg, p, per); err != nil {
		return nil, err
	}
	return p, nil
}

// SendReliable admits msg as acknowledged one-way delivery: the entry
// retransmits until the receiving host acks.
func (c *Channel) SendReliable(msg []byte) (*Pending, error) {
	p := &Pending{c: c}
	if err := c.admit(entryAck, 0, wire.SeqFlagWantAck, msg, p, 0); err != nil {
		return nil, err
	}
	return p, nil
}

// Post admits msg under an application token. The entry retransmits on
// the shared timer until the application calls Complete(token) — the
// windowed primitive for self-clocked protocols whose completions are
// application events, not transport events.
func (c *Channel) Post(token uint64, msg []byte) error {
	return c.admit(entryPost, token, 0, msg, nil, 0)
}

// Complete resolves the posted entry carrying token. It is safe from
// any goroutine and reports whether a pending entry matched.
func (c *Channel) Complete(token uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.ents {
		e := &c.ents[i]
		if e.used && e.kind == entryPost && e.token == token {
			c.finishLocked(e, nil, nil, 0) // no Pending to time
			return true
		}
	}
	return false
}

// Recv delivers the next application message (dedup applied, trailer
// stripped), pumping the window — retransmissions keep flowing while
// the caller waits. A sticky retry-budget failure is surfaced here
// once the inbox is empty.
func (c *Channel) Recv(timeout time.Duration) ([]byte, error) {
	var deadline time.Duration
	if timeout > 0 {
		deadline = c.t.Now() + timeout
	}
	err := c.pump(deadline, func() bool { return len(c.inbox) > 0 || c.sticky != nil })
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.inbox) > 0 {
		m := c.inbox[0]
		// Shift instead of reslicing, so the backing array is reused and
		// a receive loop allocates only the messages it returns.
		n := copy(c.inbox, c.inbox[1:])
		c.inbox[n] = nil
		c.inbox = c.inbox[:n]
		c.stats.Delivered++
		return m, nil
	}
	if c.sticky != nil {
		return nil, c.sticky
	}
	return nil, err
}

// Drain pumps until the window is empty (every entry completed or
// failed), then reports the sticky error, if any. timeout 0 waits
// until the retry budgets resolve every entry one way or the other.
func (c *Channel) Drain(timeout time.Duration) error {
	var deadline time.Duration
	if timeout > 0 {
		deadline = c.t.Now() + timeout
	}
	if err := c.pump(deadline, func() bool { return c.inFlight == 0 }); err != nil {
		return err
	}
	return c.Err()
}

// Wait pumps the channel until the entry completes; timeout 0 waits
// until the entry's own retry budget resolves it.
func (p *Pending) Wait(timeout time.Duration) ([]byte, error) {
	c := p.c
	var deadline time.Duration
	if timeout > 0 {
		deadline = c.t.Now() + timeout
	}
	if err := c.pump(deadline, func() bool { return p.done }); err != nil {
		return nil, err
	}
	if p.err != nil {
		return nil, p.err
	}
	return p.resp, nil
}

// Done reports completion without blocking.
func (p *Pending) Done() bool {
	p.c.mu.Lock()
	defer p.c.mu.Unlock()
	return p.done
}

// Latency is the first-transmission-to-completion time on the
// transport clock (simulated time on the simulator). Valid once Done.
func (p *Pending) Latency() time.Duration {
	p.c.mu.Lock()
	defer p.c.mu.Unlock()
	return p.doneAt - p.sentAt
}

// externalPoll caps the transport wait while application-completed
// entries are pending: their Complete may arrive from another
// goroutine (e.g. a listener on a different socket), which cannot wake
// a blocked transport receive.
const externalPoll = time.Millisecond

// idlePoll caps the transport wait when nothing is due: pure receive
// loops re-check their deadline at this granularity.
const idlePoll = 100 * time.Millisecond

// pump drives the channel until cond holds (checked under the lock).
// Each pass runs the service pass, waits in the transport, bounded by
// the earliest pending deadline, and dispatches every message of the
// read it got before looking at cond again; the transport clock is read
// once per pass. deadline 0 means no caller deadline.
func (c *Channel) pump(deadline time.Duration, cond func() bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for now := time.Duration(-1); ; {
		if cond() {
			return nil
		}
		if c.closed {
			return ErrChannelClosed
		}
		if now < 0 {
			now = c.t.Now()
		}
		next, hasPost, err := c.serviceLocked(now)
		if err != nil {
			return err
		}
		// The service pass may itself satisfy the condition (an entry
		// failing its budget completes it) — re-check before blocking.
		if cond() {
			return nil
		}
		if deadline > 0 && now >= deadline {
			return ErrTimeout
		}
		// The transport wait: bounded by the caller deadline, the next
		// retransmission, and the polling caps.
		wait := idlePoll
		if hasPost && externalPoll < wait {
			wait = externalPoll
		}
		if next > 0 && next-now < wait {
			wait = next - now
		}
		if deadline > 0 && deadline-now < wait {
			wait = deadline - now
		}
		if wait <= 0 {
			wait = time.Microsecond
		}
		c.mu.Unlock()
		msgs, owned, err := c.recv(wait)
		now = c.t.Now()
		c.mu.Lock()
		switch {
		case err == nil:
			for _, m := range msgs {
				c.dispatchLocked(m, owned, now)
			}
		case err == errBadRead:
			c.stats.Stray++
		case !IsTimeout(err):
			return err
		}
	}
}

// recv pulls one read's raw messages; owned reports whether the channel
// may retain them (transport-backed ones must be copied before they
// escape).
func (c *Channel) recv(timeout time.Duration) ([][]byte, bool, error) {
	if c.br != nil {
		msgs, err := c.br.RecvBatch(timeout)
		return msgs, false, err
	}
	m, err := c.t.Recv(timeout)
	c.one[0] = m
	return c.one[:], true, err
}

// serviceLocked is the single send pass: staged entries are armed and
// transmitted for the first time, every due entry backs off and
// resends, entries over budget fail, and it all leaves as one batch.
// It returns the earliest pending deadline (0 when the window is empty)
// and whether any application-completed entries remain.
func (c *Channel) serviceLocked(now time.Duration) (next time.Duration, hasPost bool, err error) {
	batch := c.sendq[:0]
	for _, e := range c.staged {
		e.staged, e.deadline = false, now+e.per
		if e.p != nil {
			e.p.sentAt = now
		}
		batch = append(batch, e.msg)
	}
	c.staged = c.staged[:0]
	for i := range c.ents {
		e := &c.ents[i]
		if !e.used {
			continue
		}
		if e.deadline <= now {
			c.stats.Timeouts++
			if e.attempts >= c.rcfg.MaxRetries {
				c.finishLocked(e, nil, fmt.Errorf("%w (seq %d, %d attempts)",
					ErrRetryBudget, e.seq, e.attempts+1), now)
				continue
			}
			e.attempts++
			e.per = nextBackoff(e.per, c.rcfg.Backoff, c.rcfg.MaxTimeout)
			e.deadline = now + e.per
			c.stats.Retransmits++
			batch = append(batch, e.msg)
		}
		if next == 0 || e.deadline < next {
			next = e.deadline
		}
		if e.kind == entryPost {
			hasPost = true
		}
	}
	c.sendq = batch[:0]
	if len(batch) == 0 {
		return next, hasPost, nil
	}
	if c.bt != nil {
		c.stats.Flushes++
		return next, hasPost, c.bt.SendBatch(batch)
	}
	for _, m := range batch {
		c.stats.Flushes++
		if err := c.t.Send(m); err != nil {
			return next, hasPost, err
		}
	}
	return next, hasPost, nil
}

// dispatchLocked routes one inbound message: acks complete ack entries,
// seq-matched responses complete call entries, WantAck traffic is
// acknowledged, duplicates are suppressed, and everything else is
// delivered to the inbox. owned marks messages the channel may retain
// without copying.
func (c *Channel) dispatchLocked(m []byte, owned bool, now time.Duration) {
	body, sq, ok := wire.ParseSeq(m)
	if !ok {
		// Untrailered traffic passes through to the application.
		c.deliverLocked(m, owned)
		return
	}
	if sq.Flags&wire.SeqFlagAck != 0 {
		c.stats.AcksReceived++
		if e := c.entryLocked(sq.Seq); e != nil && e.kind == entryAck {
			c.finishLocked(e, nil, nil, now)
		}
		return
	}
	if sq.Flags&wire.SeqFlagWantAck != 0 {
		// Acknowledge every copy: the previous ack may be the one that
		// was lost. Dedup below decides whether to deliver.
		c.ackLocked(body, sq.Seq)
	}
	if e := c.entryLocked(sq.Seq); e != nil && e.kind == entryCall {
		// The response: record it in the dedup window so duplicate
		// responses to retransmitted requests are suppressed later.
		if len(body) >= wire.HeaderBytes {
			c.observeLocked(body, sq.Seq)
		}
		resp := body
		if !owned {
			resp = append(make([]byte, 0, len(body)), body...)
		}
		c.finishLocked(e, resp, nil, now)
		return
	}
	if len(body) >= wire.HeaderBytes && c.observeLocked(body, sq.Seq) {
		c.stats.Duplicates++
		return
	}
	c.deliverLocked(body, owned)
}

// entryLocked finds the pending entry carrying seq.
func (c *Channel) entryLocked(seq uint32) *pendEntry {
	for i := range c.ents {
		if c.ents[i].used && c.ents[i].seq == seq {
			return &c.ents[i]
		}
	}
	return nil
}

// observeLocked records (src, seq) of a data message in the
// anti-replay window and reports whether it was already seen.
func (c *Channel) observeLocked(body []byte, seq uint32) bool {
	src := uint16(body[0])<<8 | uint16(body[1])
	return c.dedup.observe(src, seq)
}

// deliverLocked queues one application message, copying scratch-backed
// bytes into an owned buffer.
func (c *Channel) deliverLocked(body []byte, owned bool) {
	if !owned {
		body = append(make([]byte, 0, len(body)), body...)
	}
	c.inbox = append(c.inbox, body)
}

// ackLocked emits an acknowledgement from a pooled scratch buffer.
func (c *Channel) ackLocked(body []byte, seq uint32) {
	buf := GetBuf()
	defer PutBuf(buf)
	out, ok := appendAck(*buf, body, seq)
	if !ok {
		return
	}
	*buf = out
	if err := c.t.Send(out); err == nil {
		c.stats.AcksSent++
	}
}

// finishLocked resolves an entry at time now: the pooled send buffer
// recycles, the slot frees (a staged entry is never sent), and any
// Pending observes the outcome.
func (c *Channel) finishLocked(e *pendEntry, resp []byte, err error, now time.Duration) {
	if err != nil {
		c.stats.Failures++
		// A Pending's Wait reports its own failure; a posted entry has
		// no one else to tell.
		if e.p == nil && c.sticky == nil && !errors.Is(err, ErrWindowClosed) {
			c.sticky = err
		}
	} else {
		c.stats.Completed++
	}
	if p := e.p; p != nil {
		p.done = true
		p.err = err
		p.resp = resp
		p.doneAt = now
	}
	if e.staged {
		i := slices.Index(c.staged, e)
		c.staged = slices.Delete(c.staged, i, i+1)
	}
	PutBuf(e.buf)
	*e = pendEntry{}
	c.inFlight--
	c.stats.InFlight = c.inFlight
}
