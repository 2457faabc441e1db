package runtime

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
	"netcl/internal/p4rt"
	"netcl/internal/wire"
)

// UDPDevice runs a behavioral-model switch behind a real UDP socket:
// the deployment analogue of the paper's UDP communication backend
// (§VI-C). NetCL messages arrive as UDP payloads — all the datagrams
// of one read at once (see segConn) — are framed, pushed through the P4
// pipeline as one burst, and forwarded to the UDP address of the
// next-hop node, a run to one address in one write. With Workers > 1
// the pipeline is a flow-sharded worker pool (bmv2.Sharded) with
// bounded queues: a full queue drops the datagram and counts it in
// QueueFull, the UDP analogue of a line-rate device shedding load.
// The device also implements the control-plane Client interface; on
// the sharded path register access quiesces the workers while table
// updates publish RCU snapshots without stalling them.
type UDPDevice struct {
	ID uint16

	mu      sync.Mutex
	sw      *bmv2.Switch
	sharded *bmv2.Sharded // nil when Workers <= 1 (serialized legacy path)
	sock    *segConn
	addrs   map[uint16]netip.AddrPort
	ports   map[netip.AddrPort]int // source UDP address -> ingress port (node id)
	mcast   map[int][]uint16
	wg      sync.WaitGroup
	faults  *faultInjector
	paused  bool
	bufs    sync.Pool

	// One read's burst, reused (owner: the receive loop).
	arena []byte
	pkts  [][]byte
	inPts []int
	res   []bmv2.Result
	errs  []error
	outs  []outMsg // deparsed messages and where they go

	// Counters are updated atomically; read them via Stats, or
	// directly once the device is closed.
	Processed uint64
	Dropped   uint64
	// QueueFull counts datagrams shed because a worker queue was full.
	QueueFull uint64
	// FaultDropped counts datagrams discarded by the fault injector or
	// while the device was paused (chaos testing).
	FaultDropped uint64
	// FaultDuplicated counts datagrams duplicated by the injector.
	FaultDuplicated uint64
}

// dbuf is a pooled datagram buffer (Workers > 1, where a packet
// outlives the read): FrameOverhead bytes of headroom for in-place
// framing plus a max-size UDP payload.
type dbuf struct{ b []byte }

type outMsg struct {
	dst netip.AddrPort
	msg []byte
}

// DeviceConfig parameterizes a UDP device process.
type DeviceConfig struct {
	// ID is the device's NetCL node id.
	ID uint16
	// Addr is the UDP listen address ("127.0.0.1:0").
	Addr string
	// Prog is the compiled P4 program to run.
	Prog *p4.Program
	// Faults optionally injects seeded probabilistic loss/duplication
	// for chaos testing (zero value = faultless).
	Faults FaultSpec
	// Workers > 1 processes packets on a flow-sharded worker pool.
	// Requires a FlowKey that honors the shard-by-flow invariant.
	Workers int
	// QueueDepth bounds each worker's queue (default 256).
	QueueDepth int
	// FlowKey extracts the flow identity from a framed packet. nil
	// serializes all packets on one worker (always safe).
	FlowKey bmv2.FlowKeyFunc
	// Burst caps how many queued packets a worker drains per wakeup
	// into one burst execution (default bmv2.MaxBurst; 1 disables).
	Burst int
}

// ServeDevice starts a device process described by cfg. A program the
// switch compiler refuses is an error here, for any worker count,
// before any socket is bound.
func ServeDevice(cfg DeviceConfig) (*UDPDevice, error) {
	sw := bmv2.New(cfg.Prog)
	if err := sw.CompileErr(); err != nil {
		return nil, err
	}
	ua, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	d := &UDPDevice{
		ID:     cfg.ID,
		sw:     sw,
		sock:   newSegConn(conn),
		addrs:  map[uint16]netip.AddrPort{},
		ports:  map[netip.AddrPort]int{},
		mcast:  map[int][]uint16{},
		faults: newFaultInjector(cfg.Faults),
	}
	d.bufs.New = func() any { return &dbuf{b: make([]byte, FrameOverhead+65536)} }
	if cfg.Workers > 1 {
		sh, err := bmv2.NewSharded(d.sw, bmv2.ShardedConfig{
			Shards: cfg.Workers, QueueDepth: cfg.QueueDepth,
			FlowKey: cfg.FlowKey, Burst: cfg.Burst,
		})
		if err != nil {
			conn.Close()
			return nil, err
		}
		d.sharded = sh
	}
	d.wg.Add(1)
	go d.loop()
	return d, nil
}

// Pause makes the device drop every datagram until Restart: the
// chaos-testing analogue of a crashed or rebooting switch. Register
// and table state is preserved across the outage.
func (d *UDPDevice) Pause() {
	d.mu.Lock()
	d.paused = true
	d.mu.Unlock()
}

// Restart resumes a paused device.
func (d *UDPDevice) Restart() {
	d.mu.Lock()
	d.paused = false
	d.mu.Unlock()
}

// Addr returns the device's UDP address.
func (d *UDPDevice) Addr() string { return d.sock.LocalAddr().String() }

// Close stops the device: the receive loop exits, queued packets
// drain, and the workers stop.
func (d *UDPDevice) Close() error {
	err := d.sock.Close()
	d.wg.Wait()
	if d.sharded != nil {
		d.sharded.Close()
	}
	return err
}

// DeviceStats is a consistent snapshot of the device counters.
type DeviceStats struct {
	Processed       uint64
	Dropped         uint64
	QueueFull       uint64
	FaultDropped    uint64
	FaultDuplicated uint64
	Workers         int
	// Reads and Writes count socket operations: Processed/Reads is the
	// burst size. Offload is "on" while they move whole runs (UDP_GRO /
	// UDP_SEGMENT), else "off: " and the error that turned it off.
	Reads, Writes uint64
	Offload       string
}

// Stats snapshots the device counters (safe while traffic is flowing).
func (d *UDPDevice) Stats() DeviceStats {
	st := DeviceStats{
		Processed:       atomic.LoadUint64(&d.Processed),
		Dropped:         atomic.LoadUint64(&d.Dropped),
		QueueFull:       atomic.LoadUint64(&d.QueueFull),
		FaultDropped:    atomic.LoadUint64(&d.FaultDropped),
		FaultDuplicated: atomic.LoadUint64(&d.FaultDuplicated),
		Workers:         1,
		Reads:           d.sock.reads.Load(),
		Writes:          d.sock.writes.Load(),
		Offload:         d.sock.offload(),
	}
	if d.sharded != nil {
		st.Workers = d.sharded.Shards()
	}
	return st
}

// SetNodeAddr registers the UDP address of a node (host or device) and
// installs the corresponding forwarding entry (the operator's job in
// the paper's deployment story).
func (d *UDPDevice) SetNodeAddr(id uint16, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	ap := unmap(ua.AddrPort())
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addrs[id] = ap
	// Nodes send from the conn they registered, so the datagram source
	// address identifies the sender: its id becomes the ingress port.
	d.ports[ap] = int(id)
	return d.sw.InsertEntry("netcl_fwd", &p4.Entry{
		Keys:   []p4.KeyValue{{Value: uint64(id), PrefixLen: -1}},
		Action: &p4.ActionCall{Name: "set_port", Args: []uint64{uint64(id)}},
	})
}

// SetMulticastGroup maps a group id to member node ids.
func (d *UDPDevice) SetMulticastGroup(gid int, members []uint16) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mcast[gid] = append([]uint16(nil), members...)
}

// unmap strips the IPv4-in-IPv6 form, so an address compares equal
// whichever socket family reported it.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

func (d *UDPDevice) loop() {
	defer d.wg.Done()
	for {
		segs, from, err := d.sock.read()
		switch {
		case err == nil:
			d.receive(segs, unmap(from))
		case err == errBadRead:
			atomic.AddUint64(&d.Dropped, 1)
		case errors.Is(err, net.ErrClosed): // Close, or the socket died
			return
		default: // not ours to fix, and not worth a core: look again shortly
			time.Sleep(time.Millisecond)
		}
	}
}

var frameRoom [FrameOverhead]byte

// receive takes one read — k datagrams from one source, in order —
// through pause and the ingress fault injector per datagram, and runs
// the survivors as one burst or hands each to its flow's worker.
func (d *UDPDevice) receive(segs [][]byte, from netip.AddrPort) {
	d.mu.Lock()
	paused := d.paused
	inPort := d.ports[from] // 0 when the sender is unregistered
	d.mu.Unlock()
	arena, pkts := d.arena[:0], d.pkts[:0]
	for _, seg := range segs {
		if paused || d.faults.drop() {
			atomic.AddUint64(&d.FaultDropped, 1)
			continue
		}
		copies := 1
		if d.faults.dup() {
			atomic.AddUint64(&d.FaultDuplicated, 1)
			copies = 2
		}
		for ; copies > 0; copies-- {
			if d.sharded != nil {
				// The packet outlives this read: it is framed in a pooled
				// buffer that its completion releases.
				db := d.bufs.Get().(*dbuf)
				n := FrameOverhead + copy(db.b[FrameOverhead:], seg)
				d.submit(FrameInPlace(db.b[:n], uint64(d.ID), 0), inPort, db)
				continue
			}
			// Growing the arena strands earlier frames in the old one,
			// intact; a duplicate is framed twice.
			at := len(arena)
			arena = append(append(arena, frameRoom[:]...), seg...)
			pkts = append(pkts, FrameInPlace(arena[at:], uint64(d.ID), 0))
		}
	}
	d.arena, d.pkts = arena, pkts
	if len(pkts) == 0 {
		return
	}

	// The serialized path (Workers <= 1): one d.mu hold runs the burst
	// and resolves where each output goes, ordered with control-plane
	// calls; the outputs then leave in order, coalesced.
	if n := len(pkts); len(d.res) < n {
		d.res, d.errs, d.inPts = make([]bmv2.Result, n), make([]error, n), make([]int, n)
	}
	ports := d.inPts[:len(pkts)]
	for i := range ports {
		ports[i] = inPort
	}
	outs := d.outs[:0]
	d.mu.Lock()
	d.sw.ProcessBurst(pkts, ports, d.res, d.errs)
	for i := range pkts {
		outs = d.routeLocked(outs, &d.res[i], d.errs[i])
	}
	d.mu.Unlock()
	d.outs = outs
	for _, o := range outs {
		if d.faults.drop() {
			atomic.AddUint64(&d.FaultDropped, 1)
		} else {
			_ = d.sock.queue(o.dst, o.msg) // a refused datagram is a lost one: the hosts retransmit
		}
	}
	_ = d.sock.flush()
}

// submit hands a framed packet to its flow's worker; a full queue
// sheds the packet (open-loop backpressure).
func (d *UDPDevice) submit(pkt []byte, inPort int, db *dbuf) {
	ok := d.sharded.SubmitPort(pkt, inPort, func(res *bmv2.Result, err error) {
		d.mu.Lock()
		outs := d.routeLocked(nil, res, err)
		d.mu.Unlock()
		for _, o := range outs {
			if d.faults.drop() {
				atomic.AddUint64(&d.FaultDropped, 1)
			} else {
				_ = d.sock.write1(o.dst, o.msg) // a refused datagram is a lost one: the hosts retransmit
			}
		}
		d.bufs.Put(db)
	})
	if !ok {
		atomic.AddUint64(&d.QueueFull, 1)
		atomic.AddUint64(&d.Dropped, 1)
		d.bufs.Put(db)
	}
}

// routeLocked counts one processed packet and appends its message to
// outs per destination; one that goes nowhere counts in Dropped.
func (d *UDPDevice) routeLocked(outs []outMsg, res *bmv2.Result, err error) []outMsg {
	atomic.AddUint64(&d.Processed, 1)
	n := len(outs)
	msg, ok := []byte(nil), err == nil && !res.Dropped
	if ok {
		msg, ok = Deframe(res.Data)
	}
	if ok {
		ids := d.mcast[res.Mcast]
		if res.Mcast == 0 {
			ids = []uint16{uint16(res.Port)}
		}
		for _, id := range ids {
			if a, ok := d.addrs[id]; ok {
				outs = append(outs, outMsg{a, msg})
			}
		}
	}
	if len(outs) == n {
		atomic.AddUint64(&d.Dropped, 1)
	}
	return outs
}

// Control-plane Client implementation. On the serialized path every
// call holds d.mu, which also serializes it with inline processing. On
// the sharded path register access quiesces the workers (registers are
// plain memory owned by the data path) while table mutations publish
// RCU snapshots and never stall a worker. Write batches apply
// transactionally: in-flight packets observe the whole batch or none
// of it.

// Write implements p4rt.Client: one all-or-nothing batch.
func (d *UDPDevice) Write(b *p4rt.WriteBatch) (*p4rt.WriteResult, error) {
	if d.sharded != nil {
		return d.sharded.Write(b)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sw.Write(b)
}

// RegisterRead implements p4rt.Client.
func (d *UDPDevice) RegisterRead(name string, idx int) (uint64, error) {
	if d.sharded != nil {
		return d.sharded.RegisterRead(name, idx)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sw.RegisterRead(name, idx)
}

// SetDefaultAction configures a table's default action (operator
// configuration, e.g. the baseline AGG worker count).
func (d *UDPDevice) SetDefaultAction(table, action string, args []uint64) error {
	if d.sharded != nil {
		return d.sharded.SetDefaultAction(table, action, args)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sw.SetDefaultAction(table, action, args)
}

// HostConn is a host-side UDP endpoint for NetCL messages, mirroring
// the socket code of the paper's Figure 6. It implements Endpoint:
// Send is fire-and-forget; Call, SendReliable and Recv run the
// reliability protocol (seq, retransmit, backoff, dedup) on a window-1
// Channel over the socket, so like any Channel one goroutine at a time
// may be inside them.
type HostConn struct {
	ID     uint16
	sock   *segConn
	device netip.AddrPort
	cfg    ReliabilityConfig
	ep     *Channel // window 1: the engine behind Call, SendReliable and Recv
	start  time.Time

	wmu   sync.Mutex // SendBatch: the socket's run
	rmu   sync.Mutex // recv: the socket's read buffer and:
	pend  [][]byte   // datagrams of the last read not yet handed out
	timed bool       // a read deadline is set on the socket
}

// DialConfig parameterizes a host endpoint.
type DialConfig struct {
	// ID is the host's NetCL node id.
	ID uint16
	// Local is the UDP address to bind ("127.0.0.1:0").
	Local string
	// Device is the UDP address of the first-hop device.
	Device string
	// Reliability carries the retransmission knobs (zero value =
	// defaults: 20ms timeout, 8 retries, 2x backoff).
	Reliability ReliabilityConfig
}

// Dial opens the host endpoint described by cfg.
func Dial(cfg DialConfig) (*HostConn, error) {
	la, err := net.ResolveUDPAddr("udp", cfg.Local)
	if err != nil {
		return nil, err
	}
	da, err := net.ResolveUDPAddr("udp", cfg.Device)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, err
	}
	h := &HostConn{
		ID: cfg.ID, sock: newSegConn(conn), device: unmap(da.AddrPort()),
		cfg: cfg.Reliability, start: time.Now(),
	}
	h.ep = NewChannel(hostTransport{h}, ChannelConfig{Window: 1, Reliability: cfg.Reliability})
	return h, nil
}

// Addr returns the host's UDP address.
func (h *HostConn) Addr() string { return h.sock.LocalAddr().String() }

// Close abandons a call still in flight and releases the socket.
func (h *HostConn) Close() error {
	h.ep.Close()
	return h.sock.Close()
}

// Stats returns the counters of the endpoint's window-1 channel: the
// traffic of Call, SendReliable and Recv.
func (h *HostConn) Stats() ChannelStats { return h.ep.Stats() }

// hostTransport adapts the socket to the Channel.
type hostTransport struct{ h *HostConn }

func (t hostTransport) Send(msg []byte) error { return t.h.sock.write1(t.h.device, msg) }

// SendBatch writes msgs to the device in order, each run of
// equal-length messages as one segmented datagram (see segConn.queue).
func (t hostTransport) SendBatch(msgs [][]byte) error {
	h := t.h
	h.wmu.Lock()
	defer h.wmu.Unlock()
	for _, m := range msgs {
		if err := h.sock.queue(h.device, m); err != nil {
			return err
		}
	}
	return h.sock.flush()
}

// recv hands out the datagrams of the last read — all of them, or just
// the next — first waiting up to timeout (0: until something arrives)
// for a read when none is left. They alias the socket's buffer. The
// socket's deadline is touched only to set one or to clear a stale one.
func (h *HostConn) recv(timeout time.Duration, all bool) (msgs [][]byte, err error) {
	h.rmu.Lock()
	defer h.rmu.Unlock()
	if len(h.pend) == 0 {
		if timeout > 0 || h.timed {
			var at time.Time
			if timeout > 0 {
				at = time.Now().Add(timeout)
			}
			if err := h.sock.SetReadDeadline(at); err != nil {
				return nil, err
			}
			h.timed = timeout > 0
		}
		if h.pend, _, err = h.sock.read(); err != nil {
			return nil, err
		}
	}
	n := 1
	if all {
		n = len(h.pend)
	}
	msgs, h.pend = h.pend[:n], h.pend[n:]
	return msgs, nil
}

// Recv returns the next datagram in a buffer of its own. (A Channel
// reads through RecvBatch; Recv completes the Transport.)
func (t hostTransport) Recv(timeout time.Duration) ([]byte, error) {
	m, err := t.h.recv(timeout, false)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), m[0]...), nil
}

// RecvBatch returns every datagram of one read (see BatchRecver).
func (t hostTransport) RecvBatch(timeout time.Duration) ([][]byte, error) {
	return t.h.recv(timeout, true)
}

func (t hostTransport) Now() time.Duration { return time.Since(t.h.start) }

// Send transmits a packed NetCL message to the device, unreliably.
func (h *HostConn) Send(msg []byte) error { return hostTransport{h}.Send(msg) }

// SendMessage packs (into a pooled buffer) and sends in one call.
func (h *HostConn) SendMessage(spec *MessageSpec, m Message, args [][]uint64) error {
	return SendTo(h, spec, m, args)
}

// NewChannel opens a pipelined sliding-window channel over this
// connection's socket (see Channel). A zero cfg.Reliability inherits
// the connection's reliability knobs. The channel and the endpoint's
// own Call, SendReliable and Recv share the socket — use one or the
// other, not both.
func (h *HostConn) NewChannel(cfg ChannelConfig) *Channel {
	if cfg.Reliability == (ReliabilityConfig{}) {
		cfg.Reliability = h.cfg
	}
	return NewChannel(hostTransport{h}, cfg)
}

// SendReliable transmits msg with an ack request, retransmitting until
// the receiving host acknowledges it or the retry budget runs out.
func (h *HostConn) SendReliable(msg []byte) error {
	p, err := h.ep.SendReliable(msg)
	if err == nil {
		_, err = p.Wait(0)
	}
	return err
}

// Recv waits up to timeout (0: until a message arrives) for a NetCL
// message. Acks are consumed, duplicates suppressed, and the
// reliability trailer stripped; untrailered messages pass through
// unchanged.
func (h *HostConn) Recv(timeout time.Duration) ([]byte, error) { return h.ep.Recv(timeout) }

// Call sends msg and waits for the response carrying its sequence
// number, retransmitting with exponential backoff within the
// configured retry budget. timeout, when positive, replaces the
// configured initial per-attempt timeout.
func (h *HostConn) Call(msg []byte, timeout time.Duration) ([]byte, error) {
	return h.ep.Call(msg, timeout)
}

// CallMessage packs m, Calls, and unpacks the response into out.
func (h *HostConn) CallMessage(spec *MessageSpec, m Message, args, out [][]uint64, timeout time.Duration) (wire.Header, error) {
	return CallMessage(h, spec, m, args, out, timeout)
}

// RecvMessage receives and unpacks one message.
func (h *HostConn) RecvMessage(spec *MessageSpec, args [][]uint64, timeout time.Duration) (wire.Header, error) {
	msg, err := h.Recv(timeout)
	if err != nil {
		return wire.Header{}, err
	}
	hdr, err := Unpack(spec, msg, args)
	if err != nil {
		return hdr, fmt.Errorf("recv: %w", err)
	}
	return hdr, nil
}
