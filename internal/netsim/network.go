package netsim

import (
	"fmt"
	"math"
	"sort"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
	"netcl/internal/runtime"
)

// Network is a topology of hosts and P4 devices over links.
//
// Node state is slab-allocated: Host and Link handles come out of
// chunked slabs (stable pointers), hot per-host fields live in
// struct-of-arrays columns (slab.go), and the event loop runs typed
// event records (events.go) — the combination holds bytes-per-host
// and allocs-per-event near the floor at million-host scale.
type Network struct {
	Sim
	netCounters
	hostsByID map[uint16]*Host
	devsByID  map[uint16]*Device
	hs        hostSlab
	hc        hostCols
	links     linkSlab
	devs      []*Device
	faults    *FaultConfig // armed fault model (nil = none)
	// topo is the fabric last built on this network (nil when wired by
	// hand); SetPartitions uses its locality order to cut partitions
	// along rack/pod boundaries.
	topo *Topo

	// p0 is partition 0: the execution context over the embedded Sim,
	// and the only one until SetPartitions cuts the network.
	p0        part
	parts     []*part // never empty; parts[0] == &p0
	lookahead Time    // +Inf while there is one partition

	trace   bool
	timerFn func(*Host)
}

// netCounters are the delivery/drop statistics, embedded so the
// historical field names (n.PacketsDelivered etc.) keep working and so
// partitions can accumulate privately and fold at the barrier.
type netCounters struct {
	PacketsDelivered uint64
	PacketsDropped   uint64
	// FaultsDropped/FaultsDuplicated count probabilistic injections
	// (see InjectFaults); they are included in PacketsDropped.
	FaultsDropped    uint64
	FaultsDuplicated uint64
	// LinkDownDrops counts packets offered to an administratively-down
	// link direction (SetPortDown/SetLinkDown); included in
	// PacketsDropped.
	LinkDownDrops uint64
}

func (c *netCounters) fold(o *netCounters) {
	c.PacketsDelivered += o.PacketsDelivered
	c.PacketsDropped += o.PacketsDropped
	c.FaultsDropped += o.FaultsDropped
	c.FaultsDuplicated += o.FaultsDuplicated
	c.LinkDownDrops += o.LinkDownDrops
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	n := &Network{
		hostsByID: map[uint16]*Host{},
		devsByID:  map[uint16]*Device{},
	}
	n.p0 = part{n: n, sim: &n.Sim, ctr: &n.netCounters}
	n.Sim.exec = func(e *event) { n.p0.dispatch(e) }
	n.unpartition()
	return n
}

// Link is a full-duplex link with latency and bandwidth; each
// direction serializes independently.
type Link struct {
	LatencyNs     Time
	BandwidthGbps float64
	// DropNth deterministically drops every Nth packet crossing the
	// link in each direction (0 = lossless); used for failure
	// injection. The count is kept per direction because two
	// partitions may drive the two directions concurrently.
	DropNth int
	// busyUntil per direction (0: ends[0]→ends[1], 1: reverse).
	busyUntil [2]Time
	ends      [2]end
	idx       int32
	// Per-direction state, each owned by the partition driving that
	// direction: traversal and drop counters and the fault RNG streams.
	crossedDir [2]uint64
	droppedDir [2]uint64
	rng        [2]uint64
	// bytesDir counts payload bytes actually put on the wire per
	// direction (drops excluded, duplicates included).
	bytesDir [2]uint64
	// down marks a direction administratively failed (FailLink events):
	// packets offered to a down direction drop before any counter or
	// fault-RNG draw, so flipping the flag at identical virtual times
	// keeps the draw streams — and therefore k-partition hash identity —
	// aligned whatever the partition count.
	down [2]bool
}

// Dropped returns the packets DropNth and probabilistic loss dropped
// on the link, both directions.
func (l *Link) Dropped() uint64 { return l.droppedDir[0] + l.droppedDir[1] }

// Bytes returns the bytes transmitted in one direction (0: ends[0]→
// ends[1], 1: reverse).
func (l *Link) Bytes(dir int) uint64 { return l.bytesDir[dir&1] }

// end identifies one side of a link: a host index (≥ 0) or a device
// index encoded as its bitwise complement (< 0), plus the device port.
type end struct {
	node int32
	port int32
}

func devNode(idx int32) int32  { return ^idx }
func (e end) isDevice() bool   { return e.node < 0 }
func (e end) deviceIdx() int32 { return ^e.node }

// serialization returns the wire time of n bytes.
func (l *Link) serialization(n int) Time {
	if l.BandwidthGbps <= 0 {
		return 0
	}
	return Time(float64(n*8) / l.BandwidthGbps) // ns for Gbit/s
}

// Host is an end system: a thin handle over slab state. Hot fields
// (counters, processing delay, the Receive callback) live in the
// network's struct-of-arrays columns behind the accessor methods.
type Host struct {
	ID  uint16
	net *Network
	idx int32
}

// Index returns the host's slab index (stable, assigned at AddHost).
func (h *Host) Index() int { return int(h.idx) }

// SetReceive installs the callback invoked (in simulated time) for
// every delivered NetCL message, already deframed. The msg slice is
// only valid for the duration of the callback: the underlying packet
// buffer is pooled and reused — copy it to retain it.
func (h *Host) SetReceive(fn func(h *Host, msg []byte)) { h.net.hc.recv[h.idx] = fn }

// ReceiveFn returns the currently installed receive callback.
func (h *Host) ReceiveFn() func(h *Host, msg []byte) { return h.net.hc.recv[h.idx] }

// ProcessingNs returns the per-message host-side cost (socket wakeup,
// packing); applied before Receive runs and on each Send.
func (h *Host) ProcessingNs() Time { return h.net.hc.procNs[h.idx] }

// SetProcessingNs sets the per-message host-side cost.
func (h *Host) SetProcessingNs(t Time) { h.net.hc.procNs[h.idx] = t }

// Sent returns the number of frames the host transmitted.
func (h *Host) Sent() uint64 { return h.net.hc.sent[h.idx] }

// Received returns the number of frames delivered to the host.
func (h *Host) Received() uint64 { return h.net.hc.recvd[h.idx] }

// Device is a P4 switch instance.
type Device struct {
	ID    uint16
	SW    *bmv2.Switch
	net   *Network
	idx   int32
	part  int32
	ports []int32 // port number → link index + 1 (0 = unwired)
	mcast map[int][]int
	// PipelineNs is the device forwarding latency (from the p4c
	// latency model or a default).
	PipelineNs Time
	// paused devices drop every packet (see Pause/Restart).
	paused bool

	Processed uint64
}

// AddHost registers a host.
func (n *Network) AddHost(id uint16) *Host {
	h := n.hs.alloc()
	*h = Host{ID: id, net: n, idx: n.hc.add()}
	n.hostsByID[id] = h
	return h
}

// AddDevice registers a device running the given P4 program.
func (n *Network) AddDevice(id uint16, prog *p4.Program) *Device {
	d := &Device{
		ID: id, SW: bmv2.New(prog), net: n,
		idx: int32(len(n.devs)), mcast: map[int][]int{},
		PipelineNs: 400,
	}
	n.devs = append(n.devs, d)
	n.devsByID[id] = d
	return d
}

// Host returns a host by id.
func (n *Network) Host(id uint16) *Host { return n.hostsByID[id] }

// Device returns a device by id.
func (n *Network) Device(id uint16) *Device { return n.devsByID[id] }

// Hosts returns the number of hosts in the network.
func (n *Network) Hosts() int { return int(n.hs.count) }

// HostAt returns a host by slab index (insertion order).
func (n *Network) HostAt(i int) *Host { return n.hs.at(int32(i)) }

func (d *Device) setPort(p int, linkIdx int32) {
	for p >= len(d.ports) {
		d.ports = append(d.ports, 0)
	}
	d.ports[p] = linkIdx + 1
}

func (d *Device) portLink(p int) int32 {
	if p < 0 || p >= len(d.ports) {
		return 0
	}
	return d.ports[p]
}

// Connect joins a host to a device port (100G, 1µs default latency).
// The host is always end 0 of the link.
func (n *Network) Connect(h *Host, d *Device, devPort int) *Link {
	l := n.links.alloc()
	l.LatencyNs = 1 * Microsecond
	l.BandwidthGbps = 100
	l.ends[0] = end{node: h.idx}
	l.ends[1] = end{node: devNode(d.idx), port: int32(devPort)}
	n.hc.link[h.idx] = l.idx + 1
	d.setPort(devPort, l.idx)
	return l
}

// ConnectDevices joins two devices.
func (n *Network) ConnectDevices(a *Device, aPort int, b *Device, bPort int) *Link {
	l := n.links.alloc()
	l.LatencyNs = 1 * Microsecond
	l.BandwidthGbps = 100
	l.ends[0] = end{node: devNode(a.idx), port: int32(aPort)}
	l.ends[1] = end{node: devNode(b.idx), port: int32(bPort)}
	a.setPort(aPort, l.idx)
	b.setPort(bPort, l.idx)
	return l
}

// SetMulticastGroup installs a replication group on the device.
func (d *Device) SetMulticastGroup(gid int, ports []int) {
	d.mcast[gid] = append([]int(nil), ports...)
}

// AutoWire installs netcl_fwd entries on every device: each node id is
// mapped to the local egress port on the shortest path toward it. This
// plays the role of the paper's operator-managed deployment step
// (§III: "the assumed topology gets mapped to the real network").
// Iteration is fully ordered — devices by id, ports ascending, entry
// installation by node id — so equal-cost tie-breaks and the resulting
// table contents are identical run to run.
func (n *Network) AutoWire() error {
	devs := append([]*Device(nil), n.devs...)
	sort.Slice(devs, func(i, j int) bool { return devs[i].ID < devs[j].ID })
	for _, d := range devs {
		// BFS from d over the device graph, port numbers ascending.
		nexthopPort := map[uint16]int{}
		type item struct {
			dev  *Device
			port int // first-hop port at d
		}
		visited := map[*Device]bool{d: true}
		var queue []item
		expand := func(from *Device, firstHop func(p int) int) {
			for p := range from.ports {
				li := from.ports[p]
				if li == 0 {
					continue
				}
				l := n.links.at(li - 1)
				peer := l.peerOf(from, p)
				if peer.isDevice() {
					pd := n.devs[peer.deviceIdx()]
					if !visited[pd] {
						visited[pd] = true
						nexthopPort[pd.ID] = firstHop(p)
						queue = append(queue, item{dev: pd, port: firstHop(p)})
					}
				} else {
					ph := n.hs.at(peer.node)
					if _, ok := nexthopPort[ph.ID]; !ok {
						nexthopPort[ph.ID] = firstHop(p)
					}
				}
			}
		}
		expand(d, func(p int) int { return p })
		for len(queue) > 0 {
			it := queue[0]
			queue = queue[1:]
			expand(it.dev, func(int) int { return it.port })
		}
		ids := make([]int, 0, len(nexthopPort))
		for id := range nexthopPort {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		for _, id := range ids {
			_, err := d.SW.Write(bmv2.NewWriteBatch().Insert("netcl_fwd", &p4.Entry{
				Keys:   []p4.KeyValue{{Value: uint64(id), PrefixLen: -1}},
				Action: &p4.ActionCall{Name: "set_port", Args: []uint64{uint64(nexthopPort[uint16(id)])}},
			}))
			if err != nil {
				return fmt.Errorf("device %d: %w", d.ID, err)
			}
		}
	}
	return nil
}

// peerOf returns the far end of the link as seen from device d's
// port p.
func (l *Link) peerOf(d *Device, p int) end {
	me := end{node: devNode(d.idx), port: int32(p)}
	if l.ends[0] == me {
		return l.ends[1]
	}
	return l.ends[0]
}

// Send transmits a NetCL message from the host into the network. The
// frame is built into a pooled buffer; msg itself is copied and may be
// reused by the caller immediately.
func (h *Host) Send(msg []byte) {
	n := h.net
	li := n.hc.link[h.idx]
	if li == 0 {
		return
	}
	l := n.links.at(li - 1)
	if !l.ends[1].isDevice() {
		return
	}
	n.hc.sent[h.idx]++ // counted only for frames that actually transmit
	pt := n.partFor(h.idx)
	pb := pt.pool.get()
	pb.b = frameInto(pb.b, msg, uint64(h.ID))
	pt.sim.post(n.hc.procNs[h.idx], event{kind: evHostSend, node: h.idx, buf: pb})
}

// SendBatch transmits several NetCL messages as one host operation:
// the buffered-flush analogue, paying the ProcessingNs wakeup once for
// the whole batch. Each message still frames, serializes and faults on
// the link individually, so loss and ordering behave exactly as with
// per-message Send.
func (h *Host) SendBatch(msgs [][]byte) {
	n := h.net
	li := n.hc.link[h.idx]
	if li == 0 || len(msgs) == 0 {
		return
	}
	l := n.links.at(li - 1)
	if !l.ends[1].isDevice() {
		return
	}
	n.hc.sent[h.idx] += uint64(len(msgs))
	pt := n.partFor(h.idx)
	var head, tail *pbuf
	for _, m := range msgs {
		pb := pt.pool.get()
		pb.b = frameInto(pb.b, m, uint64(h.ID))
		if tail == nil {
			head = pb
		} else {
			tail.next = pb
		}
		tail = pb
	}
	pt.sim.post(n.hc.procNs[h.idx], event{kind: evHostSend, node: h.idx, buf: head})
}

// frameInto builds the NetCL frame for msg into buf's capacity.
func frameInto(buf, msg []byte, src uint64) []byte {
	need := runtime.FrameOverhead + len(msg)
	if cap(buf) < need {
		buf = make([]byte, need)
	} else {
		buf = buf[:need]
	}
	copy(buf[runtime.FrameOverhead:], msg)
	return runtime.FrameInPlace(buf, src, 0)
}

// At schedules fn to run at now+delay in the partition owning this
// device: the scenario hook for timeline events (crash, restore,
// control-plane batches) that must mutate device state from inside the
// owning execution context. Call it after SetPartitions, like
// StartTimer. fn runs in simulated time and may itself call At to
// chain follow-up events.
func (d *Device) At(delay Time, fn func()) {
	pt := d.net.parts[d.part]
	pt.sim.post(delay, event{kind: evFunc, fn: fn})
}

// Now returns the simulated time in the host's partition: the clock a
// receive or timer callback must read (the network-wide Sim clock is
// partition 0's, and the others' run ahead of it inside a window).
func (h *Host) Now() Time { return h.net.partFor(h.idx).sim.now }

// At schedules fn at now+delay in the partition owning this host —
// the host-side analogue of Device.At (per-host state swaps such as a
// workload-distribution shift).
func (h *Host) At(delay Time, fn func()) {
	pt := h.net.partFor(h.idx)
	pt.sim.post(delay, event{kind: evFunc, fn: fn})
}

// SetPortDown administratively fails (or restores) the outgoing
// direction of the link on one device port. Packets the device offers
// to a down direction drop at the link (LinkDownDrops); the reverse
// direction is unaffected unless failed from the peer. Flip it from a
// Device.At event so the change lands at a deterministic virtual time
// in the owning partition.
func (d *Device) SetPortDown(port int, down bool) {
	li := d.portLink(port)
	if li == 0 {
		return
	}
	l := d.net.links.at(li - 1)
	dir := 0
	if l.ends[0] != (end{node: devNode(d.idx), port: int32(port)}) {
		dir = 1
	}
	l.down[dir] = down
}

// OnTimer installs the network-wide timer callback fired by
// Host.StartTimer events: the closure-free way for scenario drivers to
// self-pace millions of senders (one registered function, zero
// allocations per armed timer).
func (n *Network) OnTimer(fn func(*Host)) { n.timerFn = fn }

// StartTimer schedules the network's OnTimer callback for this host
// after delay. The timer lands in the host's own partition, so it is
// safe to arm from setup code and from callbacks running anywhere in
// that partition.
func (h *Host) StartTimer(delay Time) {
	pt := h.net.partFor(h.idx)
	pt.sim.post(delay, event{kind: evTimer, node: h.idx})
}

// EnableTrace turns on per-host delivery hash chains: every delivery
// folds (time, payload) into the host's chain, and TraceHash combines
// the chains in host order. Two runs with equal hashes delivered the
// same bytes at the same simulated times to every host — the
// determinism witness the partition-count tests compare.
func (n *Network) EnableTrace() { n.trace = true }

// TraceHash folds the per-host delivery chains (host slab order) into
// one digest.
func (n *Network) TraceHash() uint64 {
	h := uint64(14695981039346656037)
	for _, hh := range n.hc.hash {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (hh >> s & 0xff)) * 1099511628211
		}
	}
	return h
}

func (n *Network) foldTrace(hi int32, t Time, msg []byte) {
	h := n.hc.hash[hi]
	if h == 0 {
		h = 14695981039346656037
	}
	tb := math.Float64bits(float64(t)) // exact: equal hashes need equal times
	for s := 0; s < 64; s += 8 {
		h = (h ^ (tb >> s & 0xff)) * 1099511628211
	}
	for _, b := range msg {
		h = (h ^ uint64(b)) * 1099511628211
	}
	n.hc.hash[hi] = h
}
