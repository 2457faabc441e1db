package netsim

import (
	"netcl/internal/bmv2"
	"netcl/internal/runtime"
)

// events.go is the closure-free packet path: the dispatch switch that
// gives typed event records their meaning, and the transmit step that
// moves pooled buffers across links. Everything here runs in the
// context of one partition (pt); a network that is not cut runs in
// its built-in partition 0.

// dispatch executes one typed event. The per-kind scheduling order and
// timing math are fixed, so equal inputs give byte-identical runs.
func (pt *part) dispatch(e *event) {
	n := pt.n
	switch e.kind {
	case evHostSend:
		// One host wakeup flushing a chain of framed packets (Send is a
		// chain of one) onto the host's uplink, in order.
		l := n.links.at(n.hc.link[e.node] - 1)
		for pb := e.buf; pb != nil; {
			next := pb.next
			pb.next = nil
			pt.transmit(l, 0, pb) // hosts are always end 0 (Connect)
			pb = next
		}
	case evArrive:
		l := n.links.at(e.link)
		to := l.ends[int(e.dir)^1]
		if to.isDevice() {
			pt.devReceive(n.devs[to.deviceIdx()], int(to.port), e.buf)
		} else {
			pt.hostDeliver(to.node, e.buf)
		}
	case evDevFwd:
		pt.devSend(n.devs[e.node], int(e.port), e.buf)
	case evDevMcast:
		d := n.devs[e.node]
		ports := d.mcast[int(e.port)]
		if len(ports) == 0 {
			pt.ctr.PacketsDropped++
			pt.pool.release(e.buf)
			return
		}
		// Every recipient shares the buffer by refcount (the closure
		// path copied per recipient; sharing changes allocations, not
		// bytes or timing). Fault draws stay in group order.
		pb := e.buf
		pb.refs += int32(len(ports) - 1)
		for _, p := range ports {
			pt.devSend(d, p, pb)
		}
	case evHostRecv:
		pb := e.buf
		if fn := n.hc.recv[e.node]; fn != nil {
			msg, _ := runtime.Deframe(pb.b)
			fn(n.hs.at(e.node), msg)
		}
		pt.pool.release(pb)
	case evTimer:
		if n.timerFn != nil {
			n.timerFn(n.hs.at(e.node))
		}
	}
}

// devReceive runs the P4 pipeline on an arriving packet and schedules
// the forwarding step after the device's pipeline latency. The output
// is deparsed into a pooled buffer (ProcessInto reuses its capacity),
// so the steady-state device path allocates nothing.
func (pt *part) devReceive(d *Device, inPort int, pb *pbuf) {
	if d.paused {
		pt.ctr.PacketsDropped++
		pt.pool.release(pb)
		return
	}
	d.Processed++
	out := pt.pool.get()
	res := bmv2.Result{Data: out.b}
	err := d.SW.ProcessInto(pb.b, inPort, &res)
	pt.pool.release(pb)
	if err != nil || res.Dropped {
		pt.ctr.PacketsDropped++
		pt.pool.put(out)
		return
	}
	out.b = res.Data
	ev := event{kind: evDevFwd, node: d.idx, port: int32(res.Port), buf: out}
	if res.Mcast != 0 {
		ev.kind, ev.port = evDevMcast, int32(res.Mcast)
	}
	pt.sim.post(d.PipelineNs, ev)
}

// devSend puts one packet (consuming one buffer reference) onto the
// device's egress port.
func (pt *part) devSend(d *Device, outPort int, pb *pbuf) {
	li := d.portLink(outPort)
	if li == 0 {
		pt.ctr.PacketsDropped++
		pt.pool.release(pb)
		return
	}
	l := pt.n.links.at(li - 1)
	dir := 0
	if l.ends[0] != (end{node: devNode(d.idx), port: int32(outPort)}) {
		dir = 1
	}
	pt.transmit(l, dir, pb)
}

// hostDeliver is the arrival half of delivery: deframe, count, fold
// the trace chain, then schedule the Receive callback after the host's
// processing delay (matching the original deliver()).
func (pt *part) hostDeliver(hi int32, pb *pbuf) {
	n := pt.n
	msg, ok := runtime.Deframe(pb.b)
	if !ok {
		pt.pool.release(pb)
		return
	}
	n.hc.recvd[hi]++
	pt.ctr.PacketsDelivered++
	if n.trace {
		n.foldTrace(hi, pt.sim.now, msg)
	}
	if n.hc.recv[hi] == nil {
		pt.pool.release(pb)
		return
	}
	pt.sim.post(n.hc.procNs[hi], event{kind: evHostRecv, node: hi, buf: pb})
}

// transmit schedules pb (consuming the caller's reference) across l in
// direction dir: fault draws, per-direction serialization against
// busyUntil, then an arrival event after the link latency plus jitter.
//
// Traversal counters and fault streams are per (link, direction), so
// the two directions can be driven by different partitions without
// sharing state, and the draw sequence seen by a packet stream is
// independent of the partition count — that is what makes k-partition
// runs hash-equal to 1-partition runs.
func (pt *part) transmit(l *Link, dir int, pb *pbuf) {
	n := pt.n
	if l.down[dir] {
		// A down direction drops before any traversal counter or fault
		// draw, so its stream stays aligned whatever the partition count.
		pt.ctr.LinkDownDrops++
		pt.ctr.PacketsDropped++
		pt.pool.release(pb)
		return
	}
	l.crossedDir[dir]++
	if l.DropNth > 0 && l.crossedDir[dir]%uint64(l.DropNth) == 0 {
		l.droppedDir[dir]++
		pt.ctr.PacketsDropped++
		pt.pool.release(pb)
		return
	}
	f := n.faults
	if f.loseDir(l, dir) {
		l.droppedDir[dir]++
		pt.ctr.PacketsDropped++
		pt.ctr.FaultsDropped++
		pt.pool.release(pb)
		return
	}
	s := pt.sim
	start := s.now
	if l.busyUntil[dir] > start {
		start = l.busyUntil[dir]
	}
	done := start + l.serialization(len(pb.b))
	l.busyUntil[dir] = done
	l.bytesDir[dir] += uint64(len(pb.b))
	at1 := done + l.LatencyNs + f.jitterDir(l, dir)
	dup := f.dupDir(l, dir)
	var at2 Time
	if dup {
		pt.ctr.FaultsDuplicated++
		l.bytesDir[dir] += uint64(len(pb.b))
		at2 = done + l.LatencyNs + f.jitterDir(l, dir)
	}

	dst := pt.partOfEnd(l.ends[dir^1])
	if dst == pt {
		arr := event{kind: evArrive, link: l.idx, dir: uint8(dir), buf: pb}
		s.post(at1-s.now, arr)
		if dup {
			pb.refs++
			s.post(at2-s.now, arr)
		}
		return
	}
	// Cross-partition: hand the buffer over whole, or split off a
	// private copy when other local events still reference it, so no
	// two partitions ever share a refcount. The peer enqueues the
	// event after the window barrier (arrival ≥ its safe horizon by
	// the lookahead invariant).
	if pb.refs > 1 {
		cp := pt.pool.get()
		cp.b = append(cp.b[:0], pb.b...)
		pt.pool.release(pb)
		pb = cp
	}
	if dup {
		pb.refs++
	}
	arr := event{at: at1, kind: evArrive, link: l.idx, dir: uint8(dir), buf: pb}
	pt.outbox[dst.id] = append(pt.outbox[dst.id], arr)
	if dup {
		arr.at = at2
		pt.outbox[dst.id] = append(pt.outbox[dst.id], arr)
	}
}

// partOfEnd returns the partition owning a link end's node.
func (pt *part) partOfEnd(e end) *part {
	n := pt.n
	if len(n.parts) == 1 {
		return pt
	}
	if e.isDevice() {
		return n.parts[n.devs[e.deviceIdx()].part]
	}
	return n.parts[n.hc.part[e.node]]
}

// partFor returns the execution context owning a host.
func (n *Network) partFor(hostIdx int32) *part { return n.parts[n.hc.part[hostIdx]] }
