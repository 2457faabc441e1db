package netsim

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Partitioned conservative-lookahead execution (CMB-style): the
// topology is cut into device-contiguous partitions, each owning its
// own event queue, clock, buffer pool and counters. Time advances in
// global windows [t, t+L) where t is the earliest pending event
// anywhere and L is the minimum latency of any cross-partition link.
// Within a window every partition runs independently (its events
// cannot affect another partition earlier than t+L, because the only
// cross-partition influence is a packet that must traverse a cross
// link: arrival ≥ send time + L ≥ t + L). Cross-partition transmits
// land in per-destination mailboxes and are enqueued at the barrier,
// in fixed (source, append) order, stamped with times the invariant
// guarantees are at or beyond the next window's start.
//
// Every network runs this way. An uncut network is one partition with
// no cross link, so L is +Inf and its whole run is a single window.

// part is one partition's execution context. Partition 0 is the
// network's built-in context (sim = &n.Sim, ctr = &n.netCounters), so
// an uncut network needs nothing beyond it.
type part struct {
	n      *Network
	id     int32
	sim    *Sim
	pool   bufPool
	ctr    *netCounters
	outbox [][]event // mailboxes, indexed by destination partition
}

// SetPartitions cuts the topology into k device-contiguous partitions
// (devices sorted by id, split into balanced blocks; hosts follow
// their device). Call it after the topology is built and before
// scheduling scenario events: pending events stay on partition 0.
//
// Fault streams and traversal counters are per (link, direction)
// whatever k is, so fault patterns and delivery hash chains are equal
// across partition counts; k ≤ 1 is the uncut network NewNetwork
// builds.
//
// k is clamped to the device count. An error is reported when a
// cross-partition link has no positive latency (the lookahead window
// would be empty).
func (n *Network) SetPartitions(k int) error {
	if k > len(n.devs) {
		k = len(n.devs)
	}
	if k <= 1 {
		n.unpartition()
		return nil
	}

	// Cut the device sequence into k balanced contiguous blocks. With a
	// fabric attached, the sequence is the topology's locality order
	// (chain position, leaves-then-spines, pod-major fat-tree), so the
	// cuts fall between racks/pods instead of slicing through them by
	// device-id accident; devices wired outside the fabric follow in id
	// order. Hand-wired networks keep the historical id-order split.
	var order []*Device
	if n.topo != nil && len(n.topo.locality) > 0 {
		order = append(order, n.topo.locality...)
		inFab := map[*Device]bool{}
		for _, d := range order {
			inFab[d] = true
		}
		var rest []*Device
		for _, d := range n.devs {
			if !inFab[d] {
				rest = append(rest, d)
			}
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i].ID < rest[j].ID })
		order = append(order, rest...)
	} else {
		order = append(order, n.devs...)
		sort.Slice(order, func(i, j int) bool { return order[i].ID < order[j].ID })
	}
	for i, d := range order {
		d.part = int32(i * k / len(order))
	}
	// Hosts follow the device they attach to (unattached hosts stay on
	// partition 0 — they generate no events anyway).
	for i := range n.hc.part {
		n.hc.part[i] = 0
		if li := n.hc.link[i]; li != 0 {
			peer := n.links.at(li - 1).ends[1]
			if peer.isDevice() {
				n.hc.part[i] = n.devs[peer.deviceIdx()].part
			}
		}
	}

	// Lookahead = min latency over cross-partition links.
	n.lookahead = Time(math.Inf(1))
	for i := int32(0); i < n.links.count; i++ {
		l := n.links.at(i)
		a, b := n.endPart(l.ends[0]), n.endPart(l.ends[1])
		if a == b {
			continue
		}
		if l.LatencyNs <= 0 {
			return fmt.Errorf("netsim: cross-partition link %d has latency %v; conservative lookahead needs > 0", i, l.LatencyNs)
		}
		if l.LatencyNs < n.lookahead {
			n.lookahead = l.LatencyNs
		}
	}

	n.parts = make([]*part, k)
	n.p0.outbox = make([][]event, k)
	n.parts[0] = &n.p0
	for i := 1; i < k; i++ {
		p := &part{n: n, id: int32(i), sim: &Sim{}, ctr: &netCounters{}, outbox: make([][]event, k)}
		p.sim.exec = func(e *event) { p.dispatch(e) }
		p.sim.now = n.Sim.now
		n.parts[i] = p
	}
	return nil
}

// unpartition makes the network one partition: everything on p0 and
// an infinite lookahead.
func (n *Network) unpartition() {
	for i := range n.hc.part {
		n.hc.part[i] = 0
	}
	for _, d := range n.devs {
		d.part = 0
	}
	n.p0.outbox = make([][]event, 1)
	n.parts = []*part{&n.p0}
	n.lookahead = Time(math.Inf(1))
}

// endPart returns the partition a link end belongs to.
func (n *Network) endPart(e end) int32 {
	if e.isDevice() {
		return n.devs[e.deviceIdx()].part
	}
	return n.hc.part[e.node]
}

// Lookahead reports the conservative-lookahead window width (0 when
// there is one partition, +Inf when no link crosses partitions).
func (n *Network) Lookahead() Time {
	if len(n.parts) == 1 {
		return 0
	}
	return n.lookahead
}

// Partitions reports the partition count.
func (n *Network) Partitions() int { return len(n.parts) }

// PrewarmBuffers stocks the packet-buffer pools with count buffers of
// the given byte capacity, split evenly across partitions. Call it
// after SetPartitions (each partition owns its own pool): a run whose
// in-flight working set stays under the prewarmed count allocates no
// packet buffers at all.
func (n *Network) PrewarmBuffers(count, size int) {
	per := (count + len(n.parts) - 1) / len(n.parts)
	for _, p := range n.parts {
		p.pool.prewarm(per, size)
	}
}

// BufferPeak sums the per-partition high-water marks of checked-out
// packet buffers: the run's buffer working set.
func (n *Network) BufferPeak() int {
	t := 0
	for _, p := range n.parts {
		t += p.pool.peak
	}
	return t
}

// TotalProcessed sums executed events across all partitions.
func (n *Network) TotalProcessed() uint64 {
	var t uint64
	for _, p := range n.parts {
		t += p.sim.Processed
	}
	return t
}

// TotalPeakQueue sums the per-partition pending-event high-water
// marks: the aggregate queue footprint of a run.
func (n *Network) TotalPeakQueue() int {
	t := 0
	for _, p := range n.parts {
		t += p.sim.PeakQueue
	}
	return t
}

// Run processes events up to the horizon (0 = until drained) in
// conservative-lookahead windows, until every queue is drained or the
// horizon is reached; with a horizon, every clock lands exactly on it.
// An uncut network is one window, run inline. Otherwise each window
// runs one goroutine per partition; on a single-CPU box the rounds
// serialize and the win is memory locality only (the standing ROADMAP
// note — record GOMAXPROCS when benchmarking).
func (n *Network) Run(until Time) error {
	for {
		// Global next-event time.
		t, found := Time(0), false
		for _, p := range n.parts {
			if at, ok := p.sim.nextAt(); ok && (!found || at < t) {
				t, found = at, true
			}
		}
		if !found || (until > 0 && t > until) {
			break
		}
		wEnd := t + n.lookahead
		// A partition may spend all that is left of the event budget in its
		// window; the sum after the barrier reports the overrun.
		left := n.limit() - min(n.limit(), n.TotalProcessed())
		if len(n.parts) == 1 {
			n.Sim.runWindow(wEnd, until, n.Processed+left)
		} else {
			var wg sync.WaitGroup
			for _, p := range n.parts {
				limit := p.sim.Processed + left
				wg.Add(1)
				go func(p *part) {
					defer wg.Done()
					p.sim.runWindow(wEnd, until, limit)
				}(p)
			}
			wg.Wait()
		}
		// Barrier: drain mailboxes in fixed (destination, source,
		// append) order so cross-partition events get deterministic
		// local scheduling numbers.
		for di, dst := range n.parts {
			for _, src := range n.parts {
				box := src.outbox[di]
				for i := range box {
					if box[i].at < wEnd && !math.IsInf(float64(wEnd), 1) {
						return fmt.Errorf("netsim: lookahead violation: cross event at %v before window end %v", box[i].at, wEnd)
					}
					dst.sim.postAbs(box[i])
				}
				src.outbox[di] = box[:0]
			}
		}
		for _, p := range n.parts {
			if p.sim.bad != nil {
				return p.sim.bad
			}
		}
		if n.MaxEvents > 0 && n.TotalProcessed() > n.MaxEvents {
			return fmt.Errorf("netsim: event budget exceeded (%d)", n.MaxEvents)
		}
	}
	// Land every clock on a common time: the horizon, or the furthest
	// partition when running to drain.
	endT := until
	for _, p := range n.parts {
		if p.sim.now > endT {
			endT = p.sim.now
		}
	}
	for _, p := range n.parts {
		if endT > p.sim.now {
			p.sim.now = endT
		}
	}
	// Fold the other partitions' counters into the public aggregate.
	for _, p := range n.parts[1:] {
		n.netCounters.fold(p.ctr)
		*p.ctr = netCounters{}
	}
	return nil
}

// RunAll processes every pending event.
func (n *Network) RunAll() error { return n.Run(0) }
