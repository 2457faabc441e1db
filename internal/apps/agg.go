package apps

// agg.go is the AGG application's host protocol, written once for
// every driver that runs it: the SwitchML chunk codec (RunAgg, the UDP
// workers and the scale sender) and the HierAgg open-loop bed
// (RunFabricAgg and RunChurnAggFailover).

import (
	"netcl/internal/netsim"
	"netcl/internal/p4"
	"netcl/internal/passes"
	"netcl/internal/runtime"
)

// aggArgs is the SwitchML chunk codec over an AGG-family kernel
// (AggSource's allreduce or HierAggSource's treduce), its fields bound
// by parameter name. A scalar the kernel lacks (treduce has no version
// or aggregation index) gets a private cell, so fill sets every field.
type aggArgs struct {
	*kernelArgs
	ver, slot, agg, mask, exp, vals []uint64
}

func newAggArgs(spec *runtime.MessageSpec) *aggArgs {
	k := newKernelArgs(spec)
	scalar := func(names ...string) []uint64 {
		for _, name := range names {
			if s := k.arg(name); s != nil {
				return s
			}
		}
		return make([]uint64, 1)
	}
	return &aggArgs{kernelArgs: k,
		ver: scalar("ver"), slot: scalar("bmp_idx", "slot"), agg: scalar("agg_idx"),
		mask: scalar("mask"), exp: scalar("exp"), vals: k.arg("v")}
}

// fill stages worker w's contribution to chunk c in (slot, version):
// the aggregation index picks the version's half of the numSlots-slot
// pool, exp carries the chunk number so a completion names its chunk,
// and element i is c+i+w, so a receiver can check the sum (sumOK).
func (a *aggArgs) fill(slot, ver, numSlots int, mask uint64, c, w int) {
	a.ver[0], a.slot[0] = uint64(ver), uint64(slot)
	a.agg[0] = uint64(slot + ver*numSlots)
	a.mask[0], a.exp[0] = mask, uint64(c)
	for i := range a.vals {
		a.vals[i] = uint64(c + i + w)
	}
}

// sumOK reports whether the unpacked values are chunk c reduced over
// workers: Σ_w (c+i+w) = W(c+i) + W(W-1)/2.
func (a *aggArgs) sumOK(c uint64, workers int) bool {
	w := uint64(workers)
	for i, v := range a.vals {
		if v != w*(c+uint64(i))+w*(w-1)/2 {
			return false
		}
	}
	return true
}

// aggWorker is worker w's side of the SwitchML slot protocol, shared
// by the simulated and the UDP drivers: a sliding window of chunks in
// flight, each settled by the completion of its (slot, version). Times
// are nanoseconds on the driver's clock.
type aggWorker struct {
	w, workers, window, chunks int
	tx, rx                     *aggArgs
	outstanding                map[int]bool    // sent chunks awaiting completion
	sentAt                     map[int]float64 // first send
	done                       int             // completed slots observed
}

func newAggWorker(spec *runtime.MessageSpec, w, workers, window, chunks int) *aggWorker {
	return &aggWorker{w: w, workers: workers, window: window, chunks: chunks,
		tx: newAggArgs(spec), rx: newAggArgs(spec),
		outstanding: map[int]bool{}, sentAt: map[int]float64{}}
}

// pack stages chunk c and marks it outstanding; a first send is
// stamped now, a resend keeps the first stamp.
func (a *aggWorker) pack(c int, now float64) ([]byte, error) {
	// Chunk c rides slot c%window in version (c/window)%2, the
	// alternating-version scheme that makes retransmission safe (§V-E).
	a.tx.fill(c%a.window, (c/a.window)%2, AggNumSlots, 1<<uint(a.w), c, a.w)
	msg, err := a.tx.pack(runtime.Message{Src: uint16(10 + a.w), Dst: 100, Device: 1, Comp: 1}.Header())
	if err != nil {
		return nil, err
	}
	if !a.outstanding[c] {
		a.sentAt[c] = now
	}
	a.outstanding[c] = true
	return msg, nil
}

// complete settles a completion received at now into res and hist. It
// returns the chunk completed (-1: none — undecodable, or a duplicate
// completion from multicast plus reflect or a duplicated packet) and
// the chunk to send next (-1: none). Per-slot self-clocking reuses a
// slot only for its own next chunk, which keeps every worker within one
// slot of the others — the correctness requirement of the
// alternating-version scheme (§V-E).
func (a *aggWorker) complete(msg []byte, now float64, res *AggResult, hist *Hist) (chunk, next int) {
	if _, err := a.rx.unpack(msg); err != nil {
		return -1, -1
	}
	// (slot, version) is unique among the outstanding window.
	chunk = -1
	for c := range a.outstanding {
		if uint64(c%a.window) == a.rx.slot[0] && uint64(c/a.window)%2 == a.rx.ver[0] {
			chunk = c
		}
	}
	if chunk < 0 {
		res.Duplicates++
		return -1, -1
	}
	delete(a.outstanding, chunk)
	lat := now - a.sentAt[chunk]
	res.MeanChunkNs += lat
	hist.Record(uint64(lat))
	if !a.rx.sumOK(uint64(chunk), a.workers) {
		res.Mismatches++
	}
	a.done++
	res.Completed++
	if next = chunk + a.window; next >= a.chunks {
		next = -1
	}
	return chunk, next
}

// aggNode is one switch's position in a HierAgg aggregation tree.
type aggNode struct {
	fanin    int
	parent   uint16
	levelIdx int
	isRoot   bool
}

const fabricSlotSize = 4

// hierAggApp is the HierAgg kernel for one tree position, one slot per
// round.
func hierAggApp(node aggNode, rounds int) *App {
	isRoot := uint64(0)
	if node.isRoot {
		isRoot = 1
	}
	return &App{
		Name:  "HIERAGG",
		NetCL: HierAggSource,
		Defines: map[string]uint64{
			"NUM_SLOTS":   uint64(rounds),
			"SLOT_SIZE":   fabricSlotSize,
			"FANIN":       uint64(node.fanin),
			"IS_ROOT":     isRoot,
			"PARENT":      uint64(node.parent),
			"LEVEL_INDEX": uint64(node.levelIdx),
		},
	}
}

// The HierAgg tree root, and the host behind it that receives
// completed rounds (multicast group 42, the group the root kernel
// emits).
const (
	hierRootID      = 100
	hierCollectorID = 0xF000
)

// aggLoad is an open-loop AGG load: timer-driven senders that each
// contribute one chunk per round, and collectors that check each
// completed slot. It drives the HierAgg fabrics and the scale chain.
// Every sender packs into its home device's scratch: the hosts on one
// device run in that device's partition, so each scratch has a single
// concurrent user, and the per-host staggered interval keeps events
// from tying on a shared queue — which makes the event order
// independent of the partition count and the steady state free of
// allocations.
type aggLoad struct {
	n        *netsim.Network
	spec     *runtime.MessageSpec
	rounds   int
	numSlots int
	// slotPerRound makes round r ride slot r (HierAgg: one slot per
	// round); otherwise each sender keeps its slot and alternates the
	// version.
	slotPerRound bool
	senders      []aggSender // by host index
	scratch      []*aggArgs  // by home device
	interval     func(i int) netsim.Time
}

// aggSender is one host's role in an aggLoad.
type aggSender struct {
	slot      uint16 // agg slot at the target device
	target    uint16 // the device that aggregates it (header device)
	dst       uint16 // a collector (header dst)
	mask      uint16 // its contribution bit
	w         uint16 // worker index (the value offset, see fill)
	next      uint16 // next round to send
	home      uint8  // the device it is attached to (scratch selector)
	collector bool   // never sends
}

// newAggLoad arms n's timer with the load; homes is the number of
// scratch selectors and hosts a capacity hint. Worker host i re-sends
// every interval(i).
func newAggLoad(n *netsim.Network, spec *runtime.MessageSpec, hosts, homes, rounds, numSlots int, interval func(i int) netsim.Time) *aggLoad {
	l := &aggLoad{n: n, spec: spec, rounds: rounds, numSlots: numSlots,
		senders: make([]aggSender, 0, hosts), interval: interval}
	for h := 0; h < homes; h++ {
		l.scratch = append(l.scratch, newAggArgs(spec))
	}
	n.OnTimer(l.send)
	return l
}

// add registers the role of the host added next.
func (l *aggLoad) add(s aggSender) { l.senders = append(l.senders, s) }

// send is the timer callback: sender host i sends its next round and
// rearms.
func (l *aggLoad) send(h *netsim.Host) {
	i := h.Index()
	s := &l.senders[i]
	if int(s.next) >= l.rounds {
		return
	}
	r := int(s.next)
	s.next++
	slot, ver := int(s.slot), r&1
	if l.slotPerRound {
		slot, ver = r, 0
	}
	a := l.scratch[s.home]
	a.fill(slot, ver, l.numSlots, uint64(s.mask), r, int(s.w))
	msg, err := a.pack(runtime.Message{Src: h.ID, Dst: s.dst, Device: s.target, Comp: 1}.Header())
	if err != nil {
		return
	}
	h.Send(msg)
	if int(s.next) < l.rounds {
		h.StartTimer(l.interval(i))
	}
}

// collect hands every delivery at collector h to fn: ok when the
// message decodes, its values are round r (which rides in exp) reduced
// over workers, and — with per-round slots — its slot is r's.
func (l *aggLoad) collect(h *netsim.Host, workers int, fn func(h *netsim.Host, r uint64, ok bool)) {
	a := newAggArgs(l.spec)
	h.SetReceive(func(h *netsim.Host, msg []byte) {
		if _, err := a.unpack(msg); err != nil {
			fn(h, 0, false)
			return
		}
		r := a.exp[0]
		fn(h, r, (!l.slotPerRound || a.slot[0] == r) && a.sumOK(r, workers))
	})
}

// start arms every sender's first send at at(i).
func (l *aggLoad) start(at func(i int) netsim.Time) {
	for i := range l.senders {
		if !l.senders[i].collector {
			l.n.HostAt(i).StartTimer(at(i))
		}
	}
}

// hierAggBed is a HierAgg deployment under an aggLoad. Host 0 is the
// collector behind the root; workers follow in host order.
type hierAggBed struct {
	*aggLoad
	topo *netsim.Topo
	fab  *fabricProgs
}

// buildHierAgg deploys a HierAgg tree: it compiles every node (each
// standby in logical as the node it stands in for), builds the
// topology with build, installs ECMP routes and attaches the collector
// behind the root. Workers are added with addWorker; each of the racks
// has its own packing scratch, and worker host i re-sends every
// interval(i).
func buildHierAgg(target passes.Target, nodes map[uint16]aggNode, logical map[uint16]uint16, rounds, racks int,
	interval func(i int) netsim.Time, build func(*netsim.Network, func(id uint16) *p4.Program) (*netsim.Topo, error)) (*hierAggBed, error) {
	var ids []uint16
	for id := range nodes {
		ids = append(ids, id)
	}
	for id := range logical {
		ids = append(ids, id)
	}
	fab, err := compileFabric(target, logical, func(id uint16) *App { return hierAggApp(nodes[id], rounds) }, ids...)
	if err != nil {
		return nil, err
	}
	n := netsim.NewNetwork()
	n.MaxEvents = 50_000_000
	b := &hierAggBed{aggLoad: newAggLoad(n, fab.spec, 0, racks, rounds, rounds, interval), fab: fab}
	b.slotPerRound = true
	if b.topo, err = build(n, func(id uint16) *p4.Program { return fab.progs[id] }); err != nil {
		return nil, err
	}
	if err := b.topo.InstallRoutes(netsim.RouteOptions{ECMP: true}); err != nil {
		return nil, err
	}
	root := n.Device(hierRootID)
	_, port := b.topo.AttachHost(n.AddHost(hierCollectorID), root, netsim.LinkClass{})
	root.SetMulticastGroup(42, []int{port})
	b.add(aggSender{collector: true})
	return b, nil
}

// addWorker attaches the next worker host to its edge switch; its
// worker index is its position among the workers.
func (b *hierAggBed) addWorker(id uint16, edge *netsim.Device, s aggSender) {
	b.topo.AttachHost(b.n.AddHost(id), edge, netsim.LinkClass{})
	s.w = uint16(len(b.senders) - 1)
	s.dst = hierCollectorID
	b.add(s)
}

// collectRounds hands every delivery at the collector to fn.
func (b *hierAggBed) collectRounds(fn func(h *netsim.Host, r uint64, ok bool)) {
	b.collect(b.n.Host(hierCollectorID), len(b.senders)-1, fn)
}
