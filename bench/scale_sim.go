package main

import (
	"fmt"
	gort "runtime"
	"time"

	"netcl/internal/bmv2"
	"netcl/internal/netsim"
	"netcl/internal/p4"
	"netcl/internal/runtime"
)

// scale_sim: 100 000 hosts on a 16-device chain. Every device reduces
// rounds from thousands of locally attached sender pairs (the SwitchML
// protocol with two workers) and multicasts each completed slot to its
// two collector hosts; every 64th pair aggregates at the next device,
// so transit traffic crosses the fabric. Senders are paced by the
// network-wide timer callback on a fixed schedule in simulated time
// (an open loop in which nothing can run late). Request = one delivery
// verified at a collector.
const (
	scaleHosts       = 100_000
	scaleDevices     = 16
	scaleRemoteEvery = 64
	scaleSlotSize    = 4
	// scaleAggRounds is frozen: aggregation rounds every pair sends in
	// one benchmark round; ~100k deliveries, 0.4-0.5 s at the seed commit.
	scaleAggRounds = 1
)

var scaleSimDef = &workloadDef{
	name:  "scale_sim",
	why:   "The only workload where netsim itself (100k-deep event heap, slab/SoA host state, buffer pool) does most of the work and memory matters.",
	work:  fmt.Sprintf("%d hosts on %d devices x %d aggregation rounds, every %dth pair remote", scaleHosts, scaleDevices, scaleAggRounds, scaleRemoteEvery),
	setup: func(c *ctx) (instance, error) { return buildScale(c, c.scaled(scaleHosts), 0) },
}

// scaleSender is one sender's precomputed role, indexed by host slab
// index. half 0xFF marks a collector.
type scaleSender struct {
	slot    uint16 // slot at the target device
	target  uint16 // target device id
	dst     uint16 // a collector at the target device
	half    uint8
	homeDev uint8
}

// scaleScratch is one device's packing state; in a partitioned run all
// timers of a device's hosts fire in that device's partition.
type scaleScratch struct {
	buf                             []byte
	ver, slot, agg, mask, exp, vals []uint64
	argv                            [][]uint64
}

type scaleColl struct {
	dev       int
	verified  int64
	delivered int64
	slot, exp []uint64
	vals      []uint64
	argv      [][]uint64
}

type scaleSim struct {
	d *deployed
	simMeter
	meta     []scaleSender
	next     []uint32 // aggregation rounds each sender has sent
	colls    []*scaleColl
	scratch  []scaleScratch
	seed     uint64
	numSlots int
	pairs    int // sender pairs in the whole fabric
	serial   bool
	limit    uint32
	// sentAt[(target device, slot)] is when the pair's first half sent
	// the round in flight: the time the request was due.
	sentAt []netsim.Time

	cur      *ctx
	sabotage bool
	log      frameLog
	replies  msgLog
}

func scaleBase(seed uint64, r uint32) uint64 { return mix(seed^uint64(r)<<32) & 0xFFFFF }

func scaleInterval(i int) netsim.Time {
	return 5*netsim.Microsecond + netsim.Time(float64(i%1009)*0.125)
}

// buildScale compiles the 16 device programs, builds the chain, attaches
// the hosts and installs routes. parts > 0 arms partitioned execution
// (the traced run's second pass); the measured run is the serial engine.
func buildScale(c *ctx, hosts, parts int) (*scaleSim, error) {
	hostsPerDev := hosts / scaleDevices
	pairs := (hostsPerDev - 2) / 2 // two hosts per device are collectors
	if pairs < 1 {
		pairs = 1
	}
	remoteIn := (pairs + scaleRemoteEvery - 1) / scaleRemoteEvery
	numSlots := pairs + remoteIn
	ids := make([]uint16, scaleDevices)
	for i := range ids {
		ids[i] = uint16(i + 1)
	}
	d, err := deploy(c, "AGG", map[string]uint64{
		"NUM_SLOTS": uint64(numSlots), "SLOT_SIZE": scaleSlotSize, "NUM_WORKERS": 2,
	}, ids, true)
	if err != nil {
		return nil, err
	}
	total := scaleDevices * (2 + 2*pairs)
	s := &scaleSim{d: d, seed: uint64(c.seed), numSlots: numSlots, pairs: scaleDevices * pairs, serial: parts == 0,
		meta: make([]scaleSender, 0, total), next: make([]uint32, total),
		sentAt: make([]netsim.Time, scaleDevices*numSlots)}

	gort.GC()
	var ms0, ms1 gort.MemStats
	gort.ReadMemStats(&ms0)
	t0 := time.Now()
	n := netsim.NewNetwork()
	s.n = n
	topo, err := netsim.BuildChain(n, netsim.ChainSpec{
		IDs:  ids,
		Prog: func(i int, id uint16) *p4.Program { return d.progs[id] },
		Link: netsim.LinkClass{LatencyNs: 2 * netsim.Microsecond},
	})
	if err != nil {
		return nil, err
	}
	s.devs = topo.Tiers[0]
	if err := topo.InstallRoutes(netsim.RouteOptions{}); err != nil {
		return nil, err
	}
	collID := func(dv, k int) uint16 { return uint16(0xF000 + dv*2 + k) }
	for dv, dev := range s.devs {
		dev.PipelineNs = netsim.Time(d.fits[dev.ID].LatencyNs)
		for k := 0; k < 2; k++ {
			col := n.AddHost(collID(dv, k))
			// Collector links are latency-only: at 100G every completed slot
			// of a device serialises onto two shared links, and the modelled
			// backlog, not the engine, would set the simulated end time. The
			// seed draws the latency (cable length).
			l := n.Connect(col, dev, 3+k)
			l.BandwidthGbps = 0
			l.LatencyNs = netsim.Time(1000 + mix(mix(s.seed)+uint64(dv*2+k))%200)
			cs := &scaleColl{dev: dv, slot: make([]uint64, 1), exp: make([]uint64, 1), vals: make([]uint64, scaleSlotSize)}
			cs.argv = [][]uint64{nil, cs.slot, nil, nil, cs.exp, cs.vals}
			s.colls = append(s.colls, cs)
			col.SetReceive(func(_ *netsim.Host, msg []byte) { s.onDelivery(cs, msg) })
			s.meta = append(s.meta, scaleSender{half: 0xFF})
		}
		dev.SetMulticastGroup(aggMcastGroup, []int{3, 4})
		for p := 0; p < pairs; p++ {
			target, slot := dv, p
			if p%scaleRemoteEvery == 0 {
				target, slot = (dv+1)%scaleDevices, pairs+p/scaleRemoteEvery
			}
			for half := 0; half < 2; half++ {
				h := n.AddHost(uint16(len(s.meta)))
				n.Connect(h, dev, 5+2*p+half)
				s.meta = append(s.meta, scaleSender{
					slot: uint16(slot), target: uint16(target + 1), dst: collID(target, 0),
					half: uint8(half), homeDev: uint8(dv),
				})
			}
		}
	}
	c.layer["netsim.build_s"] = time.Since(t0).Seconds()
	gort.GC()
	gort.ReadMemStats(&ms1)
	c.layer["netsim.bytes_per_host"] = float64(ms1.HeapAlloc-ms0.HeapAlloc) / float64(total)

	s.scratch = make([]scaleScratch, scaleDevices)
	for i := range s.scratch {
		sc := &s.scratch[i]
		sc.buf = make([]byte, 0, d.spec.Size())
		sc.ver, sc.slot, sc.agg, sc.mask, sc.exp = one(), one(), one(), one(), one()
		sc.vals = make([]uint64, scaleSlotSize)
		sc.argv = [][]uint64{sc.ver, sc.slot, sc.agg, sc.mask, sc.exp, sc.vals}
	}
	n.OnTimer(s.onTimer)
	if parts > 0 {
		n.EnableTrace()
		if err := n.SetPartitions(parts); err != nil {
			return nil, err
		}
	}
	// Stock the buffer pool to the in-flight working set (send rate times
	// flight time), so the run itself allocates no packet buffers.
	n.PrewarmBuffers(min(total+scaleDevices*pairs+1024, 98304), runtime.FrameOverhead+d.spec.Size()+16)
	return s, nil
}

// fill sets the pack arguments of sender m's aggregation round r.
func (s *scaleSim) fill(sc *scaleScratch, m *scaleSender, r uint32) {
	ver := uint64(r) & 1
	sc.ver[0], sc.slot[0] = ver, uint64(m.slot)
	sc.agg[0] = uint64(m.slot) + ver*uint64(s.numSlots)
	sc.mask[0] = 1 << m.half
	sc.exp[0] = uint64(r)
	b := scaleBase(s.seed, r) + uint64(m.half)
	for j := range sc.vals {
		sc.vals[j] = b + uint64(j)
	}
}

// onTimer is the network-wide sender callback: pack the next round,
// send, re-arm.
func (s *scaleSim) onTimer(h *netsim.Host) {
	i := h.Index()
	m := &s.meta[i]
	r := s.next[i]
	if m.half == 0xFF || r >= s.limit {
		return
	}
	var tr *tracer
	if s.serial {
		tr = s.cur.tr
	}
	sampled := tr.sampled()
	if sampled {
		tr.beginSampled("host.callback", layerBench, int64(r))
	}
	s.next[i] = r + 1
	sc := &s.scratch[m.homeDev]
	s.fill(sc, m, r)
	hdr := runtime.Message{Src: h.ID, Dst: m.dst, Device: m.target, Comp: 1}.Header()
	msg, err := runtime.PackAppend(sc.buf[:0], s.d.spec, hdr, sc.argv)
	if s.serial {
		if m.half == 0 {
			s.sentAt[int(m.target-1)*s.numSlots+int(m.slot)] = s.n.Now()
		}
		if tr != nil {
			s.packs++
			if m.homeDev == 0 && m.target == 1 {
				s.log.add(msg, uint64(h.ID), 5+2*int(m.slot)+int(m.half))
			}
		}
	}
	if sampled {
		tr.end(1)
	}
	if err != nil {
		return
	}
	h.Send(msg)
	if r+1 < s.limit {
		h.StartTimer(scaleInterval(i))
	}
}

// onDelivery is a collector's receive callback: the sum of a pair's
// round has the closed form 2*base + 2j + 1.
func (s *scaleSim) onDelivery(cs *scaleColl, msg []byte) {
	var tr *tracer
	if s.serial {
		tr = s.cur.tr
	}
	sampled := tr.sampled()
	if sampled {
		tr.beginSampled("host.callback", layerBench, cs.delivered)
	}
	if tr != nil {
		s.unpacks++
		s.replies.add(msg)
	}
	if s.sabotage && s.serial {
		s.sabotage = false
		msg = append([]byte(nil), msg...)
		msg[len(msg)-1] ^= 0x01
	}
	cs.delivered++
	if _, err := runtime.UnpackInto(s.d.spec, msg, cs.argv); err == nil {
		b := scaleBase(s.seed, uint32(cs.exp[0]))
		ok := true
		for j := 0; ok && j < scaleSlotSize; j++ {
			ok = cs.vals[j] == (2*b+2*uint64(j)+1)&0xFFFFFFFF
		}
		if ok {
			cs.verified++
			if s.serial {
				if at := cs.dev*s.numSlots + int(cs.slot[0]); at < len(s.sentAt) {
					s.cur.lat = append(s.cur.lat, float64(s.n.Now()-s.sentAt[at])/1e3)
				}
			}
		}
	}
	if sampled {
		tr.end(1)
	}
}

// arm schedules every sender's first timer for k more aggregation
// rounds: the fixed schedule of one benchmark round.
func (s *scaleSim) arm(k int) {
	s.limit += uint32(k)
	for i := range s.meta {
		if s.meta[i].half != 0xFF {
			s.n.HostAt(i).StartTimer(100*netsim.Nanosecond + netsim.Time(float64(i)*0.125))
		}
	}
}

func (s *scaleSim) verified() (v int64) {
	for _, cs := range s.colls {
		v += cs.verified
	}
	return v
}

func (s *scaleSim) round(c *ctx) (roundOut, error) {
	s.cur = c
	s.sabotage = c.sabotage
	verified, err := s.run(c, int64(s.limit), func() { s.arm(scaleAggRounds) }, s.verified)
	return roundOut{attempted: int64(2 * s.pairs * scaleAggRounds), requests: verified}, err
}

func (s *scaleSim) stages() int { return s.d.stages }
func (s *scaleSim) close()      {}

func (s *scaleSim) probes(c *ctx, budget time.Duration) error {
	sc := &s.scratch[0]
	probeRuntime(c, budget/8, s.d.spec, func(k int) (runtime.Message, [][]uint64) {
		m := &s.meta[2+k%(len(s.meta)-2)]
		s.fill(sc, m, uint32(k))
		return runtime.Message{Src: uint16(k), Dst: m.dst, Device: m.target, Comp: 1}, sc.argv
	}, s.replies.msgs, s.colls[0].argv)
	fresh := func() (*bmv2.Switch, error) { return cloneSwitch(s.devs[0].SW), nil }
	if err := probeBmv2(c, budget*3/8, s.d.progs[1], fresh, &s.log); err != nil {
		return err
	}
	return s.probePartitions(c)
}

// probePartitions runs the scenario again at one eighth of the hosts,
// on one partition and on two: the delivery hash chains must be equal.
func (s *scaleSim) probePartitions(c *ctx) error {
	var hashes [2]uint64
	scratch := &ctx{seed: c.seed, scale: c.scale, layer: map[string]float64{}, cs: &compileStats{}}
	for i, parts := range []int{1, 2} {
		p, err := buildScale(scratch, max(len(s.meta)/8, 4*scaleDevices), parts)
		if err != nil {
			return err
		}
		p.cur = scratch
		t0 := time.Now()
		p.arm(scaleAggRounds)
		if err := p.n.RunAll(); err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		if want := int64(2 * p.pairs * scaleAggRounds); p.verified() != want {
			return fmt.Errorf("partitions=%d: %d of %d deliveries verified", parts, p.verified(), want)
		}
		hashes[i] = p.n.TraceHash()
		if parts == 2 && wall > 0 {
			c.layer["netsim.part2_events_per_s"] = float64(p.n.TotalProcessed()) / wall
		}
	}
	if hashes[0] == hashes[1] {
		c.layer["netsim.part2_hash_equal"] = 1
	}
	return nil
}

func (s *scaleSim) budget(c *ctx) map[string]float64 { return s.simMeter.budget(c) }
