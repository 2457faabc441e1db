package main

import (
	"fmt"
	"math/rand"
	"time"

	"netcl/internal/bmv2"
	"netcl/internal/netsim"
	"netcl/internal/runtime"
)

// agg_sim: SwitchML streaming aggregation on one simulated switch.
// Every worker streams chunks through a window of slots; the switch
// sums each slot over the workers and multicasts the result; a worker
// reuses a slot only for that slot's next chunk (slot self-clocking,
// a closed loop). Request = one slot completion verified at one worker.
const (
	aggWorkers  = 8
	aggWindow   = 8
	aggSlotSize = 32
	aggNumSlots = 256
	// aggChunksPerRound is frozen: 8 workers x 2048 chunks = 16384
	// requests a round, 60-80 ms at the seed commit.
	aggChunksPerRound = 2048
	aggMcastGroup     = 42
)

var aggSimDef = &workloadDef{
	name:  "agg_sim",
	why:   "The paper's headline app: widest payload, register read-modify-write heavy; bmv2 actions and runtime pack/unpack do the work, netsim queues stay tiny.",
	work:  fmt.Sprintf("%d workers x %d chunks x %d values, window %d", aggWorkers, aggChunksPerRound, aggSlotSize, aggWindow),
	setup: setupAggSim,
}

type aggWorker struct {
	host *netsim.Host
	id   uint16
	// chunkOf[slot] is the chunk outstanding in the slot, -1 when idle.
	chunkOf [aggWindow]int
	sentAt  [aggWindow]netsim.Time
	done    int
}

type aggSim struct {
	d *deployed
	simMeter
	dev     *netsim.Device
	workers [aggWorkers]aggWorker
	seed    uint64
	limit   int // chunks every worker has been asked to complete so far

	// Pack and unpack scratch: the host path allocates nothing.
	buf                             []byte
	ver, slot, agg, mask, exp, vals []uint64
	packArgs, unpackArgs            [][]uint64
	rver, rslot, rexp, rvals        []uint64

	cur      *ctx
	verified int64
	sabotage bool
	log      frameLog
	replies  msgLog
}

// aggBase is chunk's seeded base value; worker w contributes
// base + i + w to element i, so the sum has a closed form.
func aggBase(seed uint64, chunk int) uint64 {
	return mix(seed^uint64(chunk)*0x9E3779B97F4A7C15) & 0xFFFFF
}

// aggWant is the oracle: the sum over workers, modulo 2^32.
func aggWant(seed uint64, chunk, i int) uint64 {
	b := aggBase(seed, chunk)
	return (aggWorkers*(b+uint64(i)) + aggWorkers*(aggWorkers-1)/2) & 0xFFFFFFFF
}

// aggExp is worker w's exponent for a chunk; the switch keeps the max.
func aggExp(seed uint64, chunk, w int) uint64 {
	return mix(seed+uint64(chunk)*31+uint64(w)) & 0xFF
}

func aggWantExp(seed uint64, chunk int) uint64 {
	var m uint64
	for w := 0; w < aggWorkers; w++ {
		if e := aggExp(seed, chunk, w); e > m {
			m = e
		}
	}
	return m
}

func setupAggSim(c *ctx) (instance, error) {
	d, err := deploy(c, "AGG", map[string]uint64{
		"NUM_WORKERS": aggWorkers, "SLOT_SIZE": aggSlotSize, "NUM_SLOTS": aggNumSlots,
	}, []uint16{1}, false)
	if err != nil {
		return nil, err
	}
	a := &aggSim{d: d, seed: uint64(c.seed)}
	rng := rand.New(rand.NewSource(c.seed))
	n := netsim.NewNetwork()
	a.dev = n.AddDevice(1, d.progs[1])
	a.dev.PipelineNs = netsim.Time(d.fits[1].LatencyNs)
	a.simMeter = simMeter{n: n, devs: []*netsim.Device{a.dev}}
	var ports []int
	for w := range a.workers {
		ws := &a.workers[w]
		ws.id = uint16(10 + w)
		ws.host = n.AddHost(ws.id)
		// Cable lengths differ: the seed draws each host link's latency.
		n.Connect(ws.host, a.dev, w+1).LatencyNs = netsim.Time(1000 + rng.Intn(200))
		for s := range ws.chunkOf {
			ws.chunkOf[s] = -1
		}
		ports = append(ports, w+1)
	}
	if err := n.AutoWire(); err != nil {
		return nil, err
	}
	a.dev.SetMulticastGroup(aggMcastGroup, ports)

	a.buf = make([]byte, 0, d.spec.Size())
	a.ver, a.slot, a.agg, a.mask, a.exp = one(), one(), one(), one(), one()
	a.vals = make([]uint64, aggSlotSize)
	a.packArgs = [][]uint64{a.ver, a.slot, a.agg, a.mask, a.exp, a.vals}
	a.rver, a.rslot, a.rexp = one(), one(), one()
	a.rvals = make([]uint64, aggSlotSize)
	a.unpackArgs = [][]uint64{a.rver, a.rslot, nil, nil, a.rexp, a.rvals}
	for w := range a.workers {
		w := w
		a.workers[w].host.SetReceive(func(_ *netsim.Host, msg []byte) { a.onResult(w, msg) })
	}
	return a, nil
}

// fill sets the pack arguments of worker w's chunk.
func (a *aggSim) fill(w, chunk int) {
	slot := chunk % aggWindow
	ver := uint64(chunk/aggWindow) & 1
	a.ver[0], a.slot[0] = ver, uint64(slot)
	a.agg[0] = uint64(slot) + ver*aggNumSlots
	a.mask[0] = 1 << uint(w)
	a.exp[0] = aggExp(a.seed, chunk, w)
	b := aggBase(a.seed, chunk) + uint64(w)
	for i := range a.vals {
		a.vals[i] = b + uint64(i)
	}
}

// prepare packs worker w's chunk and marks its slot outstanding.
func (a *aggSim) prepare(w, chunk int) []byte {
	ws := &a.workers[w]
	a.fill(w, chunk)
	hdr := runtime.Message{Src: ws.id, Dst: 100, Device: 1, Comp: 1}.Header()
	msg, err := runtime.PackAppend(a.buf[:0], a.d.spec, hdr, a.packArgs)
	if err != nil {
		return nil // counted as failed: the chunk never completes
	}
	slot := chunk % aggWindow
	ws.chunkOf[slot] = chunk
	ws.sentAt[slot] = a.n.Now()
	if a.cur.tr != nil {
		a.packs++
		a.log.add(msg, uint64(ws.id), w+1)
	}
	return msg
}

// onResult is a worker's receive callback: verify the slot, then put
// the slot's next chunk on the wire.
func (a *aggSim) onResult(w int, msg []byte) {
	c := a.cur
	sampled := c.tr.sampled()
	if sampled {
		c.tr.beginSampled("host.callback", layerBench, int64(a.workers[w].done))
	}
	if c.tr != nil {
		a.unpacks++
		a.replies.add(msg)
	}
	if a.sabotage {
		a.sabotage = false
		msg = append([]byte(nil), msg...)
		msg[len(msg)-1] ^= 0x01 // one bit of the last summed value
	}
	ws := &a.workers[w]
	next := -1
	if _, err := runtime.UnpackInto(a.d.spec, msg, a.unpackArgs); err == nil {
		slot := int(a.rslot[0])
		chunk := -1
		if slot < aggWindow {
			chunk = ws.chunkOf[slot]
		}
		if chunk >= 0 && uint64(chunk/aggWindow)&1 == a.rver[0] {
			ws.chunkOf[slot] = -1
			ok := a.rexp[0] == aggWantExp(a.seed, chunk)
			for i := 0; ok && i < aggSlotSize; i++ {
				ok = a.rvals[i] == aggWant(a.seed, chunk, i)
			}
			if ok {
				a.verified++
				c.lat = append(c.lat, float64(a.n.Now()-ws.sentAt[slot])/1e3)
			}
			ws.done++
			if chunk+aggWindow < a.limit {
				next = chunk + aggWindow
			}
		}
	}
	var out []byte
	if next >= 0 {
		out = a.prepare(w, next)
	}
	if sampled {
		c.tr.end(1) // the span ends before netsim's Send
	}
	if out != nil {
		ws.host.Send(out)
	}
}

func (a *aggSim) round(c *ctx) (roundOut, error) {
	a.cur = c
	a.sabotage = c.sabotage
	per := c.scaled(aggChunksPerRound)
	per -= per % (2 * aggWindow) // whole turns of both slot versions
	if per == 0 {
		per = 2 * aggWindow
	}
	base := a.limit
	a.limit += per
	prime := func() {
		for w := range a.workers {
			for s := 0; s < aggWindow; s++ {
				if msg := a.prepare(w, base+s); msg != nil {
					a.workers[w].host.Send(msg)
				}
			}
		}
	}
	verified, err := a.run(c, int64(base), prime, func() int64 { return a.verified })
	return roundOut{attempted: int64(aggWorkers * per), requests: verified}, err
}

func (a *aggSim) stages() int { return a.d.stages }
func (a *aggSim) close()      {}

func (a *aggSim) freshSwitch() (*bmv2.Switch, error) {
	return cloneSwitch(a.dev.SW), nil
}

func (a *aggSim) probes(c *ctx, budget time.Duration) error {
	probeRuntime(c, budget/4, a.d.spec, func(k int) (runtime.Message, [][]uint64) {
		w := k % aggWorkers
		a.fill(w, k/aggWorkers)
		return runtime.Message{Src: a.workers[w].id, Dst: 100, Device: 1, Comp: 1}, a.packArgs
	}, a.replies.msgs, a.unpackArgs)
	return probeBmv2(c, budget*3/4, a.d.progs[1], a.freshSwitch, &a.log)
}

func (a *aggSim) budget(c *ctx) map[string]float64 { return a.simMeter.budget(c) }
