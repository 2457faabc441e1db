package main

import (
	"math"
	gort "runtime"
	"sort"
	"sync"
	"time"

	"netcl/internal/bmv2"
	"netcl/internal/netsim"
	"netcl/internal/p4"
	"netcl/internal/runtime"
)

// layers.go holds the isolated per-layer measurements of the traced
// run. Device-side cost is out of reach inside netsim's loop and inside
// the UDP device's goroutine, so it comes from replaying the workload's
// own device-ingress frames through a fresh switch with the same table
// state; sub-microsecond host calls (pack, unpack, frame) are replayed
// in batch spans of probeBatch calls on the workload's own messages.

// layerProbe marks spans of isolated replays: they are in the trace
// file but outside the budget of the traced rounds.
const layerProbe = "probe"

const (
	probeBatch = 256
	// logCap bounds the frames and messages a traced run keeps for
	// replay: the first logCap of the first traced round.
	logCap = 8192
)

// mix is the splitmix64 finaliser: the benchmark's stateless generator.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func mallocs() uint64 {
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	return ms.Mallocs
}

// frameLog keeps device-ingress frames in host send order.
type frameLog struct {
	frames [][]byte
	ports  []int
}

func (l *frameLog) add(msg []byte, src uint64, port int) {
	if len(l.frames) < logCap {
		l.frames = append(l.frames, runtime.Frame(msg, src, 0))
		l.ports = append(l.ports, port)
	}
}

// addFrame keeps an already framed packet.
func (l *frameLog) addFrame(pkt []byte, port int) {
	if len(l.frames) < logCap {
		l.frames = append(l.frames, append([]byte(nil), pkt...))
		l.ports = append(l.ports, port)
	}
}

// msgLog keeps messages hosts received, for the unpack replay.
type msgLog struct{ msgs [][]byte }

func (l *msgLog) add(msg []byte) {
	if len(l.msgs) < logCap {
		l.msgs = append(l.msgs, append([]byte(nil), msg...))
	}
}

// one returns the one-element slice a scalar kernel argument packs from
// and unpacks into.
func one() []uint64 { return make([]uint64, 1) }

// simMeter brackets the rounds of a simulated workload: it runs the
// network under a span, adds up what the traced rounds did (for the
// budget), and in the first measured round reads the exact counters.
type simMeter struct {
	n    *netsim.Network
	devs []*netsim.Device
	// Totals over the traced rounds.
	events, mallocs, devPkts uint64
	packs, unpacks           int64 // messages the hosts packed and unpacked
}

func (m *simMeter) devProcessed() (p uint64) {
	for _, d := range m.devs {
		p += d.Processed
	}
	return p
}

// run starts one round's sends (start) and runs the network dry; it
// returns how many more requests verified() counts afterwards.
func (m *simMeter) run(c *ctx, req int64, start func(), verified func() int64) (int64, error) {
	n := m.n
	v0, ev0, drop0, sim0, dp0 := verified(), n.Processed, n.PacketsDropped, n.Now(), m.devProcessed()
	var m0 uint64
	if c.tr != nil {
		m0 = mallocs()
	}
	c.tr.begin("netsim.run", layerNetsim, req)
	start()
	err := n.RunAll()
	c.tr.end(1)
	if err != nil {
		return 0, err
	}
	got := verified() - v0
	if c.tr != nil {
		m.mallocs += mallocs() - m0
		m.events += n.Processed - ev0
		m.devPkts += m.devProcessed() - dp0
	}
	if c.exact {
		simExact(c, n, n.Processed-ev0, n.PacketsDropped-drop0, n.Now()-sim0, got)
	}
	return got, nil
}

// simExact records the engine counters and simulated-time results of
// the first measured round; they repeat exactly for one seed.
func simExact(c *ctx, n *netsim.Network, events, dropped uint64, simDur netsim.Time, verified int64) {
	c.layer["netsim.events"] = float64(events)
	if verified > 0 {
		c.layer["netsim.events_per_req"] = float64(events) / float64(verified)
	}
	c.layer["netsim.peak_queue"] = float64(n.TotalPeakQueue())
	c.layer["netsim.buffer_peak"] = float64(n.BufferPeak())
	c.layer["netsim.dropped"] = float64(dropped)
	if simDur > 0 {
		c.layer["netsim.sim_req_per_s"] = float64(verified) / (float64(simDur) / 1e9)
	}
	s := append([]float64(nil), c.lat...)
	sort.Float64s(s)
	c.layer["netsim.sim_lat_p99_us"] = quantileSorted(s, 0.99)
}

// move shifts ns of budget from one layer to another: the part of an
// enclosing span that an isolated replay attributes elsewhere. The
// source never goes below zero, so a replay that overstates a layer
// shows up in trace.budget_residual_frac instead of being hidden.
func move(shares map[string]float64, from, to string, ns float64) {
	shares[from] = math.Max(0, shares[from]-ns)
	shares[to] += ns
}

func spanShares(c *ctx) map[string]float64 {
	out := map[string]float64{}
	for l, ns := range c.tr.selfByLayer() {
		if l != layerProbe {
			out[l] = float64(ns)
		}
	}
	return out
}

// budget splits a simulated workload's traced wall time: span self
// times give netsim (Run minus the host callbacks) and bench (the
// callbacks); the pack/unpack replay moves runtime's part out of bench
// and the frame replay moves bmv2's part out of netsim.
func (m *simMeter) budget(c *ctx) map[string]float64 {
	shares := spanShares(c)
	move(shares, layerBench, layerRuntime,
		float64(m.packs)*c.layer["runtime.pack_ns"]+float64(m.unpacks)*c.layer["runtime.unpack_ns"])
	move(shares, layerNetsim, layerBmv2, float64(m.devPkts)*c.layer["bmv2.process_ns"])
	if m.events > 0 {
		c.layer["netsim.self_ns_per_event"] = shares[layerNetsim] / float64(m.events)
		c.layer["netsim.allocs_per_event"] = float64(m.mallocs) / float64(m.events)
		if runNs, _ := c.tr.total("netsim.run"); runNs > 0 {
			c.layer["netsim.events_per_s"] = float64(m.events) / (float64(runNs) / 1e9)
		}
	}
	return shares
}

// probeRuntime replays pack, unpack and frame on the workload's own
// message stream. gen yields message k's header fields and arguments
// (it may reuse one scratch); replies are messages hosts received.
func probeRuntime(c *ctx, budget time.Duration, spec *runtime.MessageSpec,
	gen func(k int) (runtime.Message, [][]uint64), replies [][]byte, unpackArgs [][]uint64) {
	type packed struct {
		m    runtime.Message
		args [][]uint64
	}
	in := make([]packed, probeBatch)
	for k := range in {
		m, args := gen(k)
		cp := make([][]uint64, len(args))
		for i, a := range args {
			if a != nil {
				cp[i] = append([]uint64(nil), a...)
			}
		}
		in[k] = packed{m, cp}
	}
	buf := make([]byte, 0, runtime.FrameOverhead+spec.Size())
	frame := make([]byte, runtime.FrameOverhead+spec.Size())
	msgs := 0
	m0 := mallocs()
	deadline := time.Now().Add(budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		c.tr.begin("runtime.pack", layerProbe, int64(pass))
		for k := range in {
			buf, _ = runtime.PackAppend(buf[:0], spec, in[k].m.Header(), in[k].args)
		}
		c.tr.end(probeBatch)
		msgs += probeBatch
		if len(replies) > 0 {
			c.tr.begin("runtime.unpack", layerProbe, int64(pass))
			for k := 0; k < probeBatch; k++ {
				_, _ = runtime.UnpackInto(spec, replies[(pass*probeBatch+k)%len(replies)], unpackArgs)
			}
			c.tr.end(probeBatch)
		}
		copy(frame[runtime.FrameOverhead:], buf)
		c.tr.begin("runtime.frame", layerProbe, int64(pass))
		for k := 0; k < probeBatch; k++ {
			pkt := runtime.FrameInPlace(frame, uint64(k), 0)
			_, _ = runtime.Deframe(pkt)
		}
		c.tr.end(probeBatch)
	}
	c.layer["runtime.pack_ns"] = c.tr.perCall("runtime.pack")
	c.layer["runtime.unpack_ns"] = c.tr.perCall("runtime.unpack")
	c.layer["runtime.frame_ns"] = c.tr.perCall("runtime.frame")
	c.layer["runtime.allocs_per_msg"] = float64(mallocs()-m0) / float64(msgs)
}

// cloneSwitch builds a fresh switch for sw's program and copies its
// table entries: the same table state, untouched registers.
func cloneSwitch(sw *bmv2.Switch) *bmv2.Switch {
	fresh := bmv2.New(sw.Prog)
	for _, ctl := range sw.Prog.Controls() {
		for _, t := range ctl.Tables {
			if t.Const || len(t.Entries) > 0 {
				continue // declared entries are installed by New
			}
			for _, e := range sw.Entries(t.Name) {
				_ = fresh.InsertEntry(t.Name, e) // the table exists: same program
			}
		}
	}
	return fresh
}

// parseOnly clones a program with an empty ingress and no egress: what
// is left is the parser and the deparser.
func parseOnly(prog *p4.Program) *p4.Program {
	pp := *prog
	ing := *prog.Ingress
	ing.Apply = nil
	pp.Ingress, pp.Egress = &ing, nil
	return &pp
}

// probeBmv2 replays the logged ingress frames through one fresh switch
// with the workload's table state: one at a time (what netsim and the
// UDP device do), in bursts of 32, through a one-shard Sharded front
// end, and through the parser and deparser alone. One untimed pass comes
// first, so lazily paged registers and the machine pool are as warm as
// in the workload itself.
func probeBmv2(c *ctx, budget time.Duration, prog *p4.Program, fresh func() (*bmv2.Switch, error), log *frameLog) error {
	frames, ports := log.frames, log.ports
	if len(frames) == 0 {
		return nil
	}
	maxLen := 0
	for _, f := range frames {
		maxLen = max(maxLen, len(f))
	}
	// replay runs passes over the frames for d, in batch spans.
	replay := func(name string, d time.Duration, batch func(i, j int)) (passes int64) {
		for dl := time.Now().Add(d); passes == 0 || time.Now().Before(dl); passes++ {
			for i := 0; i < len(frames); i += probeBatch {
				j := min(i+probeBatch, len(frames))
				c.tr.begin(name, layerProbe, int64(i))
				batch(i, j)
				c.tr.end(j - i)
			}
		}
		c.layer[name+"_ns"] = c.tr.perCall(name)
		return passes
	}

	sw, err := fresh()
	if err != nil {
		return err
	}
	res := bmv2.Result{Data: make([]byte, 0, maxLen)}
	one := func(sw *bmv2.Switch) func(i, j int) {
		return func(i, j int) {
			for k := i; k < j; k++ {
				_ = sw.ProcessInto(frames[k], ports[k], &res)
			}
		}
	}
	one(sw)(0, len(frames)) // the warm pass
	var ms0, ms1 gort.MemStats
	gort.ReadMemStats(&ms0)
	pkts := float64(replay("bmv2.process", budget*3/10, one(sw))) * float64(len(frames))
	gort.ReadMemStats(&ms1)
	c.layer["bmv2.allocs_per_pkt"] = float64(ms1.Mallocs-ms0.Mallocs) / pkts
	c.layer["bmv2.bytes_per_pkt"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / pkts

	bres := make([]bmv2.Result, bmv2.MaxBurst)
	for i := range bres {
		bres[i].Data = make([]byte, 0, maxLen)
	}
	berr := make([]error, bmv2.MaxBurst)
	replay("bmv2.burst32", budget*2/10, func(i, j int) {
		for k := i; k < j; k += bmv2.MaxBurst {
			e := min(k+bmv2.MaxBurst, j)
			sw.ProcessBurst(frames[k:e], ports[k:e], bres, berr)
		}
	})

	sh, err := bmv2.NewSharded(sw, bmv2.ShardedConfig{Shards: 1, QueueDepth: probeBatch})
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	done := func(*bmv2.Result, error) { wg.Done() }
	replay("bmv2.sharded1", budget*2/10, func(i, j int) {
		wg.Add(j - i)
		for k := i; k < j; k++ {
			if !sh.SubmitPort(frames[k], ports[k], done) {
				wg.Done()
			}
		}
		wg.Wait() // submit -> done, for the whole batch
	})
	sh.Close()

	replay("bmv2.parse_deparse", budget*2/10, one(bmv2.New(parseOnly(prog))))

	for dl, i := time.Now().Add(budget/10), 0; i == 0 || time.Now().Before(dl); i++ {
		c.tr.begin("bmv2.new", layerProbe, int64(i))
		_ = bmv2.New(prog)
		c.tr.end(1)
	}
	c.layer["bmv2.new_us"] = c.tr.perCall("bmv2.new") / 1e3
	return nil
}

// fwdEntry is one netcl_fwd entry: node id -> egress port.
func fwdEntry(id, port int) *p4.Entry {
	return &p4.Entry{
		Keys:   []p4.KeyValue{{Value: uint64(id), PrefixLen: -1}},
		Action: &p4.ActionCall{Name: "set_port", Args: []uint64{uint64(port)}},
	}
}
