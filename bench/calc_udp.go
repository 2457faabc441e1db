package main

import (
	"fmt"
	"math/rand"
	gort "runtime"
	"sort"
	"time"

	"netcl/internal/bmv2"
	"netcl/internal/runtime"
	"netcl/internal/wire"
)

// calc_udp: the calculator over the real-UDP backend on loopback: one
// UDPDevice, one HostConn, one Channel with window 16 driven as a
// CallAsync/Wait ring (a closed loop: one connection, 16 calls in
// flight). Traffic crosses the host's loopback interface, not a link.
// Request = one call whose result was checked arithmetically.
//
// This workload runs on one P. Its two goroutines (the caller and the
// device's receive loop) hand every datagram to each other; on two Ps
// each hand-off is a wake-up of the other virtual CPU, whose cost on
// this VM moves between hours (111k and 160k calls/s were both measured
// at the seed commit, ten runs each, nothing else changed). On one P
// the hand-off is a goroutine switch, the path is CPU-bound, and it
// repeats within 2 %: calls per second are then calls per core-second.
const (
	calcWindow = 16
	// calcCallsPerRound is frozen: ~0.15-0.25 s a round at the seed commit.
	calcCallsPerRound = 16384
	// calcInputs is the pre-generated operand ring.
	calcInputs = 1 << 16
	calcHostID = 7
	calcDevID  = 1
)

var calcUDPDef = &workloadDef{
	name:  "calc_udp",
	why:   "Smallest message over real sockets: runtime transport, Channel and UDPDevice do almost all the work and bmv2 almost none, the mirror image of acl_fwd.",
	work:  fmt.Sprintf("%d calls, 1 connection, window %d", calcCallsPerRound, calcWindow),
	setup: setupCalcUDP,
}

type calcCall struct {
	op, a, b uint32
}

// calcWant is the oracle.
func calcWant(c calcCall) uint64 {
	switch c.op {
	case 1:
		return uint64(c.a + c.b)
	case 2:
		return uint64(c.a - c.b)
	case 3:
		return uint64(c.a & c.b)
	case 4:
		return uint64(c.a | c.b)
	default:
		return uint64(c.a ^ c.b)
	}
}

type calcUDP struct {
	d     *deployed
	dev   *runtime.UDPDevice
	conn  *runtime.HostConn
	ch    *runtime.Channel
	calls []calcCall
	next  int

	buf           []byte
	op, a, b, res []uint64
	args, out     [][]uint64
	ring          [calcWindow]calcSlot

	log     frameLog
	replies msgLog
	procs   int // GOMAXPROCS to restore on close
}

type calcSlot struct {
	p    *runtime.Pending
	call calcCall
	at   time.Time
}

func setupCalcUDP(c *ctx) (instance, error) {
	d, err := deploy(c, "CALC", nil, []uint16{calcDevID}, false)
	if err != nil {
		return nil, err
	}
	u := &calcUDP{d: d, procs: gort.GOMAXPROCS(1)}
	rng := rand.New(rand.NewSource(c.seed))
	u.calls = make([]calcCall, calcInputs)
	for i := range u.calls {
		u.calls[i] = calcCall{op: uint32(1 + rng.Intn(5)), a: rng.Uint32(), b: rng.Uint32()}
	}
	u.dev, err = runtime.ServeDevice(runtime.DeviceConfig{ID: calcDevID, Addr: "127.0.0.1:0", Prog: d.progs[calcDevID]})
	if err != nil {
		u.close()
		return nil, err
	}
	u.conn, err = runtime.Dial(runtime.DialConfig{ID: calcHostID, Local: "127.0.0.1:0", Device: u.dev.Addr()})
	if err != nil {
		u.close()
		return nil, err
	}
	if err := u.dev.SetNodeAddr(calcHostID, u.conn.Addr()); err != nil {
		u.close()
		return nil, err
	}
	u.ch = u.conn.NewChannel(runtime.ChannelConfig{Window: calcWindow, Name: "calc_udp"})
	u.buf = make([]byte, 0, d.spec.Size())
	u.op, u.a, u.b, u.res = one(), one(), one(), one()
	u.args = [][]uint64{u.op, u.a, u.b, nil}
	u.out = [][]uint64{nil, nil, nil, u.res}
	return u, nil
}

func (u *calcUDP) close() {
	if u.ch != nil {
		u.ch.Close()
	}
	if u.conn != nil {
		u.conn.Close()
	}
	if u.dev != nil {
		u.dev.Close()
	}
	gort.GOMAXPROCS(u.procs)
}

func (u *calcUDP) header() wire.Header {
	return runtime.Message{Src: calcHostID, Dst: calcHostID, Device: calcDevID, Comp: 1}.Header()
}

// admit packs the next call and admits it to the window.
func (u *calcUDP) admit(c *ctx, slot *calcSlot, seq int64) error {
	slot.call = u.calls[u.next&(calcInputs-1)]
	u.next++
	u.op[0], u.a[0], u.b[0] = uint64(slot.call.op), uint64(slot.call.a), uint64(slot.call.b)
	msg, err := runtime.PackAppend(u.buf[:0], u.d.spec, u.header(), u.args)
	if err != nil {
		return err
	}
	if c.tr != nil {
		u.log.addFrame(runtime.Frame(wire.Seq{Seq: uint32(seq)}.Append(msg), calcDevID, 0), calcHostID)
	}
	slot.at = time.Now()
	c.tr.begin("runtime.chan_admit", layerRuntime, seq)
	slot.p, err = u.ch.CallAsync(msg)
	c.tr.end(1)
	return err
}

// wait completes the call in a slot and checks its result.
func (u *calcUDP) wait(c *ctx, slot *calcSlot, seq int64, sabotage bool) bool {
	c.tr.begin("runtime.chan_wait", layerRuntime, seq)
	resp, err := slot.p.Wait(0)
	c.tr.end(1)
	lat := time.Since(slot.at)
	slot.p = nil
	if err != nil {
		return false
	}
	if c.tr != nil {
		u.replies.add(resp)
	}
	if sabotage {
		resp = append([]byte(nil), resp...)
		resp[len(resp)-1] ^= 0x01
	}
	if _, err := runtime.UnpackInto(u.d.spec, resp, u.out); err != nil || u.res[0] != calcWant(slot.call) {
		return false
	}
	c.lat = append(c.lat, float64(lat)/1e3)
	return true
}

// round keeps calcWindow calls in flight: wait for the oldest, admit
// one more in its slot.
func (u *calcUDP) round(c *ctx) (roundOut, error) {
	per := max(c.scaled(calcCallsPerRound), calcWindow)
	var out roundOut
	sabotage := c.sabotage
	for i := 0; i < per+calcWindow; i++ {
		slot := &u.ring[i%calcWindow]
		if slot.p != nil {
			if u.wait(c, slot, int64(i-calcWindow), sabotage) {
				out.requests++
			}
			sabotage = false
		}
		if i < per {
			out.attempted++
			if err := u.admit(c, slot, int64(i)); err != nil {
				return out, err
			}
		}
	}
	return out, u.ch.Err()
}

func (u *calcUDP) stages() int { return u.d.stages }

func (u *calcUDP) probes(c *ctx, budget time.Duration) error {
	probeRuntime(c, budget/8, u.d.spec, func(k int) (runtime.Message, [][]uint64) {
		call := u.calls[k&(calcInputs-1)]
		u.op[0], u.a[0], u.b[0] = uint64(call.op), uint64(call.a), uint64(call.b)
		return runtime.Message{Src: calcHostID, Dst: calcHostID, Device: calcDevID, Comp: 1}, u.args
	}, u.replies.msgs, u.out)

	// The transport floor: stop-and-wait round trips through the same
	// device, on a channel of window 1 over the same socket.
	var rtts []float64
	deadline := time.Now().Add(budget / 4)
	for i := 0; time.Now().Before(deadline) || i < 64; i++ {
		call := u.calls[i&(calcInputs-1)]
		u.op[0], u.a[0], u.b[0] = uint64(call.op), uint64(call.a), uint64(call.b)
		msg, err := runtime.PackAppend(u.buf[:0], u.d.spec, u.header(), u.args)
		if err != nil {
			return err
		}
		t0 := time.Now()
		c.tr.begin("runtime.udp_w1", layerProbe, int64(i))
		_, err = u.ch.Call(msg, 0)
		c.tr.end(1)
		if err != nil {
			return err
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	sort.Float64s(rtts)
	c.layer["runtime.udp_w1_rtt_us"] = quantileSorted(rtts, 0.5)

	st, ds := u.ch.Stats(), u.dev.Stats()
	c.layer["runtime.chan_peak_inflight"] = float64(st.PeakInFlight)
	c.layer["runtime.chan_retransmits"] = float64(st.Retransmits)
	c.layer["runtime.chan_duplicates"] = float64(st.Duplicates)
	c.layer["runtime.chan_failures"] = float64(st.Failures)
	c.layer["runtime.udp_dev_queue_full"] = float64(ds.QueueFull)
	c.layer["runtime.udp_dev_dropped"] = float64(ds.Dropped)

	fresh := func() (*bmv2.Switch, error) {
		sw := bmv2.New(u.d.progs[calcDevID])
		return sw, sw.InsertEntry("netcl_fwd", fwdEntry(calcHostID, calcHostID))
	}
	return probeBmv2(c, budget/2, u.d.progs[calcDevID], fresh, &u.log)
}

// budget: the client's wall time is all inside runtime calls (admit
// sends, wait blocks on the socket); the switch's part of that wait is
// the replayed per-packet cost.
func (u *calcUDP) budget(c *ctx) map[string]float64 {
	c.layer["runtime.chan_admit_ns"] = c.tr.perCall("runtime.chan_admit")
	c.layer["runtime.chan_wait_ns"] = c.tr.perCall("runtime.chan_wait")
	c.layer["runtime.lat_p99_us"] = quantileSorted(c.tracedLat, 0.99)
	shares := spanShares(c)
	_, calls := c.tr.total("runtime.chan_wait")
	move(shares, layerBench, layerRuntime, float64(calls)*(c.layer["runtime.pack_ns"]+c.layer["runtime.unpack_ns"]))
	move(shares, layerRuntime, layerBmv2, float64(calls)*c.layer["bmv2.process_ns"])
	return shares
}
