package runtime

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"net/netip"
	gort "runtime"
	"strings"
	"testing"
	"time"

	"netcl/internal/wire"
)

// echoRing drives calls echo calls through ch as the benchmark's
// calc_udp does: a ring of Window pendings, wait for the oldest, admit
// one more in its slot. Each reply must be its own request plus one.
func echoRing(tb testing.TB, ch *Channel, spec *MessageSpec, calls int) {
	tb.Helper()
	type slot struct {
		p *Pending
		x uint64
	}
	ring := make([]slot, ch.Window())
	arg, out := []uint64{0}, []uint64{0}
	buf := make([]byte, 0, 64)
	hdr := Message{Src: 1, Dst: 2, Device: 5, Comp: 1}.Header()
	for i := 0; i < calls+len(ring); i++ {
		s := &ring[i%len(ring)]
		if s.p != nil {
			resp, err := s.p.Wait(0)
			if err != nil {
				tb.Fatalf("call %d: %v", i-len(ring), err)
			}
			if _, err := UnpackInto(spec, resp, [][]uint64{out}); err != nil || out[0] != s.x+1 {
				tb.Fatalf("call %d: echo %d of %d (%v)", i-len(ring), out[0], s.x, err)
			}
			s.p = nil
		}
		if i < calls {
			s.x, arg[0] = uint64(i), uint64(i)
			msg, err := PackAppend(buf[:0], spec, hdr, [][]uint64{arg})
			if err != nil {
				tb.Fatal(err)
			}
			if s.p, err = ch.CallAsync(msg); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkUDPChannelWindow16 is calc_udp's shape on loopback: one
// device, one connection, 16 calls in flight.
func BenchmarkUDPChannelWindow16(b *testing.B) {
	dev, host, spec := echoUDP(b, FaultSpec{})
	defer dev.Close()
	defer host.Close()
	ch := host.NewChannel(ChannelConfig{Window: 16})
	defer ch.Close()
	b.ReportAllocs()
	b.ResetTimer()
	echoRing(b, ch, spec, b.N)
	b.StopTimer()
	st, ds := ch.Stats(), dev.Stats()
	b.ReportMetric(float64(st.Sent)/float64(st.Flushes), "msgs/flush")
	b.ReportMetric(float64(ds.Processed)/float64(ds.Reads), "pkts/read")
}

// offloadOrSkip skips a test of coalescing where the kernel offers none.
func offloadOrSkip(t *testing.T, dev *UDPDevice) {
	t.Helper()
	if o := dev.Stats().Offload; o != "on" {
		t.Skipf("no UDP segmentation offload on this kernel: %s", o)
	}
}

// TestUDPWindowMovesAsBursts: at window 16 over loopback the results
// are right and, with offload on, both sides move the window per kernel
// crossing — Stats alone says so.
func TestUDPWindowMovesAsBursts(t *testing.T) {
	dev, host, spec := echoUDP(t, FaultSpec{})
	defer dev.Close()
	defer host.Close()
	ch := host.NewChannel(ChannelConfig{Window: 16})
	defer ch.Close()
	echoRing(t, ch, spec, 4096)
	st, ds := ch.Stats(), dev.Stats()
	if st.Completed != 4096 || st.Failures != 0 || ds.Dropped != 0 {
		t.Fatalf("channel %+v device %+v", st, ds)
	}
	offloadOrSkip(t, dev)
	if ds.Processed < 8*ds.Reads || ds.Processed < 8*ds.Writes {
		t.Errorf("device moved %d packets in %d reads and %d writes, want >= 8 per crossing", ds.Processed, ds.Reads, ds.Writes)
	}
	if st.Sent < 8*st.Flushes {
		t.Errorf("channel sent %d messages in %d flushes, want >= 8 per flush", st.Sent, st.Flushes)
	}
}

// TestUDPOffloadOnAndOffAgree runs the same 10 000 seeded calls through
// a device that drops and duplicates (seeded) with segmentation in use
// and forced off on both sockets: reply bytes are identical, call for
// call, and the forced-off run really was per datagram.
func TestUDPOffloadOnAndOffAgree(t *testing.T) {
	run := func(off bool) (replies [][]byte, ds DeviceStats) {
		dev, host, spec := echoUDP(t, FaultSpec{LossRate: 0.02, DupRate: 0.02, Seed: 11})
		defer dev.Close()
		defer host.Close()
		if off {
			dev.sock.disable(errors.New("forced off by the test"))
			host.sock.disable(errors.New("forced off by the test"))
		}
		// The retry budget is time, not count: a message's timeout
		// doubles from 2 ms to a 50 ms cap, so 40 retries outlast a ~1.8 s
		// scheduler stall (a fixed 2 ms gave up after ~80 ms under -race
		// on a busy two-core box), while seeded loss costs a retry or two.
		ch := host.NewChannel(ChannelConfig{Window: 16, Reliability: ReliabilityConfig{
			Timeout: 2 * time.Millisecond, MaxRetries: 40, Backoff: 2, MaxTimeout: 50 * time.Millisecond,
		}})
		defer ch.Close()
		rng := rand.New(rand.NewSource(42))
		hdr := Message{Src: 1, Dst: 2, Device: 5, Comp: 1}.Header()
		ring := make([]*Pending, 16)
		for i := 0; i < 10000+len(ring); i++ {
			if p := ring[i%len(ring)]; p != nil {
				resp, err := p.Wait(0)
				if err != nil {
					t.Fatalf("offload off=%v call %d: %v", off, i-len(ring), err)
				}
				replies = append(replies, resp)
			}
			if i < 10000 {
				msg, err := PackAppend(nil, spec, hdr, [][]uint64{{uint64(rng.Uint32())}})
				if err != nil {
					t.Fatal(err)
				}
				if ring[i%len(ring)], err = ch.CallAsync(msg); err != nil {
					t.Fatal(err)
				}
			}
		}
		return replies, dev.Stats()
	}
	on, onStats := run(false)
	off, offStats := run(true)
	for i := range on {
		if !bytes.Equal(on[i], off[i]) {
			t.Fatalf("call %d: reply %x with offload, %x without", i, on[i], off[i])
		}
	}
	if onStats.FaultDropped == 0 || onStats.FaultDuplicated == 0 || offStats.FaultDropped == 0 {
		t.Errorf("fault injection idle: on %+v off %+v", onStats, offStats)
	}
	if !strings.HasPrefix(offStats.Offload, "off: forced") || offStats.Writes < offStats.Processed*9/10 {
		t.Errorf("forced-off run coalesced: %+v", offStats)
	}
}

// plainPeer is an ordinary UDP socket: no UDP_GRO, one datagram a read.
func plainPeer(t *testing.T) (*net.UDPConn, netip.AddrPort) {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, unmap(c.LocalAddr().(*net.UDPAddr).AddrPort())
}

// readAll reads n datagrams from a plain socket.
func readAll(t *testing.T, c *net.UDPConn, n int) [][]byte {
	t.Helper()
	var out [][]byte
	buf := make([]byte, 65536)
	for i := 0; i < n; i++ {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		k, err := c.Read(buf)
		if err != nil {
			t.Fatalf("datagram %d of %d: %v", i, n, err)
		}
		out = append(out, append([]byte(nil), buf[:k]...))
	}
	return out
}

// fill makes a recognizable message of n bytes.
func fill(n int, tag byte) []byte {
	m := make([]byte, n)
	for i := range m {
		m[i] = tag + byte(i)
	}
	return m
}

// TestSegConnRuns pins the run-coalescing rule by the number of writes
// it costs, and that a peer without UDP_GRO receives every message as
// its own byte-identical datagram whatever the sender coalesced.
func TestSegConnRuns(t *testing.T) {
	a, adst := plainPeer(t)
	b, bdst := plainPeer(t)
	raw, _ := plainPeer(t)
	s := newSegConn(raw)
	offload := s.off.Load() == nil
	type sent struct {
		dst netip.AddrPort
		msg []byte
	}
	cases := []struct {
		name   string
		msgs   []sent
		writes uint64 // with offload on
	}{
		{"equal lengths are one run", []sent{{adst, fill(40, 1)}, {adst, fill(40, 2)}, {adst, fill(40, 3)}, {adst, fill(40, 4)}}, 1},
		{"a shorter message closes the run", []sent{{adst, fill(100, 1)}, {adst, fill(100, 2)}, {adst, fill(50, 3)}, {adst, fill(100, 4)}}, 2},
		{"a longer message starts a run", []sent{{adst, fill(50, 1)}, {adst, fill(100, 2)}, {adst, fill(100, 3)}}, 2},
		{"destinations are never mixed", []sent{{adst, fill(40, 1)}, {bdst, fill(40, 2)}, {adst, fill(40, 3)}, {bdst, fill(40, 4)}}, 4},
		{"over-MTU messages go alone", []sent{{adst, fill(40, 1)}, {adst, fill(2000, 2)}, {adst, fill(2000, 3)}, {adst, fill(40, 4)}}, 4},
		{"a run holds 64 segments", func() (m []sent) {
			for i := 0; i < 70; i++ {
				m = append(m, sent{adst, fill(20, byte(i))})
			}
			return
		}(), 2},
	}
	for _, tc := range cases {
		before := s.writes.Load()
		var wantA, wantB [][]byte
		for _, m := range tc.msgs {
			if err := s.queue(m.dst, m.msg); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if m.dst == adst {
				wantA = append(wantA, m.msg)
			} else {
				wantB = append(wantB, m.msg)
			}
		}
		if err := s.flush(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for peer, want := range map[*net.UDPConn][][]byte{a: wantA, b: wantB} {
			for i, got := range readAll(t, peer, len(want)) {
				if !bytes.Equal(got, want[i]) {
					t.Errorf("%s: datagram %d is %x, want %x", tc.name, i, got, want[i])
				}
			}
		}
		if w := s.writes.Load() - before; offload && w != tc.writes {
			t.Errorf("%s: %d writes, want %d", tc.name, w, tc.writes)
		}
	}
	if s.off.Load() != nil && offload {
		t.Errorf("offload turned off: %s", s.offload())
	}
}

// TestSegConnWriteErrorFallsBack: a segmented write the kernel refuses
// (here: more segments than it cuts) is resent per datagram, nothing is
// lost, and the socket stays per datagram.
func TestSegConnWriteErrorFallsBack(t *testing.T) {
	peer, dst := plainPeer(t)
	raw, _ := plainPeer(t)
	s := newSegConn(raw)
	if s.off.Load() != nil {
		t.Skipf("no offload to lose: %s", s.offload())
	}
	s.dst, s.size, s.run = dst, 1, fill(200, 0)
	if err := s.flush(); err != nil {
		t.Fatal(err)
	}
	for i, got := range readAll(t, peer, 200) {
		if len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("datagram %d is %x", i, got)
		}
	}
	if s.off.Load() == nil || !strings.HasPrefix(s.offload(), "off: ") {
		t.Fatalf("offload still %q after a refused write", s.offload())
	}
	before := s.writes.Load()
	for i := 0; i < 4; i++ {
		s.queue(dst, fill(40, byte(i)))
	}
	s.flush()
	readAll(t, peer, 4)
	if w := s.writes.Load() - before; w != 4 {
		t.Errorf("%d writes for 4 messages after fallback, want 4", w)
	}
}

// TestSegConnTruncatedRead: a datagram larger than the read buffer
// comes back flagged MSG_TRUNC and is refused, not processed as whole.
func TestSegConnTruncatedRead(t *testing.T) {
	peer, _ := plainPeer(t)
	raw, dst := plainPeer(t)
	s := newSegConn(raw)
	s.rbuf = make([]byte, 64)
	peer.WriteToUDPAddrPort(fill(200, 0), dst)
	peer.WriteToUDPAddrPort(fill(30, 0), dst)
	s.SetReadDeadline(time.Now().Add(2 * time.Second))
	if segs, _, err := s.read(); err != errBadRead || len(segs) != 0 {
		t.Errorf("oversized datagram: %d segments, %v", len(segs), err)
	}
	if segs, _, err := s.read(); err != nil || len(segs) != 1 || len(segs[0]) != 30 {
		t.Errorf("datagram behind it: %d segments, %v", len(segs), err)
	}
}

// TestUDPTwoHostsInterleaved: one sender's batch alternates between two
// destinations; the device forwards each message to its own host, in
// order, and never coalesces across destinations.
func TestUDPTwoHostsInterleaved(t *testing.T) {
	dev, h1, _ := echoUDP(t, FaultSpec{})
	defer dev.Close()
	defer h1.Close()
	h2, err := Dial(DialConfig{ID: 2, Local: "127.0.0.1:0", Device: dev.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if err := dev.SetNodeAddr(2, h2.Addr()); err != nil {
		t.Fatal(err)
	}
	// No computation addressed (To none): the device only forwards.
	var batch [][]byte
	for i := 0; i < 16; i++ {
		h := wire.Header{Src: 1, Dst: uint16(1 + i%2), From: wire.None, To: wire.None}
		batch = append(batch, append(h.Marshal(nil), byte(i), 0xEE))
	}
	before := dev.Stats()
	if err := (hostTransport{h1}).SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		h := []*HostConn{h1, h2}[i%2]
		m, err := h.Recv(2 * time.Second)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !bytes.Equal(m, batch[i]) {
			t.Errorf("host %d got %x, want message %d = %x", 1+i%2, m, i, batch[i])
		}
	}
	offloadOrSkip(t, dev)
	ds := dev.Stats()
	if r, w := ds.Reads-before.Reads, ds.Writes-before.Writes; r != 1 || w != 16 {
		t.Errorf("%d reads, %d writes; want the batch in 1 read and 16 writes", r, w)
	}
}

// TestUDPFaultsCountPerSegment: Pause and the fault injector see every
// datagram of a coalesced read, not the read.
func TestUDPFaultsCountPerSegment(t *testing.T) {
	var batch [][]byte
	for i := 0; i < 16; i++ {
		batch = append(batch, testMsg(1, 2, byte(i), 0, 0, 0))
	}
	settle := func(dev *UDPDevice, want func(DeviceStats) bool) DeviceStats {
		deadline := time.Now().Add(2 * time.Second)
		for !want(dev.Stats()) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return dev.Stats()
	}

	dev, host, _ := echoUDP(t, FaultSpec{})
	defer dev.Close()
	defer host.Close()
	dev.Pause()
	if err := (hostTransport{host}).SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if ds := settle(dev, func(s DeviceStats) bool { return s.FaultDropped >= 16 }); ds.FaultDropped != 16 || ds.Processed != 0 {
		t.Errorf("paused: %+v, want 16 fault-dropped and none processed", ds)
	}
	dev.Restart()
	if err := (hostTransport{host}).SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if ds := settle(dev, func(s DeviceStats) bool { return s.Processed >= 16 }); ds.FaultDropped != 16 || ds.Processed != 16 {
		t.Errorf("restarted: %+v, want 16 processed", ds)
	}

	lossy, host2, _ := echoUDP(t, FaultSpec{LossRate: 1, Seed: 3})
	defer lossy.Close()
	defer host2.Close()
	if err := (hostTransport{host2}).SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if ds := settle(lossy, func(s DeviceStats) bool { return s.FaultDropped >= 16 }); ds.FaultDropped != 16 || ds.Processed != 0 {
		t.Errorf("total loss: %+v, want 16 fault-dropped", ds)
	}

	dupes, host3, _ := echoUDP(t, FaultSpec{DupRate: 1, Seed: 3})
	defer dupes.Close()
	defer host3.Close()
	if err := (hostTransport{host3}).SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if ds := settle(dupes, func(s DeviceStats) bool { return s.Processed >= 32 }); ds.FaultDuplicated != 16 || ds.Processed != 32 {
		t.Errorf("total duplication: %+v, want 16 duplicated, 32 processed", ds)
	}
}

// TestHostConnRecvClearsStaleDeadline: a timed Recv must not leave its
// deadline behind for a later untimed one ("block until a message").
func TestHostConnRecvClearsStaleDeadline(t *testing.T) {
	peer, _ := plainPeer(t)
	h, err := Dial(DialConfig{ID: 1, Local: "127.0.0.1:0", Device: "127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Recv(20 * time.Millisecond); !IsTimeout(err) {
		t.Fatalf("timed Recv on a silent socket: %v", err)
	}
	time.Sleep(30 * time.Millisecond) // the old deadline is now in the past
	msg := testMsg(2, 1, 0xAB)
	go func() {
		time.Sleep(20 * time.Millisecond)
		peer.WriteTo(msg, h.sock.LocalAddr())
	}()
	got, err := h.Recv(0)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("untimed Recv after a timed one: %x, %v", got, err)
	}
}

// TestHostConnRecvAllocs: the stop-and-wait receive path costs one
// allocation of the message's own size per message, not a 64 KiB
// buffer.
func TestHostConnRecvAllocs(t *testing.T) {
	peer, _ := plainPeer(t)
	h, err := Dial(DialConfig{ID: 1, Local: "127.0.0.1:0", Device: "127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	msg := fill(64, 0) // a size class of its own: no rounding to hide behind
	const runs = 200
	var ms0, ms1 gort.MemStats
	recv := func() {
		if _, err := peer.WriteTo(msg, h.sock.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		if got, err := h.Recv(time.Second); err != nil || len(got) != len(msg) {
			t.Fatalf("recv: %d bytes, %v", len(got), err)
		}
	}
	recv()
	gort.ReadMemStats(&ms0)
	allocs := testing.AllocsPerRun(runs, recv) // runs once more to warm up
	gort.ReadMemStats(&ms1)
	if allocs > 1 {
		t.Errorf("%.1f allocations per received message, want <= 1", allocs)
	}
	if per := float64(ms1.TotalAlloc-ms0.TotalAlloc) / (runs + 1); per > float64(len(msg))+8 {
		t.Errorf("%.0f bytes allocated per received message of %d", per, len(msg))
	}
}

// TestUDPDeviceLoopLeavesOnDeadSocket: a socket error that will not go
// away ends the receive loop instead of spinning on it.
func TestUDPDeviceLoopLeavesOnDeadSocket(t *testing.T) {
	dev, host, _ := echoUDP(t, FaultSpec{})
	defer host.Close()
	dev.sock.Close() // the socket dies under the loop; done stays open
	exited := make(chan struct{})
	go func() { dev.wg.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(2 * time.Second):
		t.Error("receive loop still running on a closed socket")
	}
	dev.Close()
}
