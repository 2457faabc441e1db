package netsim

import (
	"testing"

	"netcl/internal/passes"
	"netcl/internal/runtime"
	"netcl/internal/testutil"
	"netcl/internal/wire"
)

func TestEventOrdering(t *testing.T) {
	var s Sim
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.At(10, func() { order = append(order, 11) }) // same time: FIFO
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("final time %v", s.Now())
	}
}

func TestEventHorizonAndBudget(t *testing.T) {
	var s Sim
	fired := false
	s.At(100, func() { fired = true })
	if err := s.Run(50); err != nil {
		t.Fatal(err)
	}
	if fired || s.Now() != 50 {
		t.Error("horizon not respected")
	}
	s2 := Sim{MaxEvents: 3}
	var bomb func()
	bomb = func() { s2.At(1, bomb) }
	s2.At(1, bomb)
	if err := s2.RunAll(); err == nil {
		t.Error("event budget not enforced")
	}
}

// TestHeapStressOrdering drains a large adversarial schedule — mixed
// delays, many ties, events scheduling more events — and checks the
// 4-ary heap pops in nondecreasing (time, seq) order and tracks its
// high-water mark.
func TestHeapStressOrdering(t *testing.T) {
	var s Sim
	last := Time(-1)
	var ran int
	// Deterministic pseudo-random delays (LCG) with heavy tie density.
	x := uint64(12345)
	next := func(n uint64) uint64 { x = x*6364136223846793005 + 1442695040888963407; return (x >> 33) % n }
	var chain func()
	chain = func() {
		if s.Now() < last {
			t.Fatalf("time went backwards: %v after %v", s.Now(), last)
		}
		last = s.Now()
		ran++
		if ran < 2000 {
			s.At(Time(next(8)), chain)
		}
	}
	for i := 0; i < 500; i++ {
		s.At(Time(next(16)), chain)
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ran < 2000 {
		t.Fatalf("only %d events ran", ran)
	}
	if s.Processed != uint64(ran) {
		t.Errorf("Processed=%d, ran=%d", s.Processed, ran)
	}
	if s.PeakQueue < 500 {
		t.Errorf("PeakQueue=%d, want >= 500", s.PeakQueue)
	}
	if s.Pending() != 0 {
		t.Errorf("%d events left", s.Pending())
	}
	if s.EventsPerSec() <= 0 {
		t.Errorf("EventsPerSec=%v after a run", s.EventsPerSec())
	}
}

// TestSameTimeFIFOAtScale: a thousand events at the identical instant
// must run in scheduling order (the determinism contract).
func TestSameTimeFIFOAtScale(t *testing.T) {
	var s Sim
	var order []int
	for i := 0; i < 1000; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("position %d ran event %d", i, v)
		}
	}
}

// echoNet builds host(1) -- device(9) with the echo kernel.
func echoNet(t *testing.T) (*Network, *Host, *Device, *runtime.MessageSpec) {
	t.Helper()
	prog, _, err := testutil.CompileOne(testutil.EchoKernel, passes.TargetTNA, 9)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork()
	h := n.AddHost(1)
	d := n.AddDevice(9, prog)
	n.Connect(h, d, 1)
	if err := n.AutoWire(); err != nil {
		t.Fatal(err)
	}
	spec := &runtime.MessageSpec{Comp: 1, Args: []runtime.ArgSpec{{Name: "x", Bytes: 4, Count: 1, Out: true}}}
	return n, h, d, spec
}

func TestEchoThroughSimulatedNetwork(t *testing.T) {
	n, h, _, spec := echoNet(t)
	var got []uint64
	var at []Time
	h.SetReceive(func(h *Host, msg []byte) {
		x := make([]uint64, 1)
		hdr, err := runtime.UnpackInto(spec, msg, [][]uint64{x})
		if err != nil {
			t.Errorf("unpack: %v", err)
			return
		}
		if hdr.Act != wire.ActReflect {
			t.Errorf("act: %s", wire.ActionName(int(hdr.Act)))
		}
		got = append(got, x[0])
		at = append(at, n.Now())
	})
	for i := 0; i < 3; i++ {
		msg, err := runtime.Pack(spec, runtime.Message{Src: 1, Dst: 2, Device: 9, Comp: 1}.Header(),
			[][]uint64{{uint64(10 * (i + 1))}})
		if err != nil {
			t.Fatal(err)
		}
		h.Send(msg)
	}
	if err := n.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 11 || got[1] != 21 || got[2] != 31 {
		t.Fatalf("echo results: %v", got)
	}
	// RTT sanity: two 1µs links + host processing + device pipeline.
	if at[0] < 4*Microsecond || at[0] > 50*Microsecond {
		t.Errorf("first RTT at %v ns implausible", at[0])
	}
	if h.Sent() != 3 || h.Received() != 3 {
		t.Errorf("host counters: %d/%d", h.Sent(), h.Received())
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	run := func() (Time, uint64) {
		n, h, _, spec := echoNet(t)
		var last Time
		h.SetReceive(func(h *Host, msg []byte) { last = n.Now() })
		for i := 0; i < 5; i++ {
			msg, _ := runtime.Pack(spec, runtime.Message{Src: 1, Dst: 2, Device: 9, Comp: 1}.Header(),
				[][]uint64{{uint64(i)}})
			h.Send(msg)
		}
		n.RunAll()
		return last, n.Processed
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Errorf("non-deterministic: %v/%d vs %v/%d", t1, e1, t2, e2)
	}
}

func TestTwoDeviceForwarding(t *testing.T) {
	// h1 -- d1 -- d2 -- h2: a message from h1 to h2 computing at d2.
	prog1, _, err := testutil.CompileOne(testutil.EchoKernel, passes.TargetTNA, 1)
	if err != nil {
		t.Fatal(err)
	}
	prog2, _, err := testutil.CompileOne(`
_kernel(1) void fwd(unsigned &x) { x = x * 2; }
`, passes.TargetTNA, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork()
	h1 := n.AddHost(100)
	h2 := n.AddHost(200)
	d1 := n.AddDevice(1, prog1)
	d2 := n.AddDevice(2, prog2)
	n.Connect(h1, d1, 1)
	n.ConnectDevices(d1, 2, d2, 1)
	n.Connect(h2, d2, 2)
	if err := n.AutoWire(); err != nil {
		t.Fatal(err)
	}
	spec := &runtime.MessageSpec{Comp: 1, Args: []runtime.ArgSpec{{Name: "x", Bytes: 4, Count: 1, Out: true}}}
	var got uint64
	h2.SetReceive(func(h *Host, msg []byte) {
		x := make([]uint64, 1)
		if _, err := runtime.UnpackInto(spec, msg, [][]uint64{x}); err == nil {
			got = x[0]
		}
	})
	// Request computation at device 2 only: device 1 is a no-op hop.
	msg, _ := runtime.Pack(spec, runtime.Message{Src: 100, Dst: 200, Device: 2, Comp: 1}.Header(),
		[][]uint64{{21}})
	h1.Send(msg)
	if err := n.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("h2 got %d, want 42 (no-implicit-computation at d1, *2 at d2)", got)
	}
	if d1.Processed != 1 || d2.Processed != 1 {
		t.Errorf("device counters: %d %d", d1.Processed, d2.Processed)
	}
}

func TestMulticastDelivery(t *testing.T) {
	prog, _, err := testutil.CompileOne(`
_kernel(1) void bcast(unsigned x) { return ncl::multicast(7); }
`, passes.TargetTNA, 9)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork()
	d := n.AddDevice(9, prog)
	var hosts []*Host
	recv := map[uint16]int{}
	for i := 0; i < 3; i++ {
		h := n.AddHost(uint16(10 + i))
		n.Connect(h, d, i+1)
		h.SetReceive(func(h *Host, msg []byte) { recv[h.ID]++ })
		hosts = append(hosts, h)
	}
	if err := n.AutoWire(); err != nil {
		t.Fatal(err)
	}
	d.SetMulticastGroup(7, []int{1, 2, 3})
	spec := &runtime.MessageSpec{Comp: 1, Args: []runtime.ArgSpec{{Name: "x", Bytes: 4, Count: 1}}}
	msg, _ := runtime.Pack(spec, runtime.Message{Src: 10, Dst: 11, Device: 9, Comp: 1}.Header(),
		[][]uint64{{1}})
	hosts[0].Send(msg)
	if err := n.RunAll(); err != nil {
		t.Fatal(err)
	}
	if recv[10] != 1 || recv[11] != 1 || recv[12] != 1 {
		t.Fatalf("multicast delivery: %v", recv)
	}
}

func TestLinkSerialization(t *testing.T) {
	l := &Link{LatencyNs: 1000, BandwidthGbps: 100}
	// 1250 bytes at 100 Gb/s = 100ns.
	if got := l.serialization(1250); got != 100 {
		t.Errorf("serialization: %v", got)
	}
	l2 := &Link{}
	if l2.serialization(1000) != 0 {
		t.Error("zero bandwidth should not serialize")
	}
}
