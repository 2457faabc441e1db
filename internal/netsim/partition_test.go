package netsim

import (
	"testing"

	"netcl/internal/passes"
	"netcl/internal/runtime"
	"netcl/internal/testutil"
)

// TestRunAdvancesToHorizon pins the unified horizon-clock semantics:
// Run(until) lands the clock exactly on the horizon whether the queue
// was empty all along or drained early — matching StepNext's timeout
// behavior.
func TestRunAdvancesToHorizon(t *testing.T) {
	var s Sim
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 100 {
		t.Errorf("empty-queue Run(100) left now at %v, want 100", s.Now())
	}
	s.At(20, func() {})
	if err := s.Run(150); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 150 {
		t.Errorf("drained Run(150) left now at %v, want 150", s.Now())
	}
	var s2 Sim
	if ran, err := s2.StepNext(70); ran || err != nil {
		t.Fatalf("StepNext on empty queue: ran=%v err=%v", ran, err)
	}
	if s2.Now() != 70 {
		t.Errorf("StepNext horizon: now %v, want 70", s2.Now())
	}
}

// TestSentNotCountedWithoutDevice pins the Host.Sent fix: frames that
// never transmit (no uplink, or an uplink whose peer is not a device)
// must not count as sent.
func TestSentNotCountedWithoutDevice(t *testing.T) {
	n := NewNetwork()
	h1 := n.AddHost(1)
	h1.Send([]byte{1, 2, 3})
	h1.SendBatch([][]byte{{1}, {2}})
	if h1.Sent() != 0 {
		t.Errorf("unconnected host counted %d sends", h1.Sent())
	}
	// Hand-build a host↔host link: the peer-is-a-device check must
	// bail before counting.
	h2 := n.AddHost(2)
	l := n.links.alloc()
	l.LatencyNs, l.BandwidthGbps = 1000, 100
	l.ends[0] = end{node: h1.idx}
	l.ends[1] = end{node: h2.idx}
	n.hc.link[h1.idx] = l.idx + 1
	h1.Send([]byte{1, 2, 3})
	h1.SendBatch([][]byte{{1}, {2}})
	if h1.Sent() != 0 {
		t.Errorf("host with non-device peer counted %d sends", h1.Sent())
	}
	if n.Pending() != 0 {
		t.Errorf("%d events scheduled for untransmittable frames", n.Pending())
	}
}

// TestAutoWireDeterministic: wiring the same diamond topology (two
// equal-cost paths between the edge devices) twice must install
// identical forwarding tables — the BFS iterates ports and devices in
// sorted order, so tie-breaks cannot vary run to run.
func TestAutoWireDeterministic(t *testing.T) {
	build := func() *Network {
		n := NewNetwork()
		progFor := func(dev int) *Device {
			prog, _, err := testutil.CompileOne(testutil.EchoKernel, passes.TargetTNA, uint16(dev))
			if err != nil {
				t.Fatal(err)
			}
			return n.AddDevice(uint16(dev), prog)
		}
		d1, d2, d3, d4 := progFor(1), progFor(2), progFor(3), progFor(4)
		// Diamond: d1→{d2,d3}→d4, equal cost.
		n.ConnectDevices(d1, 1, d2, 1)
		n.ConnectDevices(d1, 2, d3, 1)
		n.ConnectDevices(d2, 2, d4, 1)
		n.ConnectDevices(d3, 2, d4, 2)
		h := n.AddHost(40)
		n.Connect(h, d4, 3)
		if err := n.AutoWire(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	na, nb := build(), build()
	for dev := uint16(1); dev <= 4; dev++ {
		ea := na.Device(dev).SW.Entries("netcl_fwd")
		eb := nb.Device(dev).SW.Entries("netcl_fwd")
		if len(ea) != len(eb) {
			t.Fatalf("device %d: %d vs %d entries", dev, len(ea), len(eb))
		}
		for i := range ea {
			if ea[i].Keys[0].Value != eb[i].Keys[0].Value ||
				ea[i].Action.Args[0] != eb[i].Action.Args[0] {
				t.Errorf("device %d entry %d: (%d→%d) vs (%d→%d)", dev, i,
					ea[i].Keys[0].Value, ea[i].Action.Args[0],
					eb[i].Keys[0].Value, eb[i].Action.Args[0])
			}
		}
	}
}

// chainNet builds a 4-device chain, hostsPerDev hosts each, every host
// loaded with msgs echo requests aimed at the device (k+1) hops down
// the chain. Returns the network plus the per-host pending queues;
// timers drive the open-loop send schedule (closure-free, partition-
// safe). Start times and intervals are staggered per host so no two
// packets ever tie on a shared link — the determinism precondition for
// comparing partition counts.
func chainNet(t *testing.T, hostsPerDev int) (*Network, [][][]byte) {
	t.Helper()
	const devices = 4
	n := NewNetwork()
	var devs []*Device
	for dv := 0; dv < devices; dv++ {
		prog, _, err := testutil.CompileOne(testutil.EchoKernel, passes.TargetTNA, uint16(dv+1))
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, n.AddDevice(uint16(dv+1), prog))
	}
	for dv := 0; dv+1 < devices; dv++ {
		l := n.ConnectDevices(devs[dv], 100, devs[dv+1], 101)
		l.LatencyNs = 2 * Microsecond // cross-partition lookahead window
	}
	var hosts []*Host
	for dv := 0; dv < devices; dv++ {
		for k := 0; k < hostsPerDev; k++ {
			h := n.AddHost(uint16(10 + dv*hostsPerDev + k))
			n.Connect(h, devs[dv], 1+k)
			hosts = append(hosts, h)
		}
	}
	if err := n.AutoWire(); err != nil {
		t.Fatal(err)
	}
	spec := &runtime.MessageSpec{Comp: 1, Args: []runtime.ArgSpec{{Name: "x", Bytes: 4, Count: 1, Out: true}}}
	pending := make([][][]byte, len(hosts))
	for i, h := range hosts {
		dv := i / hostsPerDev
		target := (dv + 1) % devices
		dst := hosts[target*hostsPerDev+i%hostsPerDev]
		for j := 0; j < 4; j++ {
			msg, err := runtime.Pack(spec,
				runtime.Message{Src: h.ID, Dst: dst.ID, Device: uint16(target + 1), Comp: 1}.Header(),
				[][]uint64{{uint64(i*1000 + j)}})
			if err != nil {
				t.Fatal(err)
			}
			pending[i] = append(pending[i], msg)
		}
	}
	n.OnTimer(func(h *Host) {
		i := h.idx
		if len(pending[i]) == 0 {
			return
		}
		h.Send(pending[i][0])
		pending[i] = pending[i][1:]
		if len(pending[i]) > 0 {
			h.StartTimer(1500*Nanosecond + Time(7*i))
		}
	})
	return n, pending
}

type chainRun struct {
	hash      uint64
	delivered uint64
	dropped   uint64
	duped     uint64
	processed uint64
	now       Time
}

// runChain executes the chain scenario under k partitions (0 = never
// call SetPartitions, which must be the same run as k = 1).
func runChain(t *testing.T, k int, faults FaultConfig) chainRun {
	t.Helper()
	n, _ := chainNet(t, 3)
	n.EnableTrace()
	if faults.Active() {
		n.InjectFaults(faults)
	}
	if k > 0 {
		if err := n.SetPartitions(k); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); i < n.hs.count; i++ {
		h := n.hs.at(i)
		h.StartTimer(100*Nanosecond + Time(137*i))
	}
	if err := n.RunAll(); err != nil {
		t.Fatal(err)
	}
	return chainRun{
		hash:      n.TraceHash(),
		delivered: n.PacketsDelivered,
		dropped:   n.PacketsDropped,
		duped:     n.FaultsDuplicated,
		processed: n.TotalProcessed(),
		now:       n.Now(),
	}
}

// TestPartitionedMatchesSerial: the partitioned engine must deliver
// the same bytes at the same simulated times as one partition —
// hash-chain equality across 1, 2 and 4 partitions.
func TestPartitionedMatchesSerial(t *testing.T) {
	base := runChain(t, 1, FaultConfig{})
	if base.delivered == 0 {
		t.Fatal("chain scenario delivered nothing")
	}
	for _, k := range []int{2, 4} {
		got := runChain(t, k, FaultConfig{})
		if got != base {
			t.Errorf("k=%d diverged from k=1: %+v vs %+v", k, got, base)
		}
	}
}

// TestPartitionedChaosHashChain: under seeded loss/duplication/jitter,
// partitioned runs must still hash-chain-match the single-partition
// run — the per-(link,direction) fault streams make the draw sequence
// independent of the partition count. A network that never calls
// SetPartitions (k=0) is the k=1 run too: there is one fault model.
func TestPartitionedChaosHashChain(t *testing.T) {
	cfg := FaultConfig{LossRate: 0.12, DupRate: 0.08, JitterNs: 300, Seed: 42}
	base := runChain(t, 1, cfg)
	if base.dropped == 0 || base.duped == 0 {
		t.Fatalf("chaos run injected nothing: %+v", base)
	}
	if base.delivered == 0 {
		t.Fatal("chaos run delivered nothing")
	}
	for _, k := range []int{0, 2, 4} {
		got := runChain(t, k, cfg)
		if got != base {
			t.Errorf("k=%d chaos run diverged from k=1: %+v vs %+v", k, got, base)
		}
	}
	// Different seed, different pattern (sanity that faults do bite).
	other := runChain(t, 2, FaultConfig{LossRate: 0.12, DupRate: 0.08, JitterNs: 300, Seed: 43})
	if other.hash == base.hash {
		t.Error("different fault seeds produced identical hash chains")
	}
}

// TestSteadyStateAllocsPerEvent pins ≈0 allocations per event on the
// schedule→pop→dispatch packet path (send, transmit, device pipeline,
// deliver): buffers are pooled, events are closure-free values in the
// heap slice. Skipped under -race (the instrumentation allocates),
// like TestCompiledBurstAllocs.
func TestSteadyStateAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	n, h, _, spec := echoNet(t)
	msg, err := runtime.Pack(spec, runtime.Message{Src: 1, Dst: 2, Device: 9, Comp: 1}.Header(),
		[][]uint64{{7}})
	if err != nil {
		t.Fatal(err)
	}
	// Warm pools, heap slice, deparse buffers.
	for i := 0; i < 16; i++ {
		h.Send(msg)
	}
	if err := n.RunAll(); err != nil {
		t.Fatal(err)
	}
	before := n.Processed
	const rounds = 4
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < rounds; i++ {
			h.Send(msg)
		}
		if err := n.RunAll(); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := allocs * 101 / float64(n.Processed-before)
	if perEvent > 0.05 {
		t.Errorf("%.3f allocs/event on the steady-state path (want ≈0)", perEvent)
	}
}

// runChainChurn is runChain plus a mid-run churn timeline: the second
// chain device crashes and restarts, and the device-2→device-1 link
// direction flaps administratively — every event at a fixed virtual
// time through the owning partition's At hook. Returns the run plus
// the admin-down drop count.
func runChainChurn(t *testing.T, k int, faults FaultConfig) (chainRun, uint64) {
	t.Helper()
	n, _ := chainNet(t, 3)
	n.EnableTrace()
	if faults.Active() {
		n.InjectFaults(faults)
	}
	if k > 0 {
		if err := n.SetPartitions(k); err != nil {
			t.Fatal(err)
		}
	}
	d1, d2 := n.devs[1], n.devs[2]
	d1.At(6*Microsecond+Time(0.3), func() { d1.Pause() })
	d1.At(11*Microsecond+Time(0.3), func() { d1.Restart() })
	// Port 101 of device 2 faces device 1 (chainNet wires dv:100 ↔
	// dv+1:101): downing it kills only the 2→1 direction, so the fault
	// streams on the reverse direction stay aligned.
	d2.At(4*Microsecond+Time(0.3), func() { d2.SetPortDown(101, true) })
	d2.At(14*Microsecond+Time(0.3), func() { d2.SetPortDown(101, false) })
	for i := int32(0); i < n.hs.count; i++ {
		n.hs.at(i).StartTimer(100*Nanosecond + Time(137*i))
	}
	if err := n.RunAll(); err != nil {
		t.Fatal(err)
	}
	return chainRun{
		hash:      n.TraceHash(),
		delivered: n.PacketsDelivered,
		dropped:   n.PacketsDropped,
		duped:     n.FaultsDuplicated,
		processed: n.TotalProcessed(),
		now:       n.Now(),
	}, n.LinkDownDrops
}

// TestPartitionedChurnHashChain: the chaos-chain determinism witness
// extended with mid-run device crash/restore and a link flap. The
// churn events fire at fixed virtual times in their owning partitions,
// so k ∈ {0,2,4} must replay the k=1 run bit for bit — drops, restarts
// and all — while the timeline itself must visibly change the chain
// versus the no-churn run.
func TestPartitionedChurnHashChain(t *testing.T) {
	cfg := FaultConfig{LossRate: 0.12, DupRate: 0.08, JitterNs: 300, Seed: 42}
	base, linkDrops := runChainChurn(t, 1, cfg)
	if base.delivered == 0 {
		t.Fatal("churn run delivered nothing")
	}
	if linkDrops == 0 {
		t.Fatal("link flap dropped nothing — the timeline missed the traffic")
	}
	plain := runChain(t, 1, cfg)
	if base.hash == plain.hash {
		t.Error("churn timeline left the delivery chain unchanged")
	}
	if base.delivered >= plain.delivered {
		t.Errorf("crash+flap lost no deliveries: churn %d vs plain %d", base.delivered, plain.delivered)
	}
	for _, k := range []int{0, 2, 4} {
		got, gotDrops := runChainChurn(t, k, cfg)
		if got != base {
			t.Errorf("k=%d churn run diverged from k=1: %+v vs %+v", k, got, base)
		}
		if gotDrops != linkDrops {
			t.Errorf("k=%d admin-down drops %d, want %d", k, gotDrops, linkDrops)
		}
	}
}
