package netsim

import (
	"errors"
	"testing"
	"time"

	"netcl/internal/runtime"
)

// Compile-time check: both backends present the same Endpoint surface.
var _ runtime.Endpoint = (*HostEndpoint)(nil)

// TestFaultDeterminism: the same seed must reproduce the exact same
// loss pattern — identical drop counters and identical final simulated
// time across runs.
func TestFaultDeterminism(t *testing.T) {
	run := func(seed int64) (uint64, uint64, Time, int) {
		n, h, _, spec := echoNet(t)
		n.InjectFaults(FaultConfig{LossRate: 0.3, DupRate: 0.1, JitterNs: 500, Seed: seed})
		delivered := 0
		h.SetReceive(func(h *Host, msg []byte) { delivered++ })
		for i := 0; i < 40; i++ {
			msg, err := runtime.Pack(spec, runtime.Message{Src: 1, Dst: 2, Device: 9, Comp: 1}.Header(),
				[][]uint64{{uint64(i)}})
			if err != nil {
				t.Fatal(err)
			}
			h.Send(msg)
		}
		if err := n.RunAll(); err != nil {
			t.Fatal(err)
		}
		return n.FaultsDropped, n.FaultsDuplicated, n.Now(), delivered
	}
	d1, p1, t1, n1 := run(99)
	d2, p2, t2, n2 := run(99)
	if d1 != d2 || p1 != p2 || t1 != t2 || n1 != n2 {
		t.Errorf("same seed diverged: (%d,%d,%v,%d) vs (%d,%d,%v,%d)",
			d1, p1, t1, n1, d2, p2, t2, n2)
	}
	if d1 == 0 {
		t.Error("30% loss over 40 round trips dropped nothing; injection broken")
	}
	if p1 == 0 {
		t.Error("10% duplication over 40 round trips duplicated nothing")
	}
	d3, _, _, _ := run(100)
	if d3 == d1 && func() bool { _, _, t3, _ := run(100); return t3 == t1 }() {
		t.Error("different seeds produced identical fault patterns")
	}
}

// TestEndpointCallUnderLoss drives the reliable Call path over the
// simulator under 30% loss: every call must still return the right
// echo, entirely in simulated time.
func TestEndpointCallUnderLoss(t *testing.T) {
	n, h, _, spec := echoNet(t)
	n.InjectFaults(FaultConfig{LossRate: 0.3, Seed: 7})
	ep := n.NewEndpoint(h, runtime.ReliabilityConfig{
		Timeout: 100 * time.Microsecond, MaxRetries: 24,
	})
	for i := 0; i < 8; i++ {
		x := make([]uint64, 1)
		hdr, err := runtime.CallMessage(ep, spec, runtime.Message{Src: 1, Dst: 2, Device: 9, Comp: 1},
			[][]uint64{{uint64(10 * i)}}, [][]uint64{x}, 0)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if x[0] != uint64(10*i)+1 {
			t.Errorf("call %d: echo %d, want %d", i, x[0], 10*i+1)
		}
		if hdr.From != 9 {
			t.Errorf("call %d: reflected by %d", i, hdr.From)
		}
	}
	if n.FaultsDropped == 0 {
		t.Error("lossy run dropped nothing; injection broken")
	}
	if st := ep.Stats(); st.Retransmits == 0 {
		t.Errorf("packets were dropped but nothing was retransmitted: %+v", st)
	}
}

// TestEndpointRetryBudgetOnPausedDevice pauses the simulated device:
// calls fail with ErrRetryBudget, succeed again after Restart, and
// register state survives the outage.
func TestEndpointRetryBudgetOnPausedDevice(t *testing.T) {
	n, h, d, spec := echoNet(t)
	ep := n.NewEndpoint(h, runtime.ReliabilityConfig{
		Timeout: 50 * time.Microsecond, MaxRetries: 2,
	})
	call := func() error {
		x := make([]uint64, 1)
		_, err := runtime.CallMessage(ep, spec, runtime.Message{Src: 1, Dst: 2, Device: 9, Comp: 1},
			[][]uint64{{5}}, [][]uint64{x}, 0)
		return err
	}
	if err := call(); err != nil {
		t.Fatalf("healthy device: %v", err)
	}
	d.Pause()
	if !d.Paused() {
		t.Fatal("Pause did not take")
	}
	if err := call(); !errors.Is(err, runtime.ErrRetryBudget) {
		t.Fatalf("paused device: want ErrRetryBudget, got %v", err)
	}
	d.Restart()
	if err := call(); err != nil {
		t.Fatalf("restarted device: %v", err)
	}
	if st := ep.Stats(); st.Failures != 1 {
		t.Errorf("stats %+v", st)
	}
}

// TestInjectFaultsDisarm: a zero config removes the injector, and
// deterministic per-link DropNth continues to work independently. It
// counts per direction: with DropNth = 2 on the echo link, every
// second request (host→device) and every second reply (device→host)
// is lost.
func TestInjectFaultsDisarm(t *testing.T) {
	n, h, _, spec := echoNet(t)
	n.InjectFaults(FaultConfig{LossRate: 1})
	n.InjectFaults(FaultConfig{}) // disarm
	l := n.links.at(0)
	l.DropNth = 2
	delivered := 0
	h.SetReceive(func(h *Host, msg []byte) { delivered++ })
	msg, err := runtime.Pack(spec, runtime.Message{Src: 1, Dst: 2, Device: 9, Comp: 1}.Header(),
		[][]uint64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		h.Send(msg)
	}
	if err := n.RunAll(); err != nil {
		t.Fatal(err)
	}
	if n.FaultsDropped != 0 {
		t.Errorf("disarmed injector still active: dropped=%d", n.FaultsDropped)
	}
	// 8 requests lose 4; the 4 replies lose 2.
	if l.droppedDir != [2]uint64{4, 2} || delivered != 2 {
		t.Errorf("DropNth=2: dropped %v per direction, delivered %d; want [4 2] and 2",
			l.droppedDir, delivered)
	}
	if l.Dropped() != 6 || n.PacketsDropped != 6 {
		t.Errorf("Dropped()=%d PacketsDropped=%d, want both 6 (the per-direction sum)",
			l.Dropped(), n.PacketsDropped)
	}
}

// TestEndpointOnPartitionedNetwork: a HostEndpoint pumps partition 0
// only, so on a network cut into several partitions its receive path
// must fail with ErrPartitionedEndpoint instead of timing out on
// replies the other partitions would produce.
func TestEndpointOnPartitionedNetwork(t *testing.T) {
	n, _ := chainNet(t, 1)
	if err := n.SetPartitions(2); err != nil {
		t.Fatal(err)
	}
	h := n.HostAt(0)
	ep := n.NewEndpoint(h, runtime.ReliabilityConfig{Timeout: 50 * time.Microsecond, MaxRetries: 2})
	spec := &runtime.MessageSpec{Comp: 1, Args: []runtime.ArgSpec{{Name: "x", Bytes: 4, Count: 1, Out: true}}}
	x := make([]uint64, 1)
	// Device 3 is two hops down the chain, in the other partition.
	_, err := runtime.CallMessage(ep, spec, runtime.Message{Src: h.ID, Dst: h.ID, Device: 3, Comp: 1},
		[][]uint64{{5}}, [][]uint64{x}, 0)
	if !errors.Is(err, ErrPartitionedEndpoint) {
		t.Fatalf("Call on a 2-partition network: got %v, want ErrPartitionedEndpoint", err)
	}
	if _, err := ep.Recv(time.Microsecond); !errors.Is(err, ErrPartitionedEndpoint) {
		t.Errorf("Recv on a 2-partition network: got %v, want ErrPartitionedEndpoint", err)
	}
}
