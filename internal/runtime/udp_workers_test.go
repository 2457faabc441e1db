package runtime

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
	"netcl/internal/passes"
	"netcl/internal/testutil"
	"netcl/internal/wire"
)

// counterFlowKey extracts the CounterKernel's slot argument (the flow
// identity: two messages for the same slot touch the same register
// cell) from a framed packet.
func counterFlowKey(pkt []byte) uint64 {
	off := FrameOverhead + wire.HeaderBytes
	if len(pkt) < off+4 {
		return 0
	}
	return uint64(pkt[off])<<24 | uint64(pkt[off+1])<<16 |
		uint64(pkt[off+2])<<8 | uint64(pkt[off+3])
}

// TestUDPDeviceWorkers runs the UDP device with a flow-sharded worker
// pool: concurrent hosts hammer disjoint counter slots while the
// control plane reads registers (quiescing the workers) mid-traffic.
// Per-slot counts must come out exact — the shard-by-flow invariant
// over real sockets.
func TestUDPDeviceWorkers(t *testing.T) {
	prog, mod, err := testutil.CompileOne(testutil.CounterKernel, passes.TargetTNA, 5)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ServeDevice(DeviceConfig{
		ID: 5, Addr: "127.0.0.1:0", Prog: prog,
		Workers: 4, QueueDepth: 64, FlowKey: counterFlowKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if st := dev.Stats(); st.Workers != 4 {
		t.Fatalf("device reports %d workers, want 4", st.Workers)
	}

	spec := &MessageSpec{Comp: 1, Args: []ArgSpec{
		{Name: "slot", Bytes: 4, Count: 1},
		{Name: "count", Bytes: 4, Count: 1, Out: true},
	}}

	const hosts, perHost = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, hosts)
	for h := 0; h < hosts; h++ {
		host, err := Dial(DialConfig{ID: uint16(1 + h), Local: "127.0.0.1:0", Device: dev.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		defer host.Close()
		if err := dev.SetNodeAddr(uint16(1+h), host.Addr()); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(host *HostConn, slot uint64) {
			defer wg.Done()
			for i := 1; i <= perHost; i++ {
				err := host.SendMessage(spec,
					Message{Src: host.ID, Dst: 2, Device: 5, Comp: 1},
					[][]uint64{{slot}, nil})
				if err != nil {
					errs <- err
					return
				}
				count := make([]uint64, 1)
				if _, err := host.RecvMessage(spec, [][]uint64{nil, count}, 2*time.Second); err != nil {
					errs <- fmt.Errorf("slot %d msg %d: %w", slot, i, err)
					return
				}
				if count[0] != uint64(i) {
					errs <- fmt.Errorf("slot %d msg %d: count %d", slot, i, count[0])
					return
				}
			}
		}(host, uint64(h))
	}

	// Control-plane reads while traffic is in flight exercise the
	// quiesce barrier under load.
	conn := &DeviceConnection{CP: dev, Mems: mod.Mems}
	for i := 0; i < 10; i++ {
		if _, err := conn.ManagedRead("hits", []int{i % hosts}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for h := 0; h < hosts; h++ {
		v, err := conn.ManagedRead("hits", []int{h})
		if err != nil {
			t.Fatal(err)
		}
		if v != perHost {
			t.Errorf("hits[%d] = %d, want %d", h, v, perHost)
		}
	}
	if st := dev.Stats(); st.Processed != hosts*perHost {
		t.Errorf("processed %d, want %d (queuefull %d)", st.Processed, hosts*perHost, st.QueueFull)
	}
}

// TestServeDeviceRefusedProgram: a program the switch compiler refuses
// is ServeDevice's error for any worker count — Workers > 1 used to
// serve it single-threaded on the interpreter — and no socket stays
// bound to its address.
func TestServeDeviceRefusedProgram(t *testing.T) {
	prog := &p4.Program{Name: "noparser", Ingress: &p4.Control{Name: "In"}}
	want := bmv2.New(prog).CompileErr()
	if want == nil {
		t.Fatal("a program without a parser compiled")
	}
	for _, workers := range []int{1, 4} {
		// A free port with a name, so the test can bind it again.
		probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		addr := probe.LocalAddr().String()
		probe.Close()

		dev, err := ServeDevice(DeviceConfig{ID: 5, Addr: addr, Prog: prog, Workers: workers})
		if err == nil {
			dev.Close()
			t.Fatalf("workers=%d: refused program is being served", workers)
		}
		if err.Error() != want.Error() {
			t.Errorf("workers=%d: error %q, want the compile error %q", workers, err, want)
		}
		ua, _ := net.ResolveUDPAddr("udp", addr)
		again, err := net.ListenUDP("udp", ua)
		if err != nil {
			t.Fatalf("workers=%d: socket left open: %v", workers, err)
		}
		again.Close()
	}
}
