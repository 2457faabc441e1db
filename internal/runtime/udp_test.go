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

// TestUDPDeviceEndToEnd runs the full UDP backend on loopback: a host
// sends a NetCL message to a device process, the kernel bumps a
// managed counter and reflects, and the host unpacks the reply — the
// Figure 6 workflow over real sockets.
func TestUDPDeviceEndToEnd(t *testing.T) {
	prog, mod, err := testutil.CompileOne(testutil.CounterKernel, passes.TargetTNA, 5)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ServeDevice(DeviceConfig{ID: 5, Addr: "127.0.0.1:0", Prog: prog})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	host, err := Dial(DialConfig{ID: 1, Local: "127.0.0.1:0", Device: dev.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	if err := dev.SetNodeAddr(1, host.Addr()); err != nil {
		t.Fatal(err)
	}

	spec := &MessageSpec{Comp: 1, Args: []ArgSpec{
		{Name: "slot", Bytes: 4, Count: 1},
		{Name: "count", Bytes: 4, Count: 1, Out: true},
	}}
	for want := uint64(1); want <= 3; want++ {
		err := host.SendMessage(spec, Message{Src: 1, Dst: 2, Device: 5, Comp: 1},
			[][]uint64{{7}, nil})
		if err != nil {
			t.Fatal(err)
		}
		count := make([]uint64, 1)
		hdr, err := host.RecvMessage(spec, [][]uint64{nil, count}, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Act != wire.ActReflect || count[0] != want {
			t.Fatalf("reply %d: act=%s count=%d", want, wire.ActionName(int(hdr.Act)), count[0])
		}
	}

	// Managed memory over the device's control-plane interface.
	conn := &DeviceConnection{CP: dev, Mems: mod.Mems}
	v, err := conn.ManagedRead("hits", []int{7})
	if err != nil || v != 3 {
		t.Fatalf("managed read: %d %v", v, err)
	}
	if err := conn.ManagedWrite("hits", []int{7}, 0); err != nil {
		t.Fatal(err)
	}
	v, _ = conn.ManagedRead("hits", []int{7})
	if v != 0 {
		t.Fatalf("managed reset failed: %d", v)
	}
}

// TestUDPDeviceConcurrentHosts: hosts on four sockets hammer disjoint
// counter slots of one device while the control plane reads registers
// mid-traffic. Per-slot counts must come out exact, and every message
// must be processed once: the receive loop and control-plane calls
// stay ordered under load.
func TestUDPDeviceConcurrentHosts(t *testing.T) {
	prog, mod, err := testutil.CompileOne(testutil.CounterKernel, passes.TargetTNA, 5)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ServeDevice(DeviceConfig{ID: 5, Addr: "127.0.0.1:0", Prog: prog})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

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

	// Control-plane reads while traffic is in flight.
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
		t.Errorf("processed %d, want %d", st.Processed, hosts*perHost)
	}
}

// TestServeDeviceRefusedProgram: a program the switch compiler refuses
// is ServeDevice's error, and no socket stays bound to its address.
func TestServeDeviceRefusedProgram(t *testing.T) {
	prog := &p4.Program{Name: "noparser", Ingress: &p4.Control{Name: "In"}}
	want := bmv2.New(prog).CompileErr()
	if want == nil {
		t.Fatal("a program without a parser compiled")
	}
	// A free port with a name, so the test can bind it again.
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.LocalAddr().String()
	probe.Close()

	dev, err := ServeDevice(DeviceConfig{ID: 5, Addr: addr, Prog: prog})
	if err == nil {
		dev.Close()
		t.Fatal("refused program is being served")
	}
	if err.Error() != want.Error() {
		t.Errorf("error %q, want the compile error %q", err, want)
	}
	ua, _ := net.ResolveUDPAddr("udp", addr)
	again, err := net.ListenUDP("udp", ua)
	if err != nil {
		t.Fatalf("socket left open: %v", err)
	}
	again.Close()
}
