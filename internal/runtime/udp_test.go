package runtime

import (
	"testing"
	"time"

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
