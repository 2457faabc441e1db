package netcl

// End-to-end tests of NetCL features beyond the headline applications:
// multi-device computation chains (send_to_device), reflect_long,
// multiple computations on one device, runtime cache eviction through
// managed lookup memory, and ncl::rand.

import (
	"testing"

	"netcl/internal/netsim"
	"netcl/internal/p4"
	"netcl/internal/runtime"
	"netcl/internal/wire"
)

// buildChain compiles a program for a device and returns its netsim
// pieces.
func compileFor(t *testing.T, src string, dev uint16, defs map[string]uint64) (*p4.Program, map[uint8]*MessageSpec) {
	t.Helper()
	art, err := Compile("feat", src, Options{Target: TargetTNA, Devices: []uint16{dev}, Defines: defs})
	if err != nil {
		t.Fatal(err)
	}
	return art.Device(dev).P4, art.Specs
}

// TestSendToDeviceChain reproduces the paper's Figure 5 circle
// computation: h1 sends through dev2, which computes and forwards the
// message to dev3 with send_to_device; dev3 computes and passes it on
// to the destination host h4. Intermediate transit is a no-op
// (no-implicit-computation).
func TestSendToDeviceChain(t *testing.T) {
	const src = `
#define STAGE1 2
#define STAGE2 3

_at(STAGE1) _kernel(1) void first(unsigned &x, uint16_t &via) {
  x = x + 100;
  via = msg.from;
  return ncl::send_to_device(STAGE2);
}
_at(STAGE2) _kernel(1) void second(unsigned &x, uint16_t &via) {
  x = x * 2;
  via = msg.from;
  return ncl::pass();
}
`
	n := netsim.NewNetwork()
	prog2, specs := compileFor(t, src, 2, nil)
	prog3, _ := compileFor(t, src, 3, nil)
	spec := specs[1]

	h1 := n.AddHost(100)
	h4 := n.AddHost(104)
	d2 := n.AddDevice(2, prog2)
	d3 := n.AddDevice(3, prog3)
	n.Connect(h1, d2, 1)
	n.ConnectDevices(d2, 2, d3, 1)
	n.Connect(h4, d3, 2)
	if err := n.AutoWire(); err != nil {
		t.Fatal(err)
	}

	var gotX, gotVia uint64
	var gotHdr wire.Header
	h4.SetReceive(func(h *netsim.Host, msg []byte) {
		x := make([]uint64, 1)
		via := make([]uint64, 1)
		hdr, err := runtime.UnpackInto(spec, msg, [][]uint64{x, via})
		if err != nil {
			t.Error(err)
			return
		}
		gotX, gotVia, gotHdr = x[0], via[0], hdr
	})
	msg, err := Pack(spec, Message{Src: 100, Dst: 104, Device: 2, Comp: 1}.Header(),
		[][]uint64{{5}, nil})
	if err != nil {
		t.Fatal(err)
	}
	h1.Send(msg)
	if err := n.RunAll(); err != nil {
		t.Fatal(err)
	}
	// (5+100)*2 = 210: both kernels ran, in order.
	if gotX != 210 {
		t.Errorf("x = %d, want 210", gotX)
	}
	// At dev3, the previous hop was device 2 (§IV).
	if gotVia != 2 {
		t.Errorf("msg.from at second hop = %d, want 2", gotVia)
	}
	if gotHdr.From != 3 {
		t.Errorf("final from = %d, want 3 (last computing device)", gotHdr.From)
	}
}

// TestReflectLongFromChain checks reflect_long: the second device
// returns the message to the SOURCE HOST, not the previous device.
func TestReflectLongFromChain(t *testing.T) {
	const src = `
_at(2) _kernel(1) void a(unsigned &x) { x = x + 1; return ncl::send_to_device(3); }
_at(3) _kernel(1) void b(unsigned &x) { x = x + 10; return ncl::reflect_long(); }
`
	n := netsim.NewNetwork()
	prog2, specs := compileFor(t, src, 2, nil)
	prog3, _ := compileFor(t, src, 3, nil)
	spec := specs[1]
	h1 := n.AddHost(100)
	h9 := n.AddHost(109)
	d2 := n.AddDevice(2, prog2)
	d3 := n.AddDevice(3, prog3)
	n.Connect(h1, d2, 1)
	n.ConnectDevices(d2, 2, d3, 1)
	n.Connect(h9, d3, 2)
	if err := n.AutoWire(); err != nil {
		t.Fatal(err)
	}
	got := uint64(0)
	h1.SetReceive(func(h *netsim.Host, msg []byte) {
		x := make([]uint64, 1)
		if _, err := runtime.UnpackInto(spec, msg, [][]uint64{x}); err == nil {
			got = x[0]
		}
	})
	wrong := false
	h9.SetReceive(func(h *netsim.Host, msg []byte) { wrong = true })
	msg, _ := Pack(spec, Message{Src: 100, Dst: 109, Device: 2, Comp: 1}.Header(), [][]uint64{{1}})
	h1.Send(msg)
	if err := n.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Errorf("reflect_long result = %d, want 12", got)
	}
	if wrong {
		t.Error("message must return to the source host, not continue to dst")
	}
}

// TestMultipleComputationsOneDevice runs two computations on one
// switch, checking dispatch and per-computation message layouts.
func TestMultipleComputationsOneDevice(t *testing.T) {
	const src = `
_net_ unsigned Counter;
_kernel(1) void bump(unsigned &n) {
  n = ncl::atomic_add_new(&Counter, 1);
  return ncl::reflect();
}
_kernel(2) void peek(unsigned &n, uint8_t &flag) {
  n = ncl::atomic_read(&Counter);
  flag = 1;
  return ncl::reflect();
}
`
	art, err := Compile("multi", src, Options{Target: TargetTNA})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitch(art.Devices[0].P4)
	route(t, sw, map[uint64]uint64{1: 1})
	send := func(comp uint8, args [][]uint64, spec *MessageSpec) [][]uint64 {
		msg, err := Pack(spec, Message{Src: 1, Dst: 2, Device: 1, Comp: comp}.Header(), args)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sw.Process(runtime.Frame(msg, 1, 2), 1)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := runtime.Deframe(res.Data)
		vals := make([][]uint64, len(spec.Args))
		for i, a := range spec.Args {
			vals[i] = make([]uint64, a.Count)
		}
		if _, err := runtime.UnpackInto(spec, out, vals); err != nil {
			t.Fatal(err)
		}
		return vals
	}
	for want := uint64(1); want <= 3; want++ {
		got := send(1, [][]uint64{nil}, art.Specs[1])
		if got[0][0] != want {
			t.Errorf("bump %d: got %d", want, got[0][0])
		}
	}
	got := send(2, [][]uint64{nil, nil}, art.Specs[2])
	if got[0][0] != 3 || got[1][0] != 1 {
		t.Errorf("peek: n=%d flag=%d", got[0][0], got[1][0])
	}
}

// TestCacheEvictionAtRuntime exercises the NetCache controller loop
// the paper describes (§II: "modifying MATs, such as for cache
// eviction, is done via the control plane"): insert a key, observe
// hits, evict it, observe misses.
func TestCacheEvictionAtRuntime(t *testing.T) {
	app := AppByName("CACHE")
	art, err := Compile("cache", app.NetCL, Options{
		Target: TargetTNA, Defines: app.Defines, Devices: []uint16{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitch(art.Device(1).P4)
	route(t, sw, map[uint64]uint64{1: 1, 2: 2})
	conn := Connect(DirectControlPlane(sw), art.Device(1))

	// Controller installs key 7 at cache line 3 with full word share.
	if err := conn.LookupInsert("Index", 7, 3); err != nil {
		t.Fatal(err)
	}
	if err := conn.LookupInsert("Share", 7, 0xFFFF); err != nil {
		t.Fatal(err)
	}
	if err := conn.ManagedWrite("Valid", []int{3}, 1); err != nil {
		t.Fatal(err)
	}
	if err := conn.ManagedWrite("Vals", []int{0, 3}, 777); err != nil {
		t.Fatal(err)
	}

	spec := art.Specs[1]
	get := func() (hit uint64, v0 uint64) {
		msg, err := Pack(spec, Message{Src: 1, Dst: 2, Device: 1, Comp: 1}.Header(),
			[][]uint64{{1}, {7}, nil, nil, nil})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sw.Process(runtime.Frame(msg, 1, 2), 1)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := runtime.Deframe(res.Data)
		val := make([]uint64, spec.Args[2].Count)
		h := make([]uint64, 1)
		if _, err := runtime.UnpackInto(spec, out, [][]uint64{nil, nil, val, h, nil}); err != nil {
			t.Fatal(err)
		}
		return h[0], val[0]
	}
	if hit, v0 := get(); hit != 1 || v0 != 777 {
		t.Fatalf("pre-eviction GET: hit=%d v0=%d", hit, v0)
	}
	// Hit counter advanced (observable via managed_read).
	hits, err := conn.ManagedRead("HitCount", []int{3})
	if err != nil || hits != 1 {
		t.Fatalf("hit counter: %d %v", hits, err)
	}

	// Controller evicts the key.
	if _, err := conn.LookupDelete("Index", 7); err != nil {
		t.Fatal(err)
	}
	if hit, _ := get(); hit != 0 {
		t.Error("post-eviction GET should miss")
	}
}

// TestRandIsDeterministicPerSwitch checks ncl::rand compiles and
// produces values within the requested width, deterministically for a
// given switch instance.
func TestRandIsDeterministicPerSwitch(t *testing.T) {
	const src = `
_kernel(1) void k(uint8_t &r) {
  r = ncl::rand<u8>();
  return ncl::reflect();
}
`
	run := func() []uint64 {
		art, err := Compile("rand", src, Options{Target: TargetTNA})
		if err != nil {
			t.Fatal(err)
		}
		sw := NewSwitch(art.Devices[0].P4)
		route(t, sw, map[uint64]uint64{1: 1})
		spec := art.Specs[1]
		var out []uint64
		for i := 0; i < 4; i++ {
			msg, _ := Pack(spec, Message{Src: 1, Dst: 2, Device: 1, Comp: 1}.Header(), [][]uint64{nil})
			res, err := sw.Process(runtime.Frame(msg, 1, 2), 1)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := runtime.Deframe(res.Data)
			r := make([]uint64, 1)
			if _, err := runtime.UnpackInto(spec, raw, [][]uint64{r}); err != nil {
				t.Fatal(err)
			}
			if r[0] > 0xFF {
				t.Fatalf("rand<u8> out of range: %d", r[0])
			}
			out = append(out, r[0])
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("rand not deterministic per fresh switch: %v vs %v", a, b)
		}
	}
}

// TestSPMDMultiLocationKernel places ONE kernel at two devices and
// branches on device.id (the §V-C SPMD style): each copy behaves
// differently, and device.id is materialized at compile time.
func TestSPMDMultiLocationKernel(t *testing.T) {
	const src = `
_at(1,2) _net_ unsigned Seen;
_at(1,2) _kernel(1) void spmd(unsigned &x, uint16_t &who) {
  ncl::atomic_inc(&Seen);
  who = device.id;
  if (device.id == 1) x = x + 1000;
  else                x = x + 2000;
  return ncl::reflect();
}
`
	for dev, delta := range map[uint16]uint64{1: 1000, 2: 2000} {
		prog, specs := compileFor(t, src, dev, nil)
		spec := specs[1]
		sw := NewSwitch(prog)
		route(t, sw, map[uint64]uint64{9: 1})
		msg, _ := Pack(spec, Message{Src: 9, Dst: 9, Device: dev, Comp: 1}.Header(), [][]uint64{{5}, nil})
		res, err := sw.Process(runtime.Frame(msg, 1, 2), 1)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := runtime.Deframe(res.Data)
		x := make([]uint64, 1)
		who := make([]uint64, 1)
		if _, err := runtime.UnpackInto(spec, raw, [][]uint64{x, who}); err != nil {
			t.Fatal(err)
		}
		if x[0] != 5+delta || who[0] != uint64(dev) {
			t.Errorf("device %d: x=%d who=%d", dev, x[0], who[0])
		}
		// Per-device memory copies are independent (§V-C): each switch
		// has its own Seen register.
		v, err := sw.RegisterRead("reg_Seen", 0)
		if err != nil || v != 1 {
			t.Errorf("device %d: Seen=%d %v", dev, v, err)
		}
	}
}

// TestManagedThresholdReconfiguration mirrors the paper's §V-B
// example: a _managed_ threshold variable is reconfigured from host
// code through the control plane, changing device behavior without
// recompilation or extra messages.
func TestManagedThresholdReconfiguration(t *testing.T) {
	const src = `
_managed_ unsigned thresh;
_net_ unsigned Count;
_kernel(1) void watch(unsigned v, uint8_t &alarm) {
  unsigned c = ncl::atomic_add_new(&Count, v);
  unsigned lim = ncl::atomic_read(&thresh);
  if (c > lim) alarm = 1;
  return ncl::reflect();
}
`
	art, err := Compile("thresh", src, Options{Target: TargetTNA})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwitch(art.Devices[0].P4)
	route(t, sw, map[uint64]uint64{1: 1})
	conn := Connect(DirectControlPlane(sw), art.Devices[0])
	// The paper's listing: ncl::managed_write(c, &thresh, 512).
	if err := conn.ManagedWrite("thresh", nil, 512); err != nil {
		t.Fatal(err)
	}
	spec := art.Specs[1]
	send := func(v uint64) uint64 {
		msg, err := Pack(spec, Message{Src: 1, Dst: 2, Device: 1, Comp: 1}.Header(),
			[][]uint64{{v}, nil})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sw.Process(runtime.Frame(msg, 1, 2), 1)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := runtime.Deframe(res.Data)
		alarm := make([]uint64, 1)
		if _, err := runtime.UnpackInto(spec, raw, [][]uint64{nil, alarm}); err != nil {
			t.Fatal(err)
		}
		return alarm[0]
	}
	if send(100) != 0 { // count 100 <= 512
		t.Error("below threshold should not alarm")
	}
	if send(500) != 1 { // count 600 > 512
		t.Error("above threshold should alarm")
	}
	// Host raises the threshold at runtime; alarms stop.
	if err := conn.ManagedWrite("thresh", nil, 1000000); err != nil {
		t.Fatal(err)
	}
	if send(10) != 0 {
		t.Error("raised threshold should silence the alarm")
	}
	// And reads back (ncl::managed_read).
	v, err := conn.ManagedRead("thresh", nil)
	if err != nil || v != 1000000 {
		t.Errorf("managed_read: %d %v", v, err)
	}
}

// TestPerDeviceManagedCopies mirrors the §V-C example: a multi-located
// _managed_ variable has an independent copy per device; writes through
// one device's connection do not affect the other (no consistency
// guarantees between copies).
func TestPerDeviceManagedCopies(t *testing.T) {
	const src = `
_net_ _managed_ _at(1,2) unsigned m;
_kernel(1) _at(1,2) void k(unsigned &x) {
  x = ncl::atomic_read(&m);
  return ncl::reflect();
}
`
	art, err := Compile("copies", src, Options{Target: TargetTNA})
	if err != nil {
		t.Fatal(err)
	}
	sw1 := NewSwitch(art.Device(1).P4)
	sw2 := NewSwitch(art.Device(2).P4)
	dev1 := Connect(DirectControlPlane(sw1), art.Device(1))
	dev2 := Connect(DirectControlPlane(sw2), art.Device(2))
	// The paper's sequence: write 1 via dev1, 2 via dev2, read dev1.
	if err := dev1.ManagedWrite("m", nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := dev2.ManagedWrite("m", nil, 2); err != nil {
		t.Fatal(err)
	}
	a, err := dev1.ManagedRead("m", nil)
	if err != nil || a != 1 {
		t.Errorf("dev1 copy: %d %v (want 1)", a, err)
	}
	b, _ := dev2.ManagedRead("m", nil)
	if b != 2 {
		t.Errorf("dev2 copy: %d (want 2)", b)
	}
}
