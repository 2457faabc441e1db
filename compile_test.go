package netcl

import (
	"strings"
	"testing"

	"netcl/internal/apps"
	"netcl/internal/bmv2"
	"netcl/internal/p4c"
	"netcl/internal/runtime"
	"netcl/internal/wire"
)

// fig4 is the paper's Figure 4 (in-network cache) with a tiny CMS
// threshold so tests can exercise the hot-key path quickly.
const fig4 = `
#define CMS_HASHES 3
#define THRESH 3
#define GET_REQ 1

_managed_ unsigned cms[CMS_HASHES][4096];

_net_ void sketch(unsigned k, unsigned &hot) {
  unsigned c[CMS_HASHES];
  c[0] = ncl::atomic_sadd_new(&cms[0][ncl::xor16(k) & 0xFFF], 1);
  c[1] = ncl::atomic_sadd_new(&cms[1][ncl::crc32<16>(k) & 0xFFF], 1);
  c[2] = ncl::atomic_sadd_new(&cms[2][ncl::crc16(k) & 0xFFF], 1);
  for (auto i = 1; i < CMS_HASHES; ++i)
    if (c[i] < c[0]) c[0] = c[i];
  hot = c[0] > THRESH ? c[0] : 0;
}

_net_ _lookup_ ncl::kv<unsigned, unsigned> cache[] = {{1,42}, {2,43},
                                                      {3,44}, {4,45}};

_kernel(1) _at(1) void query(char op, unsigned k, unsigned &v,
                             char &hit, unsigned &hot) {
  if (op == GET_REQ) {
    hit = ncl::lookup(cache, k, v);
    return hit ? ncl::reflect() : sketch(k, hot);
  }
}
`

// sendNetCL packs a message, frames it, runs it through the switch,
// and unpacks the (possibly forwarded) result.
func sendNetCL(t *testing.T, sw *bmv2.Switch, spec *runtime.MessageSpec, hdr wire.Header, args [][]uint64) (*bmv2.Result, wire.Header, [][]uint64) {
	t.Helper()
	msg, err := runtime.Pack(spec, hdr, args)
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	pkt := runtime.Frame(msg, 0x0a0a0a, 0x0b0b0b)
	res, err := sw.Process(pkt, 1)
	if err != nil {
		t.Fatalf("process: %v", err)
	}
	if res.Dropped {
		return res, wire.Header{}, nil
	}
	out, ok := runtime.Deframe(res.Data)
	if !ok {
		t.Fatalf("output is not a NetCL frame")
	}
	outArgs := make([][]uint64, len(spec.Args))
	for i, a := range spec.Args {
		outArgs[i] = make([]uint64, a.Count)
	}
	outHdr, err := runtime.UnpackInto(spec, out, outArgs)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	return res, outHdr, outArgs
}

func compileFig4(t *testing.T, target Target) (*Artifact, *bmv2.Switch) {
	t.Helper()
	art, err := Compile("cache", fig4, Options{Target: target})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	dev := art.Device(1)
	if dev == nil {
		t.Fatal("no artifact for device 1")
	}
	if _, err := dev.P4.Validate(); err != nil {
		t.Fatalf("p4 validate: %v", err)
	}
	sw := bmv2.New(dev.P4)
	// Operator configuration: next hops for host 1 (client, port 1)
	// and host 2 (the KVS server, port 2).
	route(t, sw, map[uint64]uint64{1: 1, 2: 2})
	return art, sw
}

func testCacheSemantics(t *testing.T, target Target) {
	art, sw := compileFig4(t, target)
	spec := art.Specs[1]
	if spec.String() != "[1,1,1,1,1][u8,u32,u32,u8,u32]" {
		t.Fatalf("spec: %s", spec)
	}
	mkHdr := func() wire.Header {
		return runtime.Message{Src: 1, Dst: 2, Device: 1, Comp: 1}.Header()
	}

	// GET of a cached key reflects back to the client with the value.
	res, hdr, out := sendNetCL(t, sw, spec, mkHdr(), [][]uint64{{1}, {2}, nil, nil, nil})
	if res.Dropped {
		t.Fatal("hit was dropped")
	}
	if hdr.Act != wire.ActReflect {
		t.Fatalf("hit action: %s", wire.ActionName(int(hdr.Act)))
	}
	if out[3][0] != 1 || out[2][0] != 43 {
		t.Fatalf("hit=%d v=%d, want 1/43", out[3][0], out[2][0])
	}
	if hdr.Dst != 1 || res.Port != 1 {
		t.Fatalf("reflected to dst=%d port=%d, want host 1 port 1", hdr.Dst, res.Port)
	}

	// GET of an uncached key passes through to the server.
	res, hdr, out = sendNetCL(t, sw, spec, mkHdr(), [][]uint64{{1}, {99}, nil, nil, nil})
	if hdr.Act != wire.ActPass || res.Port != 2 {
		t.Fatalf("miss: act=%s port=%d, want pass/2", wire.ActionName(int(hdr.Act)), res.Port)
	}
	if out[3][0] != 0 {
		t.Fatalf("miss reported hit=1")
	}
	if out[4][0] != 0 {
		t.Fatalf("first miss should not be hot, hot=%d", out[4][0])
	}

	// After enough misses the count-min sketch marks the key hot.
	var hot uint64
	for i := 0; i < 5; i++ {
		_, _, out = sendNetCL(t, sw, spec, mkHdr(), [][]uint64{{1}, {99}, nil, nil, nil})
		hot = out[4][0]
	}
	if hot <= 3 {
		t.Fatalf("key should be hot after 6 misses, hot=%d", hot)
	}

	// A non-GET op takes the implicit pass() and is not looked up.
	_, hdr, out = sendNetCL(t, sw, spec, mkHdr(), [][]uint64{{7}, {2}, nil, nil, nil})
	if hdr.Act != wire.ActPass || out[3][0] != 0 {
		t.Fatalf("non-GET: act=%s hit=%d", wire.ActionName(int(hdr.Act)), out[3][0])
	}
}

func TestCacheSemanticsTNA(t *testing.T)     { testCacheSemantics(t, TargetTNA) }
func TestCacheSemanticsV1Model(t *testing.T) { testCacheSemantics(t, TargetV1Model) }

// route installs one netcl_fwd entry per host ID, sending it to a port.
func route(t *testing.T, sw *Switch, ports map[uint64]uint64) {
	t.Helper()
	b := NewWriteBatch()
	for host, port := range ports {
		b.Insert("netcl_fwd", &TableEntry{Keys: []KeyValue{{Value: host}}, Action: &ActionCall{Name: "set_port", Args: []uint64{port}}})
	}
	if _, err := sw.Write(b); err != nil {
		t.Fatal(err)
	}
}

func TestManagedMemoryControlPlane(t *testing.T) {
	art, sw := compileFig4(t, TargetTNA)
	_ = art
	// cms is managed and partitioned per hash row: reg_cms__0 exists.
	if sw.RegisterSize("reg_cms__0") != 4096 {
		t.Fatalf("reg_cms__0 size: %d", sw.RegisterSize("reg_cms__0"))
	}
	if _, err := sw.Write(NewWriteBatch().RegisterWrite("reg_cms__0", 7, 123)); err != nil {
		t.Fatal(err)
	}
	v, err := sw.RegisterRead("reg_cms__0", 7)
	if err != nil || v != 123 {
		t.Fatalf("read back %d, %v", v, err)
	}
}

// fig7 with small sizes for the AllReduce end-to-end test.
const fig7 = `
#define NUM_SLOTS 8
#define SLOT_SIZE 4
#define NUM_WORKERS 3

_net_ uint16_t Bitmap[2][NUM_SLOTS];
_net_ uint32_t Agg[SLOT_SIZE][NUM_SLOTS * 2];
_net_ uint8_t Count[NUM_SLOTS * 2];

_kernel(1) void allreduce( uint8_t ver, uint16_t bmp_idx,
                           uint16_t agg_idx, uint16_t mask,
                           uint32_t _spec(SLOT_SIZE) *v) {
  uint16_t bitmap;
  if (ver == 0) {
    bitmap = ncl::atomic_or(&Bitmap[0][bmp_idx], mask);
    ncl::atomic_and(&Bitmap[1][bmp_idx], ~mask);
  } else {
    ncl::atomic_and(&Bitmap[0][bmp_idx], ~mask);
    bitmap = ncl::atomic_or(&Bitmap[1][bmp_idx], mask);
  }

  if (bitmap == 0) {
    for (auto i = 0; i < SLOT_SIZE; ++i)
      Agg[i][agg_idx] = v[i];
    Count[agg_idx] = NUM_WORKERS - 1;
  } else {
    auto seen = bitmap & mask;
    for (auto i = 0; i < SLOT_SIZE; ++i)
      v[i] = ncl::atomic_cond_add_new(&Agg[i][agg_idx], !seen, v[i]);

    auto cnt = ncl::atomic_cond_dec(&Count[agg_idx], !seen);
    if (cnt == 0)
      return ncl::reflect();
    if (cnt == 1)
      return ncl::multicast(42);
  }
  return ncl::drop();
}
`

func testAllReduce(t *testing.T, target Target) {
	art, err := Compile("agg", fig7, Options{Target: target, Devices: []uint16{1}})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	dev := art.Device(1)
	sw := bmv2.New(dev.P4)
	spec := art.Specs[1]
	// Operator configuration: worker hosts 10-12 on ports 1-3, the
	// nominal destination host 100 on port 9.
	route(t, sw, map[uint64]uint64{10: 1, 11: 2, 12: 3, 100: 9})

	send := func(worker int, ver, slot uint64, vals []uint64) (*bmv2.Result, wire.Header, [][]uint64) {
		hdr := runtime.Message{Src: uint16(10 + worker), Dst: 100, Device: 1, Comp: 1}.Header()
		aggIdx := slot + ver*8
		return sendNetCL(t, sw, spec, hdr, [][]uint64{
			{ver}, {slot}, {aggIdx}, {1 << uint(worker)}, vals,
		})
	}

	// Workers 0 and 1 contribute to slot 0, version 0: both dropped.
	res, _, _ := send(0, 0, 0, []uint64{1, 2, 3, 4})
	if !res.Dropped {
		t.Fatal("first contribution should be dropped")
	}
	res, _, _ = send(1, 0, 0, []uint64{10, 20, 30, 40})
	if !res.Dropped {
		t.Fatal("second contribution should be dropped")
	}
	// Worker 2 completes the slot: multicast with the aggregated sums.
	res, hdr, out := send(2, 0, 0, []uint64{100, 200, 300, 400})
	if res.Dropped {
		t.Fatal("final contribution should not be dropped")
	}
	if hdr.Act != wire.ActMulticast || res.Mcast != 42 {
		t.Fatalf("completion: act=%s mcast=%d", wire.ActionName(int(hdr.Act)), res.Mcast)
	}
	want := []uint64{111, 222, 333, 444}
	for i, w := range want {
		if out[4][i] != w {
			t.Errorf("aggregate[%d] = %d, want %d", i, out[4][i], w)
		}
	}

	// Retransmission from worker 2 after completion: the slot count is
	// 0 and the worker is in the bitmap, so the result is reflected
	// back with the stored aggregate.
	res, hdr, out = send(2, 0, 0, []uint64{100, 200, 300, 400})
	if res.Dropped || hdr.Act != wire.ActReflect {
		t.Fatalf("retransmission: dropped=%v act=%s", res.Dropped, wire.ActionName(int(hdr.Act)))
	}
	for i, w := range want {
		if out[4][i] != w {
			t.Errorf("retransmitted aggregate[%d] = %d, want %d", i, out[4][i], w)
		}
	}
	if hdr.Dst != 12 {
		t.Errorf("reflect should target worker host 12, got %d", hdr.Dst)
	}
}

func TestAllReduceTNA(t *testing.T)     { testAllReduce(t, TargetTNA) }
func TestAllReduceV1Model(t *testing.T) { testAllReduce(t, TargetV1Model) }

func TestGeneratedSourceShape(t *testing.T) {
	art, _ := compileFig4(t, TargetTNA)
	src := art.Device(1).Source
	for _, want := range []string{
		"RegisterAction", "Register<", "Hash<", "const entries",
		"parse_netcl", "table lu_cache", "Pipeline(", "Switch(pipe) main;",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated TNA source missing %q", want)
		}
	}
	artV1, err := Compile("cache", fig4, Options{Target: TargetV1Model})
	if err != nil {
		t.Fatal(err)
	}
	srcV1 := artV1.Device(1).Source
	for _, want := range []string{"register<", "V1Switch(", ".read(", ".write("} {
		if !strings.Contains(srcV1, want) {
			t.Errorf("generated v1model source missing %q", want)
		}
	}
	if strings.Contains(srcV1, "RegisterAction") {
		t.Error("v1model source must not contain TNA RegisterActions")
	}
}

func TestCompileTimeSplit(t *testing.T) {
	art, _ := compileFig4(t, TargetTNA)
	if art.FrontendTime <= 0 || art.BackendTime <= 0 {
		t.Errorf("times not measured: %v %v", art.FrontendTime, art.BackendTime)
	}
}

func TestMultiDeviceCompile(t *testing.T) {
	src := `
_at(10) _net_ uint32_t A;
_at(20) _net_ uint32_t B;
_at(10) _kernel(1) void ka(uint32_t &x) { x = ncl::atomic_add(&A, 1); }
_at(20) _kernel(1) void kb(uint32_t &x) { x = ncl::atomic_add(&B, 2); }
`
	art, err := Compile("pair", src, Options{Target: TargetTNA})
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Devices) != 2 {
		t.Fatalf("devices: %d", len(art.Devices))
	}
	if art.Device(10) == nil || art.Device(20) == nil {
		t.Fatal("missing device artifacts")
	}
	if !strings.Contains(art.Device(10).Source, "reg_A") ||
		strings.Contains(art.Device(10).Source, "reg_B") {
		t.Error("device 10 should only contain A")
	}
}

// TestCompileDeterministic: compiling the same source again gives the
// same P4 text. Each registry app is compiled 20 times per target.
func TestCompileDeterministic(t *testing.T) {
	for _, app := range apps.All() {
		for _, target := range []Target{TargetTNA, TargetV1Model} {
			var want []string
			for run := 0; run < 20; run++ {
				art, err := Compile(app.Name, app.NetCL, Options{Target: target, Defines: app.Defines})
				if err != nil {
					t.Fatalf("%s/%s: %v", app.Name, target, err)
				}
				for n, d := range art.Devices {
					if run == 0 {
						want = append(want, d.Source)
					} else if d.Source != want[n] {
						t.Fatalf("%s/%s device %d: run %d printed different P4 than run 0", app.Name, target, d.DeviceID, run)
					}
				}
			}
		}
	}
}

func TestAppsFitTofino(t *testing.T) {
	// Both paper applications must fit a 12-stage Tofino pipe, with
	// per-packet latency below 1 microsecond (paper Fig. 13 / Table V).
	for _, src := range []struct{ name, s string }{{"cache", fig4}, {"agg", fig7}} {
		art, err := Compile(src.name, src.s, Options{Target: TargetTNA, Devices: []uint16{1}})
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		rep := p4c.Fit(art.Device(1).P4, p4c.Tofino1())
		if !rep.Fits {
			t.Errorf("%s does not fit: %s", src.name, rep.Reason)
		}
		if rep.StagesUsed > 12 || rep.StagesUsed < 2 {
			t.Errorf("%s: implausible stage count %d", src.name, rep.StagesUsed)
		}
		if rep.LatencyNs >= 1000 {
			t.Errorf("%s: latency %.0fns not below 1us", src.name, rep.LatencyNs)
		}
		if rep.SALUs == 0 {
			t.Errorf("%s: no SALUs accounted", src.name)
		}
	}
}
