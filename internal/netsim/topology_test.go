package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"netcl/internal/p4"
	"netcl/internal/passes"
	"netcl/internal/runtime"
	"netcl/internal/testutil"
)

// buildLS builds a 2-leaf/2-spine fabric with echo programs and two
// hosts (100 on leaf 1, 200 on leaf 2), routed with the given options.
func buildLS(t *testing.T, opts RouteOptions) (*Network, *Topo, *runtime.MessageSpec) {
	t.Helper()
	prog := func(i int, id uint16) *p4.Program {
		p, _, err := testutil.CompileOne(testutil.EchoKernel, passes.TargetTNA, id)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	n := NewNetwork()
	topo, err := BuildLeafSpine(n, LeafSpineSpec{
		LeafIDs: []uint16{1, 2}, SpineIDs: []uint16{10, 11},
		LeafProg: prog, SpineProg: prog,
	})
	if err != nil {
		t.Fatal(err)
	}
	h1 := n.AddHost(100)
	h2 := n.AddHost(200)
	topo.AttachHost(h1, topo.Tiers[0][0], LinkClass{})
	topo.AttachHost(h2, topo.Tiers[0][1], LinkClass{})
	if err := topo.InstallRoutes(opts); err != nil {
		t.Fatal(err)
	}
	spec := &runtime.MessageSpec{Comp: 1, Args: []runtime.ArgSpec{{Name: "x", Bytes: 4, Count: 1, Out: true}}}
	return n, topo, spec
}

// transitFrame builds a framed NetCL packet from src toward device dev
// / host dst, as a leaf sees it in transit.
func transitFrame(t *testing.T, spec *runtime.MessageSpec, src, dst, dev uint16) []byte {
	t.Helper()
	msg, err := runtime.Pack(spec, runtime.Message{Src: src, Dst: dst, Device: dev, Comp: 1}.Header(), [][]uint64{{7}})
	if err != nil {
		t.Fatal(err)
	}
	return runtime.Frame(msg, uint64(src), 0)
}

func TestECMPFlowHashStability(t *testing.T) {
	_, topo, spec := buildLS(t, RouteOptions{ECMP: true, HostRoutes: true})
	leaf := topo.Tiers[0][0]
	up0 := topo.PortTo(leaf, topo.Tiers[1][0])
	up1 := topo.PortTo(leaf, topo.Tiers[1][1])
	if up0 < 0 || up1 < 0 {
		t.Fatalf("leaf uplink ports: %d %d", up0, up1)
	}

	// Same flow, repeated: always the same uplink.
	used := map[int]bool{}
	for src := uint16(0); src < 64; src++ {
		frame := transitFrame(t, spec, 1000+src, 200, 2)
		var first int
		for rep := 0; rep < 3; rep++ {
			res, err := leaf.SW.Process(frame, 9)
			if err != nil {
				t.Fatal(err)
			}
			if res.Dropped {
				t.Fatalf("src %d: transit packet dropped", src)
			}
			if res.Port != up0 && res.Port != up1 {
				t.Fatalf("src %d: egress port %d is not an uplink (%d/%d)", src, res.Port, up0, up1)
			}
			if rep == 0 {
				first = res.Port
			} else if res.Port != first {
				t.Fatalf("src %d: flow moved uplinks %d → %d across repeats", src, first, res.Port)
			}
		}
		used[first] = true
	}
	// Across 64 distinct flows the hash must actually spread.
	if len(used) < 2 {
		t.Fatalf("64 flows all hashed to one uplink: %v", used)
	}
}

// entriesOf snapshots every routing table of every fabric device.
func entriesOf(topo *Topo) map[string][][]string {
	out := map[string][][]string{}
	for _, d := range topo.Devices() {
		for _, tab := range []string{"netcl_fwd", "netcl_ecmp"} {
			var rows []string
			for _, e := range d.SW.Entries(tab) {
				rows = append(rows, fmt.Sprintf("%v->%s%v", e.Keys, e.Action.Name, e.Action.Args))
			}
			out[fmt.Sprintf("dev%d/%s", d.ID, tab)] = append(out[fmt.Sprintf("dev%d/%s", d.ID, tab)], rows)
		}
	}
	return out
}

func TestTopologyRebuildDeterminism(t *testing.T) {
	// Building the same fabric twice must yield identical tables entry
	// for entry — the equal-cost tie-break determinism contract — both
	// with ECMP groups and with single-path lowest-port fallback.
	for _, ecmp := range []bool{false, true} {
		_, topoA, _ := buildLS(t, RouteOptions{ECMP: ecmp, HostRoutes: true})
		_, topoB, _ := buildLS(t, RouteOptions{ECMP: ecmp, HostRoutes: true})
		a, b := entriesOf(topoA), entriesOf(topoB)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("ecmp=%v: rebuild produced different tables:\n%v\nvs\n%v", ecmp, a, b)
		}
	}
}

func TestTopologyBuilderIdempotence(t *testing.T) {
	// The builder must be a pure function of its spec: ports, links and
	// tier shapes identical across two builds.
	shape := func() []string {
		n := NewNetwork()
		topo, err := BuildFatTree(n, FatTreeSpec{
			Pods: 2, EdgesPerPod: 2, AggsPerPod: 2,
			CoreIDs: []uint16{90, 91},
			EdgeID:  func(pod, i int) uint16 { return uint16(10 + pod*4 + i) },
			AggID:   func(pod, i int) uint16 { return uint16(12 + pod*4 + i) },
			Prog: func(id uint16) *p4.Program {
				p, _, err := testutil.CompileOne(testutil.EchoKernel, passes.TargetTNA, id)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.InstallRoutes(RouteOptions{ECMP: true}); err != nil {
			t.Fatal(err)
		}
		var out []string
		for ti, tier := range topo.Tiers {
			for _, d := range tier {
				out = append(out, fmt.Sprintf("tier%d dev%d ports=%d", ti, d.ID, len(d.ports)))
			}
		}
		for _, d := range topo.Devices() {
			for _, e := range d.SW.Entries("netcl_fwd") {
				out = append(out, fmt.Sprintf("dev%d %v %s%v", d.ID, e.Keys, e.Action.Name, e.Action.Args))
			}
			for _, e := range d.SW.Entries("netcl_ecmp") {
				out = append(out, fmt.Sprintf("dev%d ecmp %v %s%v", d.ID, e.Keys, e.Action.Name, e.Action.Args))
			}
		}
		return out
	}
	a, b := shape(), shape()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fat-tree build not idempotent:\n%v\nvs\n%v", a, b)
	}
}

func TestFabricEndToEnd(t *testing.T) {
	// A message from the host on leaf 1 computes at leaf 2's device and
	// reflects back through the fabric: exercises ECMP transit both
	// directions plus host-route delivery.
	n, topo, spec := buildLS(t, RouteOptions{ECMP: true, HostRoutes: true})
	h1 := n.Host(100)
	var got uint64
	h1.SetReceive(func(h *Host, msg []byte) {
		x := make([]uint64, 1)
		if _, err := runtime.Unpack(spec, msg, [][]uint64{x}); err == nil {
			got = x[0]
		}
	})
	msg, err := runtime.Pack(spec, runtime.Message{Src: 100, Dst: 300, Device: 2, Comp: 1}.Header(), [][]uint64{{41}})
	if err != nil {
		t.Fatal(err)
	}
	h1.Send(msg)
	if err := n.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("echo through fabric: got %d, want 42", got)
	}
	// The round trip traversed the spine tier at least twice (up at leaf
	// 1, and up again on the way back from leaf 2).
	if b := topo.TierIngressBytes(1); b == 0 {
		t.Fatal("no bytes counted entering the spine tier")
	}
}
