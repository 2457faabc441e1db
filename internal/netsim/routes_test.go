package netsim

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"netcl/internal/p4"
	"netcl/internal/passes"
	"netcl/internal/testutil"
	"netcl/internal/wire"
)

// echoProgs caches the echo kernel compiled per device id: compiling
// costs far more than building a small fabric, and the route fuzzer
// builds several fabrics per input.
var echoProgs sync.Map // uint16 → *p4.Program

func echoProg(t testing.TB, id uint16) *p4.Program {
	t.Helper()
	if p, ok := echoProgs.Load(id); ok {
		return p.(*p4.Program)
	}
	p, _, err := testutil.CompileOne(testutil.EchoKernel, passes.TargetTNA, id)
	if err != nil {
		t.Fatal(err)
	}
	echoProgs.Store(id, p)
	return p
}

// checkRoutes is the forwarding oracle the route tests share. From
// every live device it follows netcl_fwd — and, for an ECMP group,
// every netcl_ecmp bucket — hop by hop toward every key some live
// device routes. Each walk must end at the key's owner in exactly the
// surviving graph's hop count and never cross a dead device or a link
// with a down direction. A key's owner is the live device with that
// id, else the standby redirect names for it, else the live device
// the host with that id hangs off, whose own entry must then be the
// host port.
func checkRoutes(n *Network, devs []*Device, dead map[*Device]bool, redirect map[uint16]*Device) error {
	live := map[*Device]bool{}
	var order []*Device
	owners := map[uint16]*Device{}
	for _, d := range devs {
		if !dead[d] {
			live[d] = true
			order = append(order, d)
			owners[d.ID] = d
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].ID < order[j].ID })

	// next returns the device behind d's port p, refusing anything a
	// packet must not cross.
	next := func(d *Device, p int) (*Device, error) {
		li := d.portLink(p)
		if li == 0 {
			return nil, fmt.Errorf("port %d of device %d is unwired", p, d.ID)
		}
		l := n.links.at(li - 1)
		if l.down[0] || l.down[1] {
			return nil, fmt.Errorf("port %d of device %d is a down link", p, d.ID)
		}
		peer := l.peerOf(d, p)
		if !peer.isDevice() {
			return nil, fmt.Errorf("port %d of device %d leads to host %d", p, d.ID, n.hs.at(peer.node).ID)
		}
		pd := n.devs[peer.deviceIdx()]
		if !live[pd] {
			return nil, fmt.Errorf("port %d of device %d leads to dead device %d", p, d.ID, pd.ID)
		}
		return pd, nil
	}
	hops := func(root *Device) map[*Device]int {
		dist := map[*Device]int{root: 0}
		for frontier := []*Device{root}; len(frontier) > 0; {
			var nextFrontier []*Device
			for _, d := range frontier {
				for p := range d.ports {
					if pd, err := next(d, p); err == nil {
						if _, seen := dist[pd]; !seen {
							dist[pd] = dist[d] + 1
							nextFrontier = append(nextFrontier, pd)
						}
					}
				}
			}
			frontier = nextFrontier
		}
		return dist
	}

	type hostAt struct {
		dev  *Device
		port int
	}
	hosts := map[uint16]hostAt{}
	fwd := map[*Device]map[uint16]*p4.ActionCall{}
	ecmp := map[*Device]map[[2]uint64]*p4.ActionCall{}
	keys := map[uint16]bool{}
	for _, d := range order {
		for p := range d.ports {
			if li := d.portLink(p); li != 0 {
				if peer := n.links.at(li-1).peerOf(d, p); !peer.isDevice() {
					hosts[n.hs.at(peer.node).ID] = hostAt{d, p}
				}
			}
		}
		fwd[d] = map[uint16]*p4.ActionCall{}
		for _, e := range d.SW.Entries("netcl_fwd") {
			fwd[d][uint16(e.Keys[0].Value)] = e.Action
			keys[uint16(e.Keys[0].Value)] = true
		}
		ecmp[d] = map[[2]uint64]*p4.ActionCall{}
		for _, e := range d.SW.Entries("netcl_ecmp") {
			ecmp[d][[2]uint64{e.Keys[0].Value, e.Keys[1].Value}] = e.Action
		}
	}
	// egress returns the ports d's tables send key out of, every
	// bucket of an ECMP group included.
	egress := func(d *Device, key uint16) ([]int, error) {
		a := fwd[d][key]
		switch {
		case a == nil:
			return nil, fmt.Errorf("device %d has no route for key %d", d.ID, key)
		case a.Name == "set_port":
			return []int{int(a.Args[0])}, nil
		case a.Name != "set_ecmp_group":
			return nil, fmt.Errorf("device %d routes key %d with %s", d.ID, key, a.Name)
		}
		seen := map[int]bool{}
		var ports []int
		for b := 0; b < wire.ECMPBuckets; b++ {
			m := ecmp[d][[2]uint64{a.Args[0], uint64(b)}]
			if m == nil || m.Name != "set_port" {
				return nil, fmt.Errorf("device %d: ECMP group %d bucket %d is not a port", d.ID, a.Args[0], b)
			}
			if p := int(m.Args[0]); !seen[p] {
				seen[p] = true
				ports = append(ports, p)
			}
		}
		return ports, nil
	}

	sorted := make([]int, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, int(k))
	}
	sort.Ints(sorted)
	for _, k := range sorted {
		key := uint16(k)
		root, hostPort := owners[key], -1
		if root == nil {
			root = redirect[key]
		}
		if root == nil {
			h, ok := hosts[key]
			if !ok {
				return fmt.Errorf("key %d is routed but has no live owner", key)
			}
			root, hostPort = h.dev, h.port
		}
		if dead[root] {
			return fmt.Errorf("key %d is owned by dead device %d", key, root.ID)
		}
		dist := hops(root)
		for _, src := range order {
			want, ok := dist[src]
			if !ok {
				return fmt.Errorf("device %d cannot reach key %d's owner %d", src.ID, key, root.ID)
			}
			var walk func(d *Device, h int) error
			walk = func(d *Device, h int) error {
				if d == root && hostPort < 0 {
					if h != want {
						return fmt.Errorf("device %d reaches key %d in %d hops, want %d", src.ID, key, h, want)
					}
					return nil
				}
				if h > want {
					return fmt.Errorf("device %d: key %d is past %d hops at device %d", src.ID, key, want, d.ID)
				}
				ports, err := egress(d, key)
				if err != nil {
					return err
				}
				for _, p := range ports {
					if d == root {
						if p != hostPort || h != want {
							return fmt.Errorf("device %d sends host %d out of port %d after %d hops, want port %d after %d",
								src.ID, key, p, h, hostPort, want)
						}
						continue
					}
					nd, err := next(d, p)
					if err != nil {
						return fmt.Errorf("device %d toward key %d: %w", src.ID, key, err)
					}
					if err := walk(nd, h+1); err != nil {
						return err
					}
				}
				return nil
			}
			if err := walk(src, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyReroute computes and applies RerouteBatches, checks the result
// with the walk oracle, and requires a second call on the repaired
// tables to find nothing left to do.
func applyReroute(t *testing.T, topo *Topo, opts RerouteOptions) {
	t.Helper()
	batches, err := topo.RerouteBatches(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) == 0 {
		t.Fatal("a failure produced no re-route batches")
	}
	for _, db := range batches {
		if _, err := db.Dev.SW.Write(db.Batch); err != nil {
			t.Fatalf("device %d: %v", db.Dev.ID, err)
		}
	}
	dead := map[*Device]bool{}
	for _, d := range opts.Dead {
		dead[d] = true
	}
	if err := checkRoutes(topo.n, topo.Devices(), dead, opts.Redirect); err != nil {
		t.Fatal(err)
	}
	again, err := topo.RerouteBatches(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range again {
		t.Errorf("second call still changes device %d (%d ops)", db.Dev.ID, db.Batch.Len())
	}
}

func TestRoutesWalkAfterInstall(t *testing.T) {
	for _, opts := range []RouteOptions{{}, {ECMP: true}, {HostRoutes: true}, {ECMP: true, HostRoutes: true}} {
		_, topo, _ := buildLS(t, opts)
		if err := checkRoutes(topo.n, topo.Devices(), nil, nil); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
	}
}

func TestRerouteDeadSpine(t *testing.T) {
	_, topo, _ := buildLS(t, RouteOptions{ECMP: true})
	applyReroute(t, topo, RerouteOptions{Dead: []*Device{topo.Tiers[1][0]}})
}

func TestRerouteLinkDown(t *testing.T) {
	_, topo, _ := buildLS(t, RouteOptions{ECMP: true})
	leaf, spine := topo.Tiers[0][0], topo.Tiers[1][0]
	if !topo.SetLinkDown(leaf, spine, true) {
		t.Fatal("leaf 1 and spine 10 are not adjacent")
	}
	applyReroute(t, topo, RerouteOptions{})
	// Leaf 1 now reaches spine 10 the long way round.
	if got, want := leaf.SW.Entries("netcl_fwd"), topo.PortTo(leaf, topo.Tiers[1][1]); !routesKeyTo(got, 10, want) {
		t.Fatalf("leaf 1's route to spine 10 does not leave by spine 11's port %d: %v", want, got)
	}
}

// routesKeyTo reports whether entries send key out of port.
func routesKeyTo(entries []*p4.Entry, key uint16, port int) bool {
	for _, e := range entries {
		if uint16(e.Keys[0].Value) == key {
			return e.Action.Name == "set_port" && e.Action.Args[0] == uint64(port)
		}
	}
	return false
}

func TestRerouteHostRoutesFromTables(t *testing.T) {
	// Host routes are read off the live tables: with leaf 2 dead, host
	// 100 is re-routed and host 200, behind leaf 2, is deleted.
	n, topo, _ := buildLS(t, RouteOptions{ECMP: true, HostRoutes: true})
	applyReroute(t, topo, RerouteOptions{Dead: []*Device{topo.Tiers[0][1]}})
	for _, d := range []*Device{n.Device(1), n.Device(10), n.Device(11)} {
		keys := map[uint64]bool{}
		for _, e := range d.SW.Entries("netcl_fwd") {
			keys[e.Keys[0].Value] = true
		}
		if !keys[100] || keys[200] || keys[2] {
			t.Fatalf("device %d routes %v, want host 100 and neither leaf 2 nor host 200", d.ID, keys)
		}
	}
}

func TestRerouteRedirect(t *testing.T) {
	// A fat-tree without host routes: pod 0's first agg dies and its
	// id is redirected to the pod's second agg.
	n := NewNetwork()
	topo, err := BuildFatTree(n, FatTreeSpec{
		Pods: 2, EdgesPerPod: 2, AggsPerPod: 2,
		CoreIDs: []uint16{90},
		EdgeID:  func(pod, i int) uint16 { return uint16(10 + pod*2 + i) },
		AggID:   func(pod, i int) uint16 { return uint16(50 + pod*2 + i) },
		Prog:    func(id uint16) *p4.Program { return echoProg(t, id) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, edge := range topo.Tiers[0] {
		topo.AttachHost(n.AddHost(uint16(1000+i)), edge, LinkClass{})
	}
	if err := topo.InstallRoutes(RouteOptions{ECMP: true}); err != nil {
		t.Fatal(err)
	}
	primary, standby := n.Device(50), n.Device(51)
	applyReroute(t, topo, RerouteOptions{Dead: []*Device{primary}, Redirect: map[uint16]*Device{50: standby}})
	for _, d := range topo.Devices() {
		for _, e := range d.SW.Entries("netcl_fwd") {
			if k := e.Keys[0].Value; k >= 1000 {
				t.Fatalf("device %d gained a route to host %d, which no device routed before", d.ID, k)
			}
		}
	}
}

func TestRerouteErrors(t *testing.T) {
	_, topo, _ := buildLS(t, RouteOptions{ECMP: true, HostRoutes: true})
	spine := topo.Tiers[1][0]
	batches, err := topo.RerouteBatches(RerouteOptions{
		Dead: []*Device{spine}, Redirect: map[uint16]*Device{10: spine},
	})
	if err == nil || !strings.Contains(err.Error(), "dead device 10") || batches != nil {
		t.Fatalf("redirect to a dead device: batches %v, err %v", batches, err)
	}

	// Chain 1-2-3: the middle device's death strands both ends.
	n := NewNetwork()
	chain, err := BuildChain(n, ChainSpec{
		IDs:  []uint16{1, 2, 3},
		Prog: func(_ int, id uint16) *p4.Program { return echoProg(t, id) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.InstallRoutes(RouteOptions{}); err != nil {
		t.Fatal(err)
	}
	batches, err = chain.RerouteBatches(RerouteOptions{Dead: []*Device{n.Device(2)}})
	if err == nil || !strings.Contains(err.Error(), "route from device 1 to") || batches != nil {
		t.Fatalf("stranded device: batches %v, err %v", batches, err)
	}
}

func TestAutoWireIslandsRefused(t *testing.T) {
	// Two islands, 1-2 and 3-4, with one host on device 1: no device
	// can reach the other island, so AutoWire must refuse and write
	// nothing rather than leave half the keys unrouted.
	n := NewNetwork()
	var d [5]*Device
	for id := uint16(1); id <= 4; id++ {
		d[id] = n.AddDevice(id, echoProg(t, id))
	}
	n.ConnectDevices(d[1], 1, d[2], 1)
	n.ConnectDevices(d[3], 1, d[4], 1)
	n.Connect(n.AddHost(100), d[1], 2)
	err := n.AutoWire()
	if err == nil || err.Error() != "netsim: no route from device 1 to 3" {
		t.Fatalf("AutoWire on two islands: %v", err)
	}
	for _, dev := range d[1:] {
		if got := dev.SW.Entries("netcl_fwd"); len(got) != 0 {
			t.Errorf("device %d holds %d netcl_fwd entries after a refused AutoWire", dev.ID, len(got))
		}
	}
}

// noECMPP4 has netcl_fwd and both of its route actions but no
// netcl_ecmp table: an ECMP group install on it is refused.
const noECMPP4 = `
header netcl_t {
    bit<16> dst;
}
struct headers_t {
    netcl_t netcl;
}
struct metadata_t {
    bit<16> egress_port;
    bit<16> ecmp_grp;
}
parser P(packet_in pkt, out headers_t hdr, out metadata_t meta) {
    state start {
        pkt.extract(hdr.netcl);
        transition accept;
    }
}
control In(inout headers_t hdr, inout metadata_t meta) {
    action set_port(bit<16> port) {
        meta.egress_port = port;
    }
    action set_ecmp_group(bit<16> gid) {
        meta.ecmp_grp = gid;
    }
    table netcl_fwd {
        key = {
            hdr.netcl.dst : exact;
        }
        actions = { set_port; set_ecmp_group; }
        size = 256;
    }
    apply {
        netcl_fwd.apply();
    }
}
`

func TestInstallRoutesDeviceTransaction(t *testing.T) {
	// Spine 10 runs a program without netcl_ecmp. Its routes to the
	// leaves are single-path and its route to spine 11 is an ECMP
	// group, so the group's first netcl_ecmp insert is refused after
	// two netcl_fwd entries were planned: the device's install is one
	// transaction, and none of them may land.
	plain, err := p4.Parse("no_ecmp", noECMPP4)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork()
	topo, err := BuildLeafSpine(n, LeafSpineSpec{
		LeafIDs: []uint16{1, 2}, SpineIDs: []uint16{10, 11},
		LeafProg: func(_ int, id uint16) *p4.Program { return echoProg(t, id) },
		SpineProg: func(_ int, id uint16) *p4.Program {
			if id == 10 {
				return plain
			}
			return echoProg(t, id)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = topo.InstallRoutes(RouteOptions{ECMP: true})
	if err == nil || !strings.Contains(err.Error(), "device 10") {
		t.Fatalf("InstallRoutes onto a device without netcl_ecmp: %v", err)
	}
	if got := n.Device(10).SW.Entries("netcl_fwd"); len(got) != 0 {
		t.Fatalf("device 10 kept %d netcl_fwd entries of its refused install", len(got))
	}
}

// FuzzRoutes builds a random fabric of at most 8 devices and 6 hosts
// from the input and runs all three route entry points on it. On a
// connected graph AutoWire and InstallRoutes (ECMP and host routes
// chosen by the input) must satisfy the walk oracle, and so must
// RerouteBatches after a random set of dead devices, down links and a
// redirect, when the survivors stay connected; a second re-route must
// then find nothing to do. On a disconnected graph each must return
// the planner's no-route error and write nothing.
func FuzzRoutes(f *testing.F) {
	f.Add([]byte{3, 2, 0x03, 0xff, 0xff, 0xff, 0xff, 0, 1, 0, 0x01, 0, 0, 0, 0x01})
	f.Add([]byte{4, 3, 0x07, 0x2d, 0, 0, 0, 0, 1, 2, 0x02, 0x04, 0, 0, 0, 0})
	f.Add([]byte{7, 6, 0x02, 0x55, 0xaa, 0x55, 0xaa, 0, 1, 2, 3, 4, 5, 0x81, 0x10, 0x20, 0, 0, 0x10})
	f.Add([]byte{4, 1, 0x01, 0x21, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		nDev, nHost, flags := 1+int(next()%8), int(next()%7), next()
		ecmp, hostRoutes, redirect := flags&1 != 0, flags&2 != 0, flags&4 != 0
		// Ids are a stride permutation of 1..8, so id order need not
		// follow creation order.
		stride, offset := 2*int(flags>>3&3)+1, int(flags>>5)
		ids := make([]uint16, nDev)
		for i := range ids {
			ids[i] = uint16(1 + (i*stride+offset)%8)
		}
		var edges [][2]int
		var bits uint32
		for i := 0; i < 4; i++ {
			bits |= uint32(next()) << (8 * i)
		}
		for a, k := 0, 0; a < nDev; a++ {
			for b := a + 1; b < nDev; b, k = b+1, k+1 {
				if bits>>k&1 != 0 {
					edges = append(edges, [2]int{a, b})
				}
			}
		}
		attach := make([]int, nHost)
		for h := range attach {
			attach[h] = int(next()) % nDev
		}
		deadMask := next()
		var downBits, oneWay uint32
		for i := 0; i < 4; i++ {
			downBits |= uint32(next()) << (8 * i)
		}
		oneWay = uint32(next())

		build := func() (*Network, *Topo, []*Device) {
			n := NewNetwork()
			topo := newTopo(n)
			devs := make([]*Device, nDev)
			for i, id := range ids {
				devs[i] = topo.add(id, echoProg(t, id))
			}
			topo.Tiers = [][]*Device{devs}
			for _, e := range edges {
				topo.wire(devs[e[0]], devs[e[1]], 0, LinkClass{})
			}
			for h, at := range attach {
				topo.AttachHost(n.AddHost(uint16(100+h)), devs[at], LinkClass{})
			}
			return n, topo, devs
		}
		connected := func(alive func(i int) bool, usable func(e int) bool) bool {
			comp := make([]int, nDev)
			for i := range comp {
				comp[i] = i
			}
			var find func(i int) int
			find = func(i int) int {
				if comp[i] != i {
					comp[i] = find(comp[i])
				}
				return comp[i]
			}
			for k, e := range edges {
				if alive(e[0]) && alive(e[1]) && usable(k) {
					comp[find(e[0])] = find(e[1])
				}
			}
			root := -1
			for i := 0; i < nDev; i++ {
				if alive(i) {
					if root < 0 {
						root = find(i)
					} else if find(i) != root {
						return false
					}
				}
			}
			return true
		}
		// expect checks a route entry point's outcome: the walk oracle
		// and every required key on a connected graph, the no-route
		// error and untouched tables otherwise.
		expect := func(what string, err error, ok bool, devs []*Device, dead map[*Device]bool, redir map[uint16]*Device, hosts bool, before map[string][][]string, topo *Topo) {
			t.Helper()
			if !ok {
				var nr *noRouteError
				if !errors.As(err, &nr) {
					t.Fatalf("%s on a disconnected graph: %v", what, err)
				}
				if got := entriesOf(topo); !reflect.DeepEqual(got, before) {
					t.Fatalf("%s wrote entries before refusing: %v", what, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if err := checkRoutes(topo.n, devs, dead, redir); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			routed := map[uint16]bool{}
			var live []*Device
			for _, d := range devs {
				if !dead[d] {
					live = append(live, d)
					for _, e := range d.SW.Entries("netcl_fwd") {
						routed[uint16(e.Keys[0].Value)] = true
					}
				}
			}
			for h, at := range attach {
				id := uint16(100 + h)
				if want := hosts && !dead[devs[at]]; routed[id] != want {
					t.Fatalf("%s: host %d routed %v, want %v", what, id, routed[id], want)
				}
			}
			if len(live) > 1 {
				for _, d := range live {
					if !routed[d.ID] {
						t.Fatalf("%s: no device routes device %d", what, d.ID)
					}
				}
			}
		}

		all := func(int) bool { return true }
		n, topo, devs := build()
		expect("AutoWire", n.AutoWire(), connected(all, all), devs, nil, nil, true, entriesOf(topo), topo)

		_, topo, devs = build()
		before := entriesOf(topo)
		err := topo.InstallRoutes(RouteOptions{ECMP: ecmp, HostRoutes: hostRoutes})
		expect("InstallRoutes", err, connected(all, all), devs, nil, nil, hostRoutes, before, topo)
		if err != nil {
			return
		}

		dead := map[*Device]bool{}
		var opts RerouteOptions
		for i, d := range devs {
			if deadMask>>i&1 != 0 {
				dead[d] = true
				opts.Dead = append(opts.Dead, d)
			}
		}
		for k, e := range edges {
			switch {
			case downBits>>k&1 == 0:
			case oneWay>>(k%8)&1 != 0:
				devs[e[0]].SetPortDown(topo.PortTo(devs[e[0]], devs[e[1]]), true)
			default:
				topo.SetLinkDown(devs[e[0]], devs[e[1]], true)
			}
		}
		if redirect && len(opts.Dead) > 0 && len(opts.Dead) < nDev {
			for _, d := range devs {
				if !dead[d] {
					opts.Redirect = map[uint16]*Device{opts.Dead[0].ID: d}
					break
				}
			}
		}
		ok := connected(func(i int) bool { return !dead[devs[i]] }, func(k int) bool { return downBits>>k&1 == 0 })
		before = entriesOf(topo)
		batches, err := topo.RerouteBatches(opts)
		if !ok && batches != nil {
			t.Fatalf("refused re-route returned %d batches", len(batches))
		}
		for _, db := range batches {
			if _, err := db.Dev.SW.Write(db.Batch); err != nil {
				t.Fatalf("device %d: %v", db.Dev.ID, err)
			}
		}
		expect("RerouteBatches", err, ok, devs, dead, opts.Redirect, hostRoutes, before, topo)
		if !ok {
			return
		}
		again, err := topo.RerouteBatches(opts)
		if err != nil || len(again) != 0 {
			t.Fatalf("second re-route: %d batches, err %v", len(again), err)
		}
	})
}
