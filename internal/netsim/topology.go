package netsim

// topology.go is the fabric layer: declarative builders for multi-tier
// switch topologies (chain, leaf/spine, three-tier fat-tree) with
// per-class link latency/bandwidth, plus a shortest-path route
// installer that programs every device's netcl_fwd table — spreading
// over equal-cost uplinks with ECMP groups when asked. It replaces the
// hand-keyed per-scenario transit wiring: a scenario names the shape
// and attaches hosts; ports, links and tables fall out deterministically.

import (
	"fmt"
	"sort"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
	"netcl/internal/wire"
)

// LinkClass parameterizes one class of links (host-facing, or one
// fabric tier).
type LinkClass struct {
	LatencyNs     Time
	BandwidthGbps float64
}

// or returns the class with zero fields defaulted.
func (c LinkClass) or(lat Time, bw float64) LinkClass {
	if c.LatencyNs <= 0 {
		c.LatencyNs = lat
	}
	if c.BandwidthGbps == 0 {
		c.BandwidthGbps = bw
	}
	return c
}

func (c LinkClass) apply(l *Link) {
	l.LatencyNs = c.LatencyNs
	l.BandwidthGbps = c.BandwidthGbps
}

// fabLink is one inter-switch link with its tier orientation: upDir is
// the link direction index of child→parent traversal, upperTier the
// tier of the parent end.
type fabLink struct {
	l         *Link
	upDir     int
	upperTier int
}

// Topo is a built fabric: devices grouped in tiers (0 = host-facing
// leaves, rising toward the top), the oriented inter-switch links, and
// per-device port allocators for host attachment.
type Topo struct {
	n *Network
	// Tiers holds the fabric's devices: Tiers[0] are the leaves,
	// Tiers[len-1] the top tier (a chain has a single tier).
	Tiers [][]*Device

	up       []fabLink
	portTo   map[[2]int32]int // (from idx, to idx) → egress port on from
	nextPort map[int32]int    // device idx → next free port
	// locality orders the fabric's devices so that physically adjacent
	// switches (a chain hop, a pod's edges and aggs) are neighbors in
	// the sequence: the order SetPartitions cuts into contiguous blocks,
	// so partition boundaries fall between racks/pods instead of
	// slicing through them by device-id accident.
	locality []*Device
}

func newTopo(n *Network) *Topo {
	t := &Topo{n: n, portTo: map[[2]int32]int{}, nextPort: map[int32]int{}}
	n.topo = t
	return t
}

// add registers a fabric device in locality order.
func (t *Topo) add(id uint16, prog *p4.Program) *Device {
	d := t.n.AddDevice(id, prog)
	t.locality = append(t.locality, d)
	return d
}

// Devices returns every fabric device, tier by tier.
func (t *Topo) Devices() []*Device {
	var out []*Device
	for _, tier := range t.Tiers {
		out = append(out, tier...)
	}
	return out
}

// alloc hands out the device's next free port (ports start at 1; 0 is
// never wired, matching portLink's unwired sentinel).
func (t *Topo) alloc(d *Device) int {
	p := t.nextPort[d.idx]
	if p == 0 {
		p = 1
	}
	t.nextPort[d.idx] = p + 1
	return p
}

// wire connects child (lower tier) to parent (upper tier) with the
// class applied, recording ports and orientation.
func (t *Topo) wire(child, parent *Device, upperTier int, class LinkClass) {
	cp, pp := t.alloc(child), t.alloc(parent)
	l := t.n.ConnectDevices(child, cp, parent, pp)
	class.apply(l)
	// ConnectDevices puts child at ends[0], so direction 0 is upward.
	t.up = append(t.up, fabLink{l: l, upDir: 0, upperTier: upperTier})
	t.portTo[[2]int32{child.idx, parent.idx}] = cp
	t.portTo[[2]int32{parent.idx, child.idx}] = pp
}

// SetLinkDown administratively fails (or restores) both directions of
// the fabric link between two adjacent devices. Like SetPortDown, flip
// it from a Device.At event so the change lands at a deterministic
// virtual time. Returns false when the devices are not adjacent.
func (t *Topo) SetLinkDown(a, b *Device, down bool) bool {
	pa, pb := t.PortTo(a, b), t.PortTo(b, a)
	if pa < 0 || pb < 0 {
		return false
	}
	a.SetPortDown(pa, down)
	b.SetPortDown(pb, down)
	return true
}

// PortTo returns from's egress port toward the directly-connected
// fabric neighbor to, or -1 when not adjacent.
func (t *Topo) PortTo(from, to *Device) int {
	if p, ok := t.portTo[[2]int32{from.idx, to.idx}]; ok {
		return p
	}
	return -1
}

// AttachHost connects a host to a fabric device on the next free port
// with the given link class, returning the link and the device port
// (for multicast group membership).
func (t *Topo) AttachHost(h *Host, d *Device, class LinkClass) (*Link, int) {
	p := t.alloc(d)
	l := t.n.Connect(h, d, p)
	class.or(1*Microsecond, 100).apply(l)
	return l, p
}

// TierIngressBytes sums the bytes that traversed fabric links upward
// into the given tier (1 = first aggregation tier above the leaves).
// This is the "spine-ingress bytes" of the fabric benchmark: the
// traffic hierarchical in-network reduction is supposed to cut.
func (t *Topo) TierIngressBytes(tier int) uint64 {
	var total uint64
	for _, fl := range t.up {
		if fl.upperTier == tier {
			total += fl.l.Bytes(fl.upDir)
		}
	}
	return total
}

// ChainSpec describes a single-tier line of devices (the netsimbench
// shape): device i links to device i+1.
type ChainSpec struct {
	IDs  []uint16
	Prog func(i int, id uint16) *p4.Program
	Link LinkClass
}

// BuildChain wires a device chain. Every device is tier 0.
func BuildChain(n *Network, spec ChainSpec) (*Topo, error) {
	if len(spec.IDs) == 0 {
		return nil, fmt.Errorf("netsim: chain needs at least one device")
	}
	t := newTopo(n)
	link := spec.Link.or(2*Microsecond, 100)
	tier := make([]*Device, len(spec.IDs))
	for i, id := range spec.IDs {
		tier[i] = t.add(id, spec.Prog(i, id))
	}
	t.Tiers = [][]*Device{tier}
	for i := 0; i+1 < len(tier); i++ {
		// A chain has no up/down: record links as tier-0 "ingress" so
		// byte accounting still works per hop if ever needed.
		t.wire(tier[i], tier[i+1], 0, link)
	}
	return t, nil
}

// LeafSpineSpec describes a two-tier Clos: every leaf links to every
// spine.
type LeafSpineSpec struct {
	LeafIDs   []uint16
	SpineIDs  []uint16
	LeafProg  func(i int, id uint16) *p4.Program
	SpineProg func(i int, id uint16) *p4.Program
	// Fabric is the leaf↔spine link class (default 2µs / 100G);
	// Host the default AttachHost class (default 1µs / 100G).
	Fabric LinkClass
	Host   LinkClass
}

// BuildLeafSpine wires a leaf/spine fabric: Tiers[0] the leaves,
// Tiers[1] the spines.
func BuildLeafSpine(n *Network, spec LeafSpineSpec) (*Topo, error) {
	if len(spec.LeafIDs) == 0 || len(spec.SpineIDs) == 0 {
		return nil, fmt.Errorf("netsim: leaf/spine needs leaves and spines")
	}
	t := newTopo(n)
	fabric := spec.Fabric.or(2*Microsecond, 100)
	leaves := make([]*Device, len(spec.LeafIDs))
	for i, id := range spec.LeafIDs {
		leaves[i] = t.add(id, spec.LeafProg(i, id))
	}
	spines := make([]*Device, len(spec.SpineIDs))
	for i, id := range spec.SpineIDs {
		spines[i] = t.add(id, spec.SpineProg(i, id))
	}
	t.Tiers = [][]*Device{leaves, spines}
	for _, lf := range leaves {
		for _, sp := range spines {
			t.wire(lf, sp, 1, fabric)
		}
	}
	return t, nil
}

// FatTreeSpec describes a three-tier fabric: pods of edge switches
// under pod aggregation switches, joined by a core tier. Every edge
// links to every agg of its pod; every agg links to every core.
type FatTreeSpec struct {
	Pods        int
	EdgesPerPod int
	AggsPerPod  int
	CoreIDs     []uint16
	// EdgeID/AggID name the devices per (pod, index).
	EdgeID   func(pod, i int) uint16
	AggID    func(pod, i int) uint16
	Prog     func(id uint16) *p4.Program
	Fabric   LinkClass
	CoreLink LinkClass // agg↔core class (defaults to Fabric)
}

// BuildFatTree wires the three-tier fabric: Tiers[0] edges, Tiers[1]
// pod aggs, Tiers[2] cores.
func BuildFatTree(n *Network, spec FatTreeSpec) (*Topo, error) {
	if spec.Pods <= 0 || spec.EdgesPerPod <= 0 || spec.AggsPerPod <= 0 || len(spec.CoreIDs) == 0 {
		return nil, fmt.Errorf("netsim: fat-tree needs pods, edges, aggs and cores")
	}
	t := newTopo(n)
	fabric := spec.Fabric.or(2*Microsecond, 100)
	core := spec.CoreLink.or(fabric.LatencyNs, fabric.BandwidthGbps)

	// Creation order is pod-major (a pod's edges, then its aggs): the
	// locality order partitioning cuts, keeping pods whole.
	var edges, aggs []*Device
	for p := 0; p < spec.Pods; p++ {
		for i := 0; i < spec.EdgesPerPod; i++ {
			edges = append(edges, t.add(spec.EdgeID(p, i), spec.Prog(spec.EdgeID(p, i))))
		}
		for i := 0; i < spec.AggsPerPod; i++ {
			aggs = append(aggs, t.add(spec.AggID(p, i), spec.Prog(spec.AggID(p, i))))
		}
	}
	cores := make([]*Device, len(spec.CoreIDs))
	for i, id := range spec.CoreIDs {
		cores[i] = t.add(id, spec.Prog(id))
	}
	t.Tiers = [][]*Device{edges, aggs, cores}
	for p := 0; p < spec.Pods; p++ {
		for i := 0; i < spec.EdgesPerPod; i++ {
			for j := 0; j < spec.AggsPerPod; j++ {
				t.wire(edges[p*spec.EdgesPerPod+i], aggs[p*spec.AggsPerPod+j], 1, fabric)
			}
		}
	}
	for _, ag := range aggs {
		for _, co := range cores {
			t.wire(ag, co, 2, core)
		}
	}
	return t, nil
}

// RouteOptions configures InstallRoutes.
type RouteOptions struct {
	// ECMP spreads equal-cost next hops over flow-hash buckets through
	// the generated set_ecmp_group/netcl_ecmp pair. Off, ties break to
	// the lowest port (still deterministic, single-path).
	ECMP bool
	// HostRoutes additionally installs one entry per attached host
	// (keyed by host id). Off, only device destinations are installed —
	// the transit key for computed NetCL traffic — which keeps table
	// sizes independent of host count at million-host scale.
	HostRoutes bool
}

// InstallRoutes programs every fabric device's forwarding tables with
// shortest paths over the fabric graph. Iteration is fully ordered —
// destinations by id, devices by id, candidate ports ascending, ECMP
// group ids in first-use order — so rebuilding an identical topology
// yields identical tables, entry for entry (the equal-cost tie-break
// determinism the partitioned-run hash tests rely on).
func (t *Topo) InstallRoutes(opts RouteOptions) error {
	devs := t.Devices()
	sort.Slice(devs, func(i, j int) bool { return devs[i].ID < devs[j].ID })
	n := t.n

	// dist holds, per destination, the hop count from every device
	// (indexed by device slab idx), built by one BFS from the
	// destination over the fabric adjacency.
	adj := map[int32][]int32{}
	for _, d := range devs {
		for p := range d.ports {
			li := d.ports[p]
			if li == 0 {
				continue
			}
			peer := n.links.at(li-1).peerOf(d, p)
			if peer.isDevice() {
				adj[d.idx] = append(adj[d.idx], peer.deviceIdx())
			}
		}
	}
	distTo := func(dst *Device) map[int32]int {
		dist := map[int32]int{dst.idx: 0}
		queue := []int32{dst.idx}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adj[cur] {
				if _, ok := dist[nb]; !ok {
					dist[nb] = dist[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
		return dist
	}

	// nexthops returns d's equal-cost egress ports toward dst (ports
	// ascending), given dst's distance field.
	nexthops := func(d *Device, dist map[int32]int) []int {
		dd, ok := dist[d.idx]
		if !ok {
			return nil
		}
		var ports []int
		for p := range d.ports {
			li := d.ports[p]
			if li == 0 {
				continue
			}
			peer := n.links.at(li-1).peerOf(d, p)
			if !peer.isDevice() {
				continue
			}
			if pd, ok := dist[peer.deviceIdx()]; ok && pd == dd-1 {
				ports = append(ports, p)
			}
		}
		return ports
	}

	type routeEntry struct {
		table string
		e     *p4.Entry
	}
	type pending struct {
		dev     *Device
		entries []routeEntry
		groups  map[string]int // port-set key → gid
		nextGid int
	}
	pend := map[int32]*pending{}
	getPend := func(d *Device) *pending {
		pd := pend[d.idx]
		if pd == nil {
			pd = &pending{dev: d, groups: map[string]int{}, nextGid: 1}
			pend[d.idx] = pd
		}
		return pd
	}

	// install resolves one (device, destination-id, ports) decision
	// into netcl_fwd (and netcl_ecmp) entries.
	install := func(d *Device, id uint16, ports []int) {
		pd := getPend(d)
		if len(ports) == 1 || !opts.ECMP {
			pd.entries = append(pd.entries, routeEntry{"netcl_fwd", &p4.Entry{
				Keys:   []p4.KeyValue{{Value: uint64(id), PrefixLen: -1}},
				Action: &p4.ActionCall{Name: "set_port", Args: []uint64{uint64(ports[0])}},
			}})
			return
		}
		key := fmt.Sprint(ports)
		gid, ok := pd.groups[key]
		if !ok {
			gid = pd.nextGid
			pd.nextGid++
			pd.groups[key] = gid
			for b := 0; b < wire.ECMPBuckets; b++ {
				pd.entries = append(pd.entries, routeEntry{"netcl_ecmp", &p4.Entry{
					Keys: []p4.KeyValue{
						{Value: uint64(gid), PrefixLen: -1},
						{Value: uint64(b), PrefixLen: -1},
					},
					Action: &p4.ActionCall{Name: "set_port", Args: []uint64{uint64(ports[b%len(ports)])}},
				}})
			}
		}
		pd.entries = append(pd.entries, routeEntry{"netcl_fwd", &p4.Entry{
			Keys:   []p4.KeyValue{{Value: uint64(id), PrefixLen: -1}},
			Action: &p4.ActionCall{Name: "set_ecmp_group", Args: []uint64{uint64(gid)}},
		}})
	}

	// Device destinations, ascending id.
	for _, dst := range devs {
		dist := distTo(dst)
		for _, d := range devs {
			if d == dst {
				continue
			}
			ports := nexthops(d, dist)
			if len(ports) == 0 {
				return fmt.Errorf("netsim: no route from device %d to device %d", d.ID, dst.ID)
			}
			install(d, dst.ID, ports)
		}
	}

	// Host destinations: route to the attach device, except at the
	// attach device itself where the host port wins.
	if opts.HostRoutes {
		type hostAt struct {
			id   uint16
			dev  *Device
			port int
		}
		var hosts []hostAt
		for _, d := range devs {
			for p := range d.ports {
				li := d.ports[p]
				if li == 0 {
					continue
				}
				peer := n.links.at(li-1).peerOf(d, p)
				if !peer.isDevice() {
					hosts = append(hosts, hostAt{id: n.hs.at(peer.node).ID, dev: d, port: p})
				}
			}
		}
		sort.Slice(hosts, func(i, j int) bool { return hosts[i].id < hosts[j].id })
		for _, h := range hosts {
			dist := distTo(h.dev)
			for _, d := range devs {
				if d == h.dev {
					pd := getPend(d)
					pd.entries = append(pd.entries, routeEntry{"netcl_fwd", &p4.Entry{
						Keys:   []p4.KeyValue{{Value: uint64(h.id), PrefixLen: -1}},
						Action: &p4.ActionCall{Name: "set_port", Args: []uint64{uint64(h.port)}},
					}})
					continue
				}
				ports := nexthops(d, dist)
				if len(ports) == 0 {
					return fmt.Errorf("netsim: no route from device %d to host %d", d.ID, h.id)
				}
				install(d, h.id, ports)
			}
		}
	}

	// Commit: devices ascending, each device's entries in decision
	// order.
	for _, d := range devs {
		pd := pend[d.idx]
		if pd == nil {
			continue
		}
		for _, re := range pd.entries {
			if _, err := d.SW.Write(bmv2.NewWriteBatch().Insert(re.table, re.e)); err != nil {
				return fmt.Errorf("netsim: device %d: %w", d.ID, err)
			}
		}
	}
	return nil
}
