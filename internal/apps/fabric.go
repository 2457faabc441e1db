package apps

// fabric.go runs the evaluation applications ACROSS a multi-tier
// switch fabric instead of around a single device: hierarchical
// in-network aggregation (leaf switches partially reduce their rack,
// upper tiers complete), per-rack caches backed by a shared server
// across the spine, and Paxos with the coordinator and acceptors on
// distinct switches. The topologies come from the netsim builders
// (BuildLeafSpine/BuildFatTree) and the tables from InstallRoutes —
// no scenario wires ports or transit entries by hand.

import (
	"fmt"

	"netcl/internal/netsim"
	"netcl/internal/p4"
	"netcl/internal/p4rt"
	"netcl/internal/passes"
	"netcl/internal/runtime"
	"netcl/internal/wire"
)

// FabricAggConfig parameterizes one hierarchical-aggregation run.
type FabricAggConfig struct {
	// Tiers is the aggregation depth: 1 = host-direct-to-root (every
	// worker packet crosses the fabric to the root, the flat baseline),
	// 2 = leaves partially reduce their rack, 3 = edge→group→root.
	Tiers int
	// Leaves is the number of host-facing switches (default 4).
	Leaves int
	// WorkersPerLeaf is the rack size (default 4).
	WorkersPerLeaf int
	// Groups is the mid-tier width for Tiers=3 (default 2; must divide
	// Leaves).
	Groups int
	// Rounds is the number of aggregation rounds (default 8). Each
	// round owns one slot.
	Rounds int
	// Partitions cuts the network with SetPartitions (0 or 1 = one
	// partition).
	Partitions int
	// Trace enables the delivery hash chains (determinism witness).
	Trace  bool
	Target passes.Target
}

// FabricAggResult reports one hierarchical-aggregation run.
type FabricAggResult struct {
	Tiers      int `json:"tiers"`
	Workers    int `json:"workers"`
	Rounds     int `json:"rounds"`
	Devices    int `json:"devices"`
	Partitions int `json:"partitions"`
	// Completed counts collector deliveries (= Rounds when correct);
	// Mismatches counts wrong sums/rounds.
	Completed  int     `json:"completed"`
	Expected   int     `json:"expected"`
	Mismatches int     `json:"mismatches"`
	DurationNs float64 `json:"duration_ns"`
	// GoodputElems is aggregated tensor elements per second across the
	// whole job (Workers × Rounds × slot elements / duration).
	GoodputElems float64 `json:"goodput_elems_per_sec"`
	// RootIngressBytes counts bytes entering the top tier upward: the
	// traffic hierarchical reduction cuts by ~fan-in× per tier.
	RootIngressBytes uint64 `json:"root_ingress_bytes"`
	// TierIngressBytes[i] is the upward traffic into tier i+1.
	TierIngressBytes []uint64 `json:"tier_ingress_bytes"`
	Events           uint64   `json:"events"`
	TraceHash        uint64   `json:"trace_hash,omitempty"`
}

// aggNode is one switch's position in the aggregation tree.
type aggNode struct {
	id       uint16
	fanin    int
	parent   uint16
	levelIdx int
	isRoot   bool
}

const fabricSlotSize = 4

// fabricAggProg compiles the hierarchical AGG kernel for one tree
// position.
func fabricAggProg(node aggNode, rounds int, target passes.Target) (*p4.Program, map[uint8]*runtime.MessageSpec, error) {
	isRoot := uint64(0)
	if node.isRoot {
		isRoot = 1
	}
	app := &App{
		Name:  "HIERAGG",
		NetCL: HierAggSource,
		Defines: map[string]uint64{
			"NUM_SLOTS":   uint64(rounds),
			"SLOT_SIZE":   fabricSlotSize,
			"FANIN":       uint64(node.fanin),
			"IS_ROOT":     isRoot,
			"PARENT":      uint64(node.parent),
			"LEVEL_INDEX": uint64(node.levelIdx),
		},
	}
	return CompileApp(app, target, node.id)
}

// RunFabricAgg builds the fabric, places the aggregation tree across
// it, and runs the open-loop rounds.
func RunFabricAgg(cfg FabricAggConfig) (*FabricAggResult, error) {
	if cfg.Target == "" {
		cfg.Target = passes.TargetTNA
	}
	if cfg.Tiers == 0 {
		cfg.Tiers = 2
	}
	if cfg.Tiers < 1 || cfg.Tiers > 3 {
		return nil, fmt.Errorf("fabric agg: tiers must be 1..3, got %d", cfg.Tiers)
	}
	if cfg.Leaves <= 0 {
		cfg.Leaves = 4
	}
	if cfg.WorkersPerLeaf <= 0 {
		cfg.WorkersPerLeaf = 4
	}
	if cfg.Groups <= 0 {
		cfg.Groups = 2
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 8
	}
	workers := cfg.Leaves * cfg.WorkersPerLeaf
	const rootID = 100

	// The aggregation tree: who reduces whom. The contribution bitmap
	// is 16 bits wide, so every level's fan-in is capped at 16 — in
	// the flat baseline that cap applies to the whole worker set,
	// which is exactly the scaling wall hierarchical reduction removes.
	nodes := map[uint16]aggNode{}
	leafIDs := make([]uint16, cfg.Leaves)
	for l := 0; l < cfg.Leaves; l++ {
		leafIDs[l] = uint16(10 + l)
	}
	switch cfg.Tiers {
	case 1:
		if workers > 16 {
			return nil, fmt.Errorf("fabric agg: flat baseline caps at 16 workers (bitmap width), got %d", workers)
		}
		nodes[rootID] = aggNode{id: rootID, fanin: workers, isRoot: true}
		for _, id := range leafIDs {
			// Pure transit: the kernel never runs at a leaf because no
			// packet is addressed to it.
			nodes[id] = aggNode{id: id, fanin: cfg.WorkersPerLeaf, parent: rootID}
		}
	case 2:
		if cfg.Leaves > 16 || cfg.WorkersPerLeaf > 16 {
			return nil, fmt.Errorf("fabric agg: per-level fan-in caps at 16")
		}
		nodes[rootID] = aggNode{id: rootID, fanin: cfg.Leaves, isRoot: true}
		for l, id := range leafIDs {
			nodes[id] = aggNode{id: id, fanin: cfg.WorkersPerLeaf, parent: rootID, levelIdx: l}
		}
	case 3:
		if cfg.Leaves%cfg.Groups != 0 {
			return nil, fmt.Errorf("fabric agg: groups (%d) must divide leaves (%d)", cfg.Groups, cfg.Leaves)
		}
		perGroup := cfg.Leaves / cfg.Groups
		if cfg.Groups > 16 || perGroup > 16 || cfg.WorkersPerLeaf > 16 {
			return nil, fmt.Errorf("fabric agg: per-level fan-in caps at 16")
		}
		nodes[rootID] = aggNode{id: rootID, fanin: cfg.Groups, isRoot: true}
		for g := 0; g < cfg.Groups; g++ {
			gid := uint16(50 + g)
			nodes[gid] = aggNode{id: gid, fanin: perGroup, parent: rootID, levelIdx: g}
			for i := 0; i < perGroup; i++ {
				id := leafIDs[g*perGroup+i]
				nodes[id] = aggNode{id: id, fanin: cfg.WorkersPerLeaf, parent: gid, levelIdx: i}
			}
		}
	}

	var spec *runtime.MessageSpec
	progFor := func(id uint16) *p4.Program {
		prog, specs, err := fabricAggProg(nodes[id], cfg.Rounds, cfg.Target)
		if err != nil {
			panic(fmt.Sprintf("fabric agg: device %d: %v", id, err))
		}
		spec = specs[1]
		return prog
	}

	n := netsim.NewNetwork()
	n.MaxEvents = 50_000_000
	var topo *netsim.Topo
	var err error
	if cfg.Tiers == 3 {
		perGroup := cfg.Leaves / cfg.Groups
		topo, err = netsim.BuildFatTree(n, netsim.FatTreeSpec{
			Pods: cfg.Groups, EdgesPerPod: perGroup, AggsPerPod: 1,
			CoreIDs: []uint16{rootID},
			EdgeID:  func(pod, i int) uint16 { return leafIDs[pod*perGroup+i] },
			AggID:   func(pod, i int) uint16 { return uint16(50 + pod) },
			Prog:    progFor,
		})
	} else {
		topo, err = netsim.BuildLeafSpine(n, netsim.LeafSpineSpec{
			LeafIDs: leafIDs, SpineIDs: []uint16{rootID},
			LeafProg:  func(i int, id uint16) *p4.Program { return progFor(id) },
			SpineProg: func(i int, id uint16) *p4.Program { return progFor(id) },
		})
	}
	if err != nil {
		return nil, err
	}
	if err := topo.InstallRoutes(netsim.RouteOptions{ECMP: true}); err != nil {
		return nil, err
	}

	root := n.Device(rootID)
	topTier := len(topo.Tiers) - 1

	// Collector host behind the root; group 42 is the completion
	// multicast the root kernel emits.
	const collectorID = 0xF000
	collector := n.AddHost(collectorID)
	_, collPort := topo.AttachHost(collector, root, netsim.LinkClass{})
	root.SetMulticastGroup(42, []int{collPort})

	// Workers, racks in order. In the flat baseline every worker
	// targets the root with its global bit; hierarchically it targets
	// its leaf with its rack-local bit.
	type workerMeta struct {
		target uint16
		mask   uint16
		home   uint8 // leaf ordinal (scratch selector)
		next   int   // next round to send
	}
	meta := make([]workerMeta, 0, workers+1)
	meta = append(meta, workerMeta{next: cfg.Rounds}) // collector never sends
	for l := 0; l < cfg.Leaves; l++ {
		leaf := n.Device(leafIDs[l])
		for w := 0; w < cfg.WorkersPerLeaf; w++ {
			global := l*cfg.WorkersPerLeaf + w
			h := n.AddHost(uint16(1000 + global))
			topo.AttachHost(h, leaf, netsim.LinkClass{})
			m := workerMeta{target: leafIDs[l], mask: 1 << uint(w), home: uint8(l)}
			if cfg.Tiers == 1 {
				m = workerMeta{target: rootID, mask: 1 << uint(global), home: uint8(l)}
			}
			meta = append(meta, m)
		}
	}

	res := &FabricAggResult{
		Tiers: cfg.Tiers, Workers: workers, Rounds: cfg.Rounds,
		Devices: len(nodes), Expected: cfg.Rounds,
	}

	// Collector: verify each completed round's sum. Worker w sends
	// v[i] = r + i + w, so the full reduction over W workers is
	// W*(r+i) + W*(W-1)/2, with exp carrying the round via max.
	vals := make([]uint64, fabricSlotSize)
	slot := make([]uint64, 1)
	exp := make([]uint64, 1)
	argv := [][]uint64{slot, nil, exp, vals}
	collector.SetReceive(func(h *netsim.Host, msg []byte) {
		if _, err := runtime.UnpackInto(spec, msg, argv); err != nil {
			res.Mismatches++
			return
		}
		res.Completed++
		r := exp[0]
		if slot[0] != r {
			res.Mismatches++
			return
		}
		w := uint64(workers)
		for i := 0; i < fabricSlotSize; i++ {
			if vals[i] != w*(r+uint64(i))+w*(w-1)/2 {
				res.Mismatches++
				return
			}
		}
	})

	// Open-loop senders: each worker is paced by the network timer with
	// a per-host staggered interval, so no two events tie on a shared
	// queue and the event order is independent of the partition count.
	// The packing scratch is per leaf: all hosts of one leaf run in the
	// leaf's partition, so each scratch has a single concurrent user.
	type aggScratch struct {
		buf                   []byte
		argv                  [][]uint64
		slot, mask, exp, vals []uint64
	}
	scratch := make([]aggScratch, cfg.Leaves)
	for l := range scratch {
		sc := &scratch[l]
		sc.buf = make([]byte, 0, spec.Size())
		sc.slot, sc.mask, sc.exp = make([]uint64, 1), make([]uint64, 1), make([]uint64, 1)
		sc.vals = make([]uint64, fabricSlotSize)
		sc.argv = [][]uint64{sc.slot, sc.mask, sc.exp, sc.vals}
	}
	interval := func(i int) netsim.Time {
		return 20*netsim.Microsecond + netsim.Time(float64(i%1009)*0.125)
	}
	n.OnTimer(func(h *netsim.Host) {
		i := h.Index()
		m := &meta[i]
		if m.next >= cfg.Rounds {
			return
		}
		r := m.next
		m.next++
		global := i - 1 // host 0 is the collector
		sc := &scratch[m.home]
		sc.slot[0] = uint64(r)
		sc.mask[0] = uint64(m.mask)
		sc.exp[0] = uint64(r)
		for j := range sc.vals {
			sc.vals[j] = uint64(r) + uint64(j) + uint64(global)
		}
		hdr := runtime.Message{Src: h.ID, Dst: collectorID, Device: m.target, Comp: 1}.Header()
		msg, err := runtime.PackAppend(sc.buf[:0], spec, hdr, sc.argv)
		if err != nil {
			return
		}
		sc.buf = msg[:0]
		h.Send(msg)
		if m.next < cfg.Rounds {
			h.StartTimer(interval(i))
		}
	})

	if cfg.Trace {
		n.EnableTrace()
	}
	if cfg.Partitions > 0 {
		if err := n.SetPartitions(cfg.Partitions); err != nil {
			return nil, err
		}
		res.Partitions = n.Partitions()
	}
	for i := 1; i < len(meta); i++ {
		n.HostAt(i).StartTimer(100*netsim.Nanosecond + netsim.Time(float64(i)*0.125))
	}
	if err := n.RunAll(); err != nil {
		return nil, err
	}

	res.DurationNs = float64(n.Now())
	res.Events = n.TotalProcessed()
	if res.DurationNs > 0 {
		res.GoodputElems = float64(workers*cfg.Rounds*fabricSlotSize) / (res.DurationNs / 1e9)
	}
	for tier := 1; tier <= topTier; tier++ {
		res.TierIngressBytes = append(res.TierIngressBytes, topo.TierIngressBytes(tier))
	}
	res.RootIngressBytes = topo.TierIngressBytes(topTier)
	if cfg.Trace {
		res.TraceHash = n.TraceHash()
	}
	return res, nil
}

// FabricCacheConfig parameterizes the per-rack cache run.
type FabricCacheConfig struct {
	// Racks is the number of leaf switches, each with one client host
	// and its own cache (default 3).
	Racks int
	// Spines is the spine count — >1 exercises ECMP transit (default 2).
	Spines int
	// CachedKeys per rack cache; TotalKeys the uniform key universe.
	CachedKeys int
	TotalKeys  int
	// RequestsPerClient is the closed-loop request count per rack.
	RequestsPerClient int
	Target            passes.Target
}

// FabricCacheResult reports the per-rack cache run.
type FabricCacheResult struct {
	Racks          int     `json:"racks"`
	Requests       int     `json:"requests"`
	Hits           int     `json:"hits"`
	Misses         int     `json:"misses"`
	HitRate        float64 `json:"hit_rate"`
	WrongValues    int     `json:"wrong_values"`
	MeanResponseNs float64 `json:"mean_response_ns"`
	// SpineIngressBytes counts upward fabric traffic: only misses and
	// their server round trips cross the spine — rack-local hits never
	// leave the leaf.
	SpineIngressBytes uint64 `json:"spine_ingress_bytes"`
}

// RunFabricCache places one cache per rack leaf, all backed by a
// single KVS server host homed behind the last leaf: hits reflect at
// the rack switch, misses cross the spine (ECMP over the uplinks) to
// the server and return.
func RunFabricCache(cfg FabricCacheConfig) (*FabricCacheResult, error) {
	if cfg.Target == "" {
		cfg.Target = passes.TargetTNA
	}
	if cfg.Racks <= 0 {
		cfg.Racks = 3
	}
	if cfg.Spines <= 0 {
		cfg.Spines = 2
	}
	if cfg.TotalKeys <= 0 {
		cfg.TotalKeys = 32
	}
	if cfg.CachedKeys <= 0 {
		cfg.CachedKeys = cfg.TotalKeys / 2
	}
	if cfg.CachedKeys > cfg.TotalKeys {
		return nil, fmt.Errorf("fabric cache: cached keys %d out of range", cfg.CachedKeys)
	}
	if cfg.RequestsPerClient <= 0 {
		cfg.RequestsPerClient = 64
	}

	app := ByName("CACHE")
	var spec *runtime.MessageSpec
	prog := func(i int, id uint16) *p4.Program {
		p, specs, err := CompileApp(app, cfg.Target, id)
		if err != nil {
			panic(fmt.Sprintf("fabric cache: device %d: %v", id, err))
		}
		spec = specs[1]
		return p
	}

	n := netsim.NewNetwork()
	n.MaxEvents = 10_000_000
	leafIDs := make([]uint16, cfg.Racks+1) // racks + the server's home leaf
	for i := range leafIDs {
		leafIDs[i] = uint16(10 + i)
	}
	spineIDs := make([]uint16, cfg.Spines)
	for i := range spineIDs {
		spineIDs[i] = uint16(80 + i)
	}
	topo, err := netsim.BuildLeafSpine(n, netsim.LeafSpineSpec{
		LeafIDs: leafIDs, SpineIDs: spineIDs,
		LeafProg: prog, SpineProg: prog,
	})
	if err != nil {
		return nil, err
	}

	const serverID = 0x2000
	server := n.AddHost(serverID)
	home := n.Device(leafIDs[cfg.Racks])
	topo.AttachHost(server, home, netsim.LinkClass{})
	clients := make([]*netsim.Host, cfg.Racks)
	for r := 0; r < cfg.Racks; r++ {
		clients[r] = n.AddHost(uint16(0x1000 + r))
		topo.AttachHost(clients[r], n.Device(leafIDs[r]), netsim.LinkClass{})
	}
	if err := topo.InstallRoutes(netsim.RouteOptions{ECMP: true, HostRoutes: true}); err != nil {
		return nil, err
	}

	// Populate every rack cache with the hot keys through the control
	// plane (one transaction per device).
	valueOf := func(key uint64, w int) uint64 { return key*1000 + uint64(w) }
	for r := 0; r < cfg.Racks; r++ {
		if err := populateCache(n.Device(leafIDs[r]), cfg.CachedKeys, valueOf); err != nil {
			return nil, err
		}
	}

	words := CacheWords
	server.SetProcessingNs(7600 * netsim.Nanosecond)
	server.SetReceive(func(h *netsim.Host, msg []byte) {
		key := make([]uint64, 1)
		op := make([]uint64, 1)
		hdr, err := runtime.Unpack(spec, msg, [][]uint64{op, key, nil, nil, nil})
		if err != nil || op[0] != 1 {
			return
		}
		vals := make([]uint64, words)
		for w := range vals {
			vals[w] = valueOf(key[0], w)
		}
		// Respond without requesting computation (to = none): the reply
		// transits the fabric on host routes only.
		reply, err := runtime.Pack(spec, wire.Header{
			Src: serverID, Dst: hdr.Src, From: wire.None, To: wire.None, Comp: 1,
		}, [][]uint64{op, key, vals, {0}, nil})
		if err != nil {
			return
		}
		h.Send(reply)
	})

	res := &FabricCacheResult{Racks: cfg.Racks}
	var totalRT float64
	for r := 0; r < cfg.Racks; r++ {
		r := r
		client := clients[r]
		sent := 0
		var sentAt netsim.Time
		issue := func() {
			if sent >= cfg.RequestsPerClient {
				return
			}
			// Stagger racks so no two clients tie on the spine.
			key := uint64((sent*7+r)%cfg.TotalKeys) + 1
			sentAt = n.Now()
			sent++
			msg, err := runtime.Pack(spec,
				runtime.Message{Src: client.ID, Dst: serverID, Device: leafIDs[r], Comp: 1}.Header(),
				[][]uint64{{1}, {key}, nil, nil, nil})
			if err != nil {
				return
			}
			client.Send(msg)
		}
		client.SetReceive(func(h *netsim.Host, msg []byte) {
			key := make([]uint64, 1)
			vals := make([]uint64, words)
			hit := make([]uint64, 1)
			if _, err := runtime.Unpack(spec, msg, [][]uint64{nil, key, vals, hit, nil}); err != nil {
				return
			}
			res.Requests++
			totalRT += float64(n.Now() - sentAt)
			if hit[0] != 0 {
				res.Hits++
			} else {
				res.Misses++
			}
			for w := 0; w < words; w++ {
				if vals[w] != valueOf(key[0], w) {
					res.WrongValues++
					break
				}
			}
			issue()
		})
		// Stagger initial issue per rack.
		n.At(netsim.Time(r)*netsim.Microsecond, issue)
	}

	if err := n.RunAll(); err != nil {
		return nil, err
	}
	if res.Requests > 0 {
		res.MeanResponseNs = totalRT / float64(res.Requests)
		res.HitRate = float64(res.Hits) / float64(res.Requests)
	}
	res.SpineIngressBytes = topo.TierIngressBytes(1)
	return res, nil
}

// populateCache installs keys 1..cached into one rack switch's cache
// through the control plane, as a single transaction per device.
func populateCache(dev *netsim.Device, cached int, valueOf func(key uint64, w int) uint64) error {
	cp := &p4rt.Direct{SW: dev.SW}
	batch := p4rt.NewWriteBatch()
	for k := 0; k < cached; k++ {
		key := uint64(k + 1)
		idx := uint64(k)
		batch.Insert("lu_Index", &p4.Entry{
			Keys:   []p4.KeyValue{{Value: key, PrefixLen: -1}},
			Action: &p4.ActionCall{Name: "lu_Index_hit", Args: []uint64{idx}},
		})
		batch.Insert("lu_Share", &p4.Entry{
			Keys:   []p4.KeyValue{{Value: key, PrefixLen: -1}},
			Action: &p4.ActionCall{Name: "lu_Share_hit", Args: []uint64{(1 << uint(CacheWords)) - 1}},
		})
		for w := 0; w < CacheWords; w++ {
			batch.RegisterWrite(fmt.Sprintf("reg_Vals__%d", w), int(idx), valueOf(key, w))
		}
		batch.RegisterWrite("reg_Valid", int(idx), 1)
	}
	_, err := cp.Write(batch)
	return err
}

// FabricPaxosConfig parameterizes consensus across the fabric.
type FabricPaxosConfig struct {
	Commands int
	Target   passes.Target
}

// RunFabricPaxos places the P4xos roles on distinct fabric switches:
// the leader and learner as spines, the three acceptors as leaves of
// a leaf/spine Clos — every role reachable from every other in one
// fabric hop, with multicast groups derived from the topology instead
// of hand-numbered ports.
func RunFabricPaxos(cfg FabricPaxosConfig) (*PaxosResult, error) {
	if cfg.Target == "" {
		cfg.Target = passes.TargetTNA
	}
	if cfg.Commands <= 0 {
		cfg.Commands = 16
	}
	app := ByName("PAXOS")

	var specs map[uint8]*runtime.MessageSpec
	prog := func(i int, id uint16) *p4.Program {
		p, sp, err := CompileApp(app, cfg.Target, id)
		if err != nil {
			panic(fmt.Sprintf("fabric paxos: device %d: %v", id, err))
		}
		specs = sp
		return p
	}

	n := netsim.NewNetwork()
	n.MaxEvents = 10_000_000
	// Leader (1) and learner (5) as spines; acceptors (2,3,4) as
	// leaves: the PaxosSource placement ids, on fabric switches.
	topo, err := netsim.BuildLeafSpine(n, netsim.LeafSpineSpec{
		LeafIDs:  []uint16{PaxosAcceptor1, PaxosAcceptor2, PaxosAcceptor3},
		SpineIDs: []uint16{PaxosLeader, PaxosLearner},
		LeafProg: prog, SpineProg: prog,
	})
	if err != nil {
		return nil, err
	}
	leader := n.Device(PaxosLeader)
	learner := n.Device(PaxosLearner)

	client := n.AddHost(100)
	appHost := n.AddHost(101)
	topo.AttachHost(client, leader, netsim.LinkClass{})
	topo.AttachHost(appHost, learner, netsim.LinkClass{})
	if err := topo.InstallRoutes(netsim.RouteOptions{ECMP: true, HostRoutes: true}); err != nil {
		return nil, err
	}

	// Multicast groups from topology adjacency: the leader's acceptor
	// group fans out to the three leaves; each acceptor's learner
	// group is its direct spine port.
	var accPorts []int
	for _, acc := range topo.Tiers[0] {
		accPorts = append(accPorts, topo.PortTo(leader, acc))
	}
	leader.SetMulticastGroup(20, accPorts)
	for _, acc := range topo.Tiers[0] {
		acc.SetMulticastGroup(30, []int{topo.PortTo(acc, learner)})
	}

	spec := specs[1]
	res := &PaxosResult{}
	delivered := map[uint64]bool{}
	appHost.SetReceive(func(h *netsim.Host, msg []byte) {
		typ := make([]uint64, 1)
		inst := make([]uint64, 1)
		v := make([]uint64, 8)
		if _, err := runtime.Unpack(spec, msg, [][]uint64{typ, inst, nil, nil, nil, v}); err != nil {
			return
		}
		if typ[0] != 4 { // DELIVER
			return
		}
		if delivered[inst[0]] {
			res.Duplicates++
			return
		}
		delivered[inst[0]] = true
		res.Delivered++
		if v[0] != 1000+inst[0]-1 {
			res.WrongValue++
		}
	})

	for c := 0; c < cfg.Commands; c++ {
		vals := make([]uint64, 8)
		vals[0] = uint64(1000 + c)
		msg, err := runtime.Pack(spec,
			runtime.Message{Src: 100, Dst: 101, Device: PaxosLeader, Comp: 1}.Header(),
			[][]uint64{{1}, {0}, {0}, {0}, {0}, vals})
		if err != nil {
			return nil, err
		}
		client.Send(msg)
		res.Submitted++
	}
	if err := n.RunAll(); err != nil {
		return nil, err
	}
	res.Undelivered = res.Submitted - res.Delivered
	return res, nil
}
