package apps

// fabric.go runs the evaluation applications ACROSS a multi-tier
// switch fabric instead of around a single device: hierarchical
// in-network aggregation (leaf switches partially reduce their rack,
// upper tiers complete), per-rack caches backed by a shared server
// across the spine, and Paxos with the coordinator and acceptors on
// distinct switches. The topologies come from the netsim builders
// (BuildLeafSpine/BuildFatTree) and the tables from InstallRoutes —
// no scenario wires ports or transit entries by hand. Each app's
// deployment and load live with its protocol (agg.go, cache.go,
// paxos.go); a driver here is the placement plus a load schedule.

import (
	"fmt"

	"netcl/internal/netsim"
	"netcl/internal/p4"
	"netcl/internal/passes"
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

// RunFabricAgg builds the fabric, places the aggregation tree across
// it, and runs the open-loop rounds.
func RunFabricAgg(cfg FabricAggConfig) (*FabricAggResult, error) {
	if cfg.Tiers == 0 {
		cfg.Tiers = 2
	}
	if cfg.Tiers < 1 || cfg.Tiers > 3 {
		return nil, fmt.Errorf("fabric agg: tiers must be 1..3, got %d", cfg.Tiers)
	}
	cfg.Leaves = orDefault(cfg.Leaves, 4)
	cfg.WorkersPerLeaf = orDefault(cfg.WorkersPerLeaf, 4)
	cfg.Groups = orDefault(cfg.Groups, 2)
	cfg.Rounds = orDefault(cfg.Rounds, 8)
	workers := cfg.Leaves * cfg.WorkersPerLeaf
	const rootID = hierRootID

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
		nodes[rootID] = aggNode{fanin: workers, isRoot: true}
		for _, id := range leafIDs {
			// Pure transit: the kernel never runs at a leaf because no
			// packet is addressed to it.
			nodes[id] = aggNode{fanin: cfg.WorkersPerLeaf, parent: rootID}
		}
	case 2:
		if cfg.Leaves > 16 || cfg.WorkersPerLeaf > 16 {
			return nil, fmt.Errorf("fabric agg: per-level fan-in caps at 16")
		}
		nodes[rootID] = aggNode{fanin: cfg.Leaves, isRoot: true}
		for l, id := range leafIDs {
			nodes[id] = aggNode{fanin: cfg.WorkersPerLeaf, parent: rootID, levelIdx: l}
		}
	case 3:
		if cfg.Leaves%cfg.Groups != 0 {
			return nil, fmt.Errorf("fabric agg: groups (%d) must divide leaves (%d)", cfg.Groups, cfg.Leaves)
		}
		perGroup := cfg.Leaves / cfg.Groups
		if cfg.Groups > 16 || perGroup > 16 || cfg.WorkersPerLeaf > 16 {
			return nil, fmt.Errorf("fabric agg: per-level fan-in caps at 16")
		}
		nodes[rootID] = aggNode{fanin: cfg.Groups, isRoot: true}
		for g := 0; g < cfg.Groups; g++ {
			gid := uint16(50 + g)
			nodes[gid] = aggNode{fanin: perGroup, parent: rootID, levelIdx: g}
			for i := 0; i < perGroup; i++ {
				id := leafIDs[g*perGroup+i]
				nodes[id] = aggNode{fanin: cfg.WorkersPerLeaf, parent: gid, levelIdx: i}
			}
		}
	}

	// Workers, racks in order: an open-loop sender per host, paced by
	// the network timer with a per-host staggered interval.
	interval := func(i int) netsim.Time {
		return 20*netsim.Microsecond + netsim.Time(float64(i%1009)*0.125)
	}
	bed, err := buildHierAgg(cfg.Target, nodes, nil, cfg.Rounds, cfg.Leaves, interval,
		func(n *netsim.Network, prog func(uint16) *p4.Program) (*netsim.Topo, error) {
			if cfg.Tiers == 3 {
				perGroup := cfg.Leaves / cfg.Groups
				return netsim.BuildFatTree(n, netsim.FatTreeSpec{
					Pods: cfg.Groups, EdgesPerPod: perGroup, AggsPerPod: 1,
					CoreIDs: []uint16{rootID},
					EdgeID:  func(pod, i int) uint16 { return leafIDs[pod*perGroup+i] },
					AggID:   func(pod, i int) uint16 { return uint16(50 + pod) },
					Prog:    prog,
				})
			}
			byID := func(_ int, id uint16) *p4.Program { return prog(id) }
			return netsim.BuildLeafSpine(n, netsim.LeafSpineSpec{
				LeafIDs: leafIDs, SpineIDs: []uint16{rootID}, LeafProg: byID, SpineProg: byID,
			})
		})
	if err != nil {
		return nil, fmt.Errorf("fabric agg: %w", err)
	}
	n, topo := bed.n, bed.topo
	topTier := len(topo.Tiers) - 1
	for l := 0; l < cfg.Leaves; l++ {
		for w := 0; w < cfg.WorkersPerLeaf; w++ {
			global := l*cfg.WorkersPerLeaf + w
			m := aggSender{target: leafIDs[l], mask: 1 << uint(w), home: uint8(l)}
			if cfg.Tiers == 1 {
				m = aggSender{target: rootID, mask: 1 << uint(global), home: uint8(l)}
			}
			bed.addWorker(uint16(1000+global), n.Device(leafIDs[l]), m)
		}
	}

	res := &FabricAggResult{
		Tiers: cfg.Tiers, Workers: workers, Rounds: cfg.Rounds,
		Devices: len(nodes), Expected: cfg.Rounds,
	}
	bed.collectRounds(func(_ *netsim.Host, _ uint64, ok bool) {
		res.Completed++
		if !ok {
			res.Mismatches++
		}
	})

	if res.Partitions, err = partition(n, cfg.Trace, cfg.Partitions); err != nil {
		return nil, err
	}
	bed.start(func(i int) netsim.Time { return 100*netsim.Nanosecond + netsim.Time(float64(i)*0.125) })
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
// single KVS server host homed behind an extra leaf, and runs one
// closed-loop client per rack.
func RunFabricCache(cfg FabricCacheConfig) (*FabricCacheResult, error) {
	cfg.Racks = orDefault(cfg.Racks, 3)
	cfg.Spines = orDefault(cfg.Spines, 2)
	cfg.TotalKeys = orDefault(cfg.TotalKeys, 32)
	cfg.CachedKeys = orDefault(cfg.CachedKeys, cfg.TotalKeys/2)
	if cfg.CachedKeys > cfg.TotalKeys {
		return nil, fmt.Errorf("fabric cache: cached keys %d out of range", cfg.CachedKeys)
	}
	cfg.RequestsPerClient = orDefault(cfg.RequestsPerClient, 64)
	bed, err := buildCacheBed(cfg.Target, cfg.Racks, cfg.Spines, cfg.CachedKeys)
	if err != nil {
		return nil, err
	}
	var sum CacheResult
	for r, client := range bed.clients {
		cl := (&cacheClient{h: client, dst: cacheServerID, device: bed.leafIDs[r],
			requests: cfg.RequestsPerClient, value: cacheStore, res: &sum,
			// Stagger racks so no two clients tie on the spine.
			keyOf: func(i int) uint64 { return uint64((i*7+r)%cfg.TotalKeys) + 1 },
		}).attach(bed.fab.spec)
		// Stagger initial issue per rack.
		bed.n.At(netsim.Time(r)*netsim.Microsecond, cl.issue)
	}
	if err := bed.n.RunAll(); err != nil {
		return nil, err
	}
	res := &FabricCacheResult{Racks: cfg.Racks, Requests: sum.Hits + sum.Misses,
		Hits: sum.Hits, Misses: sum.Misses, WrongValues: sum.WrongValues}
	if res.Requests > 0 {
		res.MeanResponseNs = sum.MeanResponseNs / float64(res.Requests)
		res.HitRate = float64(res.Hits) / float64(res.Requests)
	}
	res.SpineIngressBytes = bed.topo.TierIngressBytes(1)
	return res, nil
}

// FabricPaxosConfig parameterizes consensus across the fabric.
type FabricPaxosConfig struct {
	Commands int
	Target   passes.Target
}

// RunFabricPaxos runs consensus on the leaf/spine P4xos bed under
// RunPaxos's load.
func RunFabricPaxos(cfg FabricPaxosConfig) (*PaxosResult, error) {
	bed, err := buildPaxosBed(cfg.Target, false)
	if err != nil {
		return nil, err
	}
	return runPaxosLoad(bed.n, bed.spec, bed.client, bed.appHost, PaxosConfig{Commands: cfg.Commands})
}
