package apps

// netsimbench.go is the million-host scale scenario for the network
// simulator: a chain of AGG devices, each aggregating rounds from
// thousands of locally attached sender pairs (NUM_WORKERS=2 SwitchML
// protocol, SLOT_SIZE=4) and multicasting completed slots to two
// collector hosts per device. A fraction of pairs aggregate at the
// next device in the chain instead, so partitioned runs carry real
// cross-partition traffic through the conservative-lookahead windows.
//
// The load is agg.go's aggLoad: open loop and closure-free, packing
// into per-device scratch, so the steady state runs at zero
// allocations per event and the event order is independent of the
// partition count.

import (
	"fmt"
	gort "runtime"
	"time"

	"netcl/internal/netsim"
	"netcl/internal/passes"
	"netcl/internal/runtime"
)

// NetsimConfig parameterizes one scale run.
type NetsimConfig struct {
	// Hosts is the target total host count (senders + collectors);
	// rounded down so every device carries the same even sender count.
	Hosts int
	// Devices is the chain length (default 16; at most 16, the wiring
	// table budget).
	Devices int
	// Partitions cuts the network with SetPartitions (0 or 1 = one
	// partition).
	Partitions int
	// Rounds is the aggregation rounds per sender pair (default 2).
	Rounds int
	// RemoteEvery makes every Nth pair of a device aggregate at the
	// next device in the chain (default 64, 0 disables): the
	// cross-partition traffic source.
	RemoteEvery int
	// Faults injects seeded loss/jitter/duplication on every link.
	Faults netsim.FaultConfig
	// Trace enables per-host delivery hash chains (the determinism
	// witness; costs time at large scales).
	Trace bool
	// Target selects the compile target (default TNA).
	Target passes.Target
}

// NetsimResult reports one scale run.
type NetsimResult struct {
	Hosts       int     `json:"hosts"`
	Devices     int     `json:"devices"`
	Partitions  int     `json:"partitions"`
	Pairs       int     `json:"pairs"`
	RemotePairs int     `json:"remote_pairs"`
	Rounds      int     `json:"rounds"`
	LookaheadNs float64 `json:"lookahead_ns,omitempty"`
	// Events/WallNs/EventsPerSec measure the run (timer arming
	// included); BytesPerHost is the heap cost of the built topology
	// and AllocsPerEvent the steady-state allocation rate.
	Events         uint64  `json:"events"`
	WallNs         float64 `json:"wall_ns"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerHost   float64 `json:"bytes_per_host"`
	PeakQueue      int     `json:"peak_queue"`
	// BufferPeak is the packet-buffer working set (high-water mark of
	// checked-out pooled buffers, summed over partitions).
	BufferPeak int     `json:"buffer_peak"`
	SimEndNs   float64 `json:"sim_end_ns"`
	// Completed counts collector deliveries of completed slots
	// (Expected = 2 collectors × pairs × rounds when faultless).
	Completed  uint64 `json:"completed"`
	Expected   uint64 `json:"expected"`
	Mismatches uint64 `json:"mismatches"`
	TraceHash  uint64 `json:"trace_hash,omitempty"`
}

// collTally is one collector's verification count, folded after the
// run (each collector is written only by its own partition).
type collTally struct {
	completed, mismatches uint64
}

// readMem returns settled heap stats (forces a GC so HeapAlloc
// reflects live bytes, not float).
func readMem() (heapAlloc, mallocs uint64) {
	gort.GC()
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.Mallocs
}

// RunNetsimScale builds and runs one scale scenario.
func RunNetsimScale(cfg NetsimConfig) (*NetsimResult, error) {
	cfg.Hosts = orDefault(cfg.Hosts, 10_000)
	cfg.Devices = orDefault(cfg.Devices, 16)
	if cfg.Devices > 256 {
		// aggSender.home (the per-device scratch selector) is a uint8.
		return nil, fmt.Errorf("netsimbench: %d devices exceed the chain budget (256)", cfg.Devices)
	}
	cfg.Rounds = orDefault(cfg.Rounds, 2)
	devices := cfg.Devices
	hostsPerDev := cfg.Hosts / devices
	pairs := (hostsPerDev - 2) / 2 // two hosts per device are collectors
	if pairs < 1 {
		return nil, fmt.Errorf("netsimbench: %d hosts spread over %d devices leaves no sender pairs", cfg.Hosts, devices)
	}
	remoteIncoming := 0
	if cfg.RemoteEvery > 0 {
		remoteIncoming = (pairs + cfg.RemoteEvery - 1) / cfg.RemoteEvery
	}
	numSlots := pairs + remoteIncoming
	if numSlots*2 > 65536 {
		return nil, fmt.Errorf("netsimbench: %d slots per device overflow the 16-bit agg index (max %d)", numSlots, 65536/2)
	}

	app := aggWith(map[string]uint64{"NUM_SLOTS": uint64(numSlots), "SLOT_SIZE": 4, "NUM_WORKERS": 2})
	ids := make([]uint16, devices)
	for dv := range ids {
		ids[dv] = uint16(dv + 1)
	}
	fab, err := compileFabric(cfg.Target, nil, func(uint16) *App { return app }, ids...)
	if err != nil {
		return nil, fmt.Errorf("netsimbench: %w", err)
	}

	res := &NetsimResult{
		Hosts: devices * (2 + 2*pairs), Devices: devices,
		Pairs: devices * pairs, Rounds: cfg.Rounds,
	}

	// Chain interconnect at 2µs latency (the conservative-lookahead
	// window) from the topology builder; shortest-path transit routes
	// from the route installer. In transit the fwd key is the target
	// DEVICE id (computed packets multicast or reflect, never pass), so
	// the installed device-destination routes — one entry per other
	// device, not per host — are the complete table.
	n := netsim.NewNetwork()
	topo, err := netsim.BuildChain(n, netsim.ChainSpec{
		IDs:  ids,
		Prog: fab.prog,
		Link: netsim.LinkClass{LatencyNs: 2 * netsim.Microsecond},
	})
	if err != nil {
		return nil, err
	}
	devs := topo.Tiers[0]
	if err := topo.InstallRoutes(netsim.RouteOptions{}); err != nil {
		return nil, err
	}

	// Hosts: collectors on ports 3 and 4 (multicast group 42, the group
	// id the AGG kernel emits), senders from port 5. Scenario-side state
	// (the load's roles and scratch, the tallies) is preallocated before
	// the heap snapshot so BytesPerHost measures the simulator's per-host
	// cost — host and link slabs, SoA columns, id map — not the driver's
	// bookkeeping or the devices' register files.
	load := newAggLoad(n, fab.spec, res.Hosts, devices, cfg.Rounds, numSlots, func(i int) netsim.Time {
		return 5*netsim.Microsecond + netsim.Time(float64(i%1009)*0.125)
	})
	tallies := make([]collTally, 2*devices)
	heapBefore, _ := readMem()
	collID := func(dv, c int) uint16 { return uint16(0xF000 + dv*2 + c) }
	remotePairs := 0
	for dv := 0; dv < devices; dv++ {
		for c := 0; c < 2; c++ {
			col := n.AddHost(collID(dv, c))
			// Collector links are latency-only: at 100G every completed
			// slot of a device serializes onto two shared links, and the
			// modeled congestion backlog — not the engine — would dominate
			// both the buffer working set and the simulated end time.
			n.Connect(col, devs[dv], 3+c).BandwidthGbps = 0
			t := &tallies[2*dv+c]
			load.add(aggSender{collector: true})
			load.collect(col, 2, func(_ *netsim.Host, _ uint64, ok bool) {
				t.completed++
				if !ok {
					t.mismatches++
				}
			})
		}
		devs[dv].SetMulticastGroup(42, []int{3, 4})
		for p := 0; p < pairs; p++ {
			target, slot := dv, p
			if cfg.RemoteEvery > 0 && p%cfg.RemoteEvery == 0 {
				target = (dv + 1) % devices
				slot = pairs + p/cfg.RemoteEvery
				remotePairs++
			}
			for half := 0; half < 2; half++ {
				n.Connect(n.AddHost(uint16(len(load.senders))), devs[dv], 5+2*p+half)
				load.add(aggSender{
					slot: uint16(slot), target: uint16(target + 1), dst: collID(target, 0),
					mask: 1 << half, w: uint16(half), home: uint8(dv),
				})
			}
		}
	}
	res.RemotePairs = remotePairs

	n.InjectFaults(cfg.Faults)
	if res.Partitions, err = partition(n, cfg.Trace, cfg.Partitions); err != nil {
		return nil, err
	}
	res.LookaheadNs = float64(n.Lookahead())
	heapBuilt, _ := readMem()
	res.BytesPerHost = float64(heapBuilt-heapBefore) / float64(res.Hosts)

	// Prewarm the packet-buffer pools to the expected in-flight working
	// set so the run itself allocates no buffers. The set is bounded by
	// the send rate times the flight time, not by the host count: the
	// timer stagger paces one send per 0.125 ns no matter the scale, so
	// beyond ~10^5 senders the cap is what matters. Prewarm happens
	// after the BytesPerHost snapshot (it is working set, not topology)
	// and before the allocation baseline (it is build-time, not
	// steady-state); BufferPeak reports the actual high-water mark.
	senders := res.Hosts - 2*devices
	warm := min(senders+devices*pairs+1024, 98304)
	n.PrewarmBuffers(warm, runtime.FrameOverhead+fab.spec.Size()+16)
	_, mallocsBuilt := readMem()

	start := time.Now()
	load.start(func(i int) netsim.Time { return 100*netsim.Nanosecond + netsim.Time(float64(i)*0.125) })
	if err := n.RunAll(); err != nil {
		return nil, err
	}
	res.WallNs = float64(time.Since(start))
	var ms gort.MemStats
	gort.ReadMemStats(&ms)

	res.Events = n.TotalProcessed()
	res.PeakQueue = n.TotalPeakQueue()
	res.BufferPeak = n.BufferPeak()
	res.SimEndNs = float64(n.Now())
	if res.WallNs > 0 {
		res.EventsPerSec = float64(res.Events) / (res.WallNs / 1e9)
	}
	if res.Events > 0 {
		res.AllocsPerEvent = float64(ms.Mallocs-mallocsBuilt) / float64(res.Events)
	}
	for _, t := range tallies {
		res.Completed += t.completed
		res.Mismatches += t.mismatches
	}
	res.Expected = 2 * uint64(res.Pairs) * uint64(cfg.Rounds)
	if cfg.Trace {
		res.TraceHash = n.TraceHash()
	}
	return res, nil
}
