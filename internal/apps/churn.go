package apps

// churn.go is the production-churn suite: timeline-driven failure
// scenarios run against live open-loop load and scored with the SLO
// machinery in slo.go. A timeline is a set of discrete events —
// CrashDevice (Pause), RestoreDevice, FailLink (SetPortDown),
// ShiftZipf (per-client popularity swap), ApplyBatch (a transactional
// WriteBatch on one switch), ReelectCoordinator (drain + standby
// restore + re-route) — scheduled at fixed virtual times through the
// netsim At hooks, so every event fires at the same simulated instant
// regardless of the partition count and the runs stay hash-chain
// identical to the single-partition run.
//
// Four scenarios ship (ROADMAP item 5):
//   1. AGG aggregator crash with pool-state failover: drain the dead
//      switch's slot registers via ReadRegisters, replay into a
//      standby (compiled with the primary's logical device id) as one
//      WriteBatch, and re-route around the corpse with RerouteBatches
//      — plus a transient fabric-link failure later in the run.
//   2. P4xos coordinator loss and re-election: the instance counter
//      moves to a standby spine, multicast groups are rebuilt from the
//      surviving adjacency, and routes to the logical coordinator id
//      are rewritten transactionally.
//   3. NetCache hot-key churn: the Zipf popularity shifts mid-run, the
//      control plane repopulates every rack cache in one batch per
//      switch while misses keep serving from the backing store.
//   4. Rolling reconfig: every rack cache's values are rewritten one
//      switch at a time under live load; PR 6's generation pin means
//      no response may mix old and new words.

import (
	"fmt"
	"math"
	"sort"

	"netcl/internal/bmv2"
	"netcl/internal/netsim"
	"netcl/internal/p4"
	"netcl/internal/passes"
	"netcl/internal/runtime"
	"netcl/internal/wire"
)

// ChurnConfig parameterizes one churn scenario run.
type ChurnConfig struct {
	// Partitions cuts the network with SetPartitions (0 or 1 = one
	// partition).
	Partitions int
	// Trace enables delivery hash chains (the determinism witness).
	Trace  bool
	Target passes.Target
}

func (c *ChurnConfig) defaults() {
	if c.Target == "" {
		c.Target = passes.TargetTNA
	}
}

// ChurnEvent is one timeline entry, recorded for the report.
type ChurnEvent struct {
	Name string  `json:"name"`
	AtNs float64 `json:"at_ns"`
}

// ChurnResult is one scored scenario run.
type ChurnResult struct {
	Name       string  `json:"name"`
	Partitions int     `json:"partitions"`
	DurationNs float64 `json:"duration_ns"`
	// Requests/Completed/Lost count the scenario's request unit
	// (aggregation rounds, consensus commands, cache GETs).
	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	Lost      int `json:"lost"`
	// Errors counts wrong results: bad sums, torn values, duplicate
	// deliveries. Must be zero — churn may lose requests, never corrupt
	// them.
	Errors    int          `json:"errors"`
	Hits      int          `json:"hits,omitempty"`
	Misses    int          `json:"misses,omitempty"`
	Events    []ChurnEvent `json:"events"`
	SLO       *SLOReport   `json:"slo"`
	TraceHash uint64       `json:"trace_hash,omitempty"`
	SimEvents uint64       `json:"sim_events"`
}

// drainRegisters snapshots the named register files of a switch: the
// bulk read half of pool-state failover.
func drainRegisters(sw *bmv2.Switch, names []string) (map[string][]uint64, error) {
	snap := map[string][]uint64{}
	for _, name := range names {
		cells, err := sw.ReadRegisters(name)
		if err != nil {
			return nil, err
		}
		snap[name] = cells
	}
	return snap, nil
}

// restoreBatch turns a register snapshot into one transactional
// WriteBatch, skipping zero cells (unwritten pages read as zero on the
// standby anyway, so replaying them would only materialize pages).
func restoreBatch(snap map[string][]uint64) *bmv2.WriteBatch {
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	b := bmv2.NewWriteBatch()
	for _, name := range names {
		for idx, v := range snap[name] {
			if v != 0 {
				b.RegisterWrite(name, idx, v)
			}
		}
	}
	return b
}

// ---------------------------------------------------------------------
// Scenario 1: AGG aggregator crash → pool-state failover to a standby.
// ---------------------------------------------------------------------

// RunChurnAggFailover runs hierarchical aggregation on a two-pod
// fat-tree where each pod has a primary aggregator and a cold standby
// compiled with the primary's logical device id. Mid-run the pod-0
// primary crashes; its slot registers are drained, replayed into the
// standby in one WriteBatch, and the fabric re-routes the logical id
// to the standby — a round whose contributions straddle the crash
// completes with the correct sum only because the partial aggregation
// state moved. Later a fabric link fails transiently, losing the
// rounds issued across it until it restores.
func RunChurnAggFailover(cfg ChurnConfig) (*ChurnResult, error) {
	cfg.defaults()
	rounds := 40
	const (
		rootID      = 100
		collectorID = 0xF000
		pods        = 2
		edgesPerPod = 2
		perEdge     = 2 // workers per edge switch
	)
	workers := pods * edgesPerPod * perEdge
	podWorkers := edgesPerPod * perEdge

	edgeID := func(p, i int) uint16 { return uint16(10 + p*edgesPerPod + i) }
	aggID := func(p, i int) uint16 { return uint16(50 + p*2 + i) }
	primary := [pods]uint16{aggID(0, 0), aggID(1, 0)}
	standby := [pods]uint16{aggID(0, 1), aggID(1, 1)}

	// The logical aggregation tree: pod primaries reduce their pod's
	// workers, the core completes. Standbys compile as their primary
	// (same logical id, same tree position); edges are pure transit.
	nodes := map[uint16]aggNode{
		rootID: {id: rootID, fanin: pods, isRoot: true},
	}
	for p := 0; p < pods; p++ {
		nodes[primary[p]] = aggNode{id: primary[p], fanin: podWorkers, parent: rootID, levelIdx: p}
		for i := 0; i < edgesPerPod; i++ {
			nodes[edgeID(p, i)] = aggNode{id: edgeID(p, i), fanin: podWorkers, parent: primary[p]}
		}
	}
	logical := map[uint16]uint16{standby[0]: primary[0], standby[1]: primary[1]}

	var spec *runtime.MessageSpec
	progFor := func(id uint16) *p4.Program {
		lid := id
		if l, ok := logical[id]; ok {
			lid = l
		}
		prog, specs, err := fabricAggProg(nodes[lid], rounds, cfg.Target)
		if err != nil {
			panic(fmt.Sprintf("churn agg: device %d: %v", id, err))
		}
		spec = specs[1]
		return prog
	}

	n := netsim.NewNetwork()
	n.MaxEvents = 50_000_000
	topo, err := netsim.BuildFatTree(n, netsim.FatTreeSpec{
		Pods: pods, EdgesPerPod: edgesPerPod, AggsPerPod: 2,
		CoreIDs: []uint16{rootID},
		EdgeID:  edgeID, AggID: aggID, Prog: progFor,
	})
	if err != nil {
		return nil, err
	}
	if err := topo.InstallRoutes(netsim.RouteOptions{ECMP: true}); err != nil {
		return nil, err
	}

	root := n.Device(rootID)
	collector := n.AddHost(collectorID)
	_, collPort := topo.AttachHost(collector, root, netsim.LinkClass{})
	root.SetMulticastGroup(42, []int{collPort})

	// Workers: two per edge, targeting their pod primary with their
	// pod-local contribution bit. Worker g's sends for round r are
	// spread across the round by the pod-local phase j·6µs, so a crash
	// can land between two contributions of the same round.
	type workerMeta struct {
		target uint16
		mask   uint16
		home   uint8
		next   int
	}
	meta := make([]workerMeta, 0, workers+1)
	meta = append(meta, workerMeta{next: rounds}) // collector never sends
	for p := 0; p < pods; p++ {
		for i := 0; i < edgesPerPod; i++ {
			edge := n.Device(edgeID(p, i))
			for w := 0; w < perEdge; w++ {
				j := i*perEdge + w // pod-local position 0..podWorkers-1
				h := n.AddHost(uint16(1000 + p*podWorkers + j))
				topo.AttachHost(h, edge, netsim.LinkClass{})
				meta = append(meta, workerMeta{
					target: primary[p], mask: 1 << uint(j), home: uint8(p*edgesPerPod + i),
				})
			}
		}
	}
	phase := func(g int) netsim.Time {
		j := g % podWorkers
		return 100*netsim.Nanosecond + netsim.Time(float64(j)*6000) + netsim.Time(float64(g)*0.125)
	}
	interval := func(g int) netsim.Time {
		return 24*netsim.Microsecond + netsim.Time(float64(g%1009)*0.125)
	}

	res := &ChurnResult{Name: "agg-failover", Requests: rounds}
	complete := make([]float64, rounds)
	for r := range complete {
		complete[r] = -1
	}
	vals := make([]uint64, fabricSlotSize)
	slot := make([]uint64, 1)
	exp := make([]uint64, 1)
	argv := [][]uint64{slot, nil, exp, vals}
	collector.SetReceive(func(h *netsim.Host, msg []byte) {
		if _, err := runtime.UnpackInto(spec, msg, argv); err != nil {
			res.Errors++
			return
		}
		r := exp[0]
		if slot[0] != r || r >= uint64(rounds) {
			res.Errors++
			return
		}
		w := uint64(workers)
		for i := 0; i < fabricSlotSize; i++ {
			if vals[i] != w*(r+uint64(i))+w*(w-1)/2 {
				res.Errors++
				return
			}
		}
		if complete[r] < 0 {
			complete[r] = float64(h.Now())
		}
	})

	type aggScratch struct {
		buf                   []byte
		argv                  [][]uint64
		slot, mask, exp, vals []uint64
	}
	scratch := make([]aggScratch, pods*edgesPerPod)
	for l := range scratch {
		sc := &scratch[l]
		sc.buf = make([]byte, 0, spec.Size())
		sc.slot, sc.mask, sc.exp = make([]uint64, 1), make([]uint64, 1), make([]uint64, 1)
		sc.vals = make([]uint64, fabricSlotSize)
		sc.argv = [][]uint64{sc.slot, sc.mask, sc.exp, sc.vals}
	}
	n.OnTimer(func(h *netsim.Host) {
		i := h.Index()
		m := &meta[i]
		if m.next >= rounds {
			return
		}
		r := m.next
		m.next++
		g := i - 1
		sc := &scratch[m.home]
		sc.slot[0] = uint64(r)
		sc.mask[0] = uint64(m.mask)
		sc.exp[0] = uint64(r)
		for j := range sc.vals {
			sc.vals[j] = uint64(r) + uint64(j) + uint64(g)
		}
		hdr := runtime.Message{Src: h.ID, Dst: collectorID, Device: m.target, Comp: 1}.Header()
		msg, err := runtime.PackAppend(sc.buf[:0], spec, hdr, sc.argv)
		if err != nil {
			return
		}
		sc.buf = msg[:0]
		h.Send(msg)
		if m.next < rounds {
			h.StartTimer(interval(i))
		}
	})

	// Timeline. The crash lands just after pod-0 worker j=1's round-r*
	// contribution is processed at the primary (send + ~3.4µs of
	// transit): workers j∈{0,1} live in the primary's registers, the
	// drain and the standby restore finish inside the 6µs gap before
	// j=2 sends, so round r* completes on the standby with the correct
	// sum — if and only if the partial pool state was replayed.
	dev50 := n.Device(primary[0])
	dev51 := n.Device(standby[0])
	rStar := 2 * rounds / 5
	base := float64(phase(1)) + float64(rStar)*float64(interval(1)) // j=1's round-r* send
	tc := base + 3700 + 0.3
	td := tc + 200
	// tr − td ≥ the 2µs lookahead: the drain and the restore are in
	// different partitions when k > 1, and the window barrier between
	// them is what publishes the snapshot.
	tr := td + 2000.3

	// Later, the edge-13↔pod-1-primary link fails transiently: the
	// rounds whose contributions cross it during the outage are lost
	// (the availability dip), then service recovers on restore.
	edge13 := n.Device(edgeID(1, 1))
	agg52 := n.Device(primary[1])
	portTo52 := topo.PortTo(edge13, agg52)
	tl := 100 + float64(rStar+3)*24000 + 10000 + 0.3
	tl2 := tl + 28000

	// Re-route around the dead primary: computed against the live
	// tables at setup (they do not change before tr), applied per
	// device in its own partition at tr.
	reroute, err := topo.RerouteBatches(netsim.RerouteOptions{
		Dead:     []*netsim.Device{dev50},
		Redirect: map[uint16]*netsim.Device{primary[0]: dev51},
	})
	if err != nil {
		return nil, err
	}

	if cfg.Trace {
		n.EnableTrace()
	}
	if err := n.SetPartitions(cfg.Partitions); err != nil {
		return nil, err
	}
	res.Partitions = n.Partitions()

	poolRegs := []string{"reg_Bitmap", "reg_Count", "reg_Exp"}
	for i := 0; i < fabricSlotSize; i++ {
		poolRegs = append(poolRegs, fmt.Sprintf("reg_Agg__%d", i))
	}
	var snap map[string][]uint64
	var drainErr error
	dev50.At(netsim.Time(tc), func() { dev50.Pause() })
	dev50.At(netsim.Time(td), func() { snap, drainErr = drainRegisters(dev50.SW, poolRegs) })
	dev51.At(netsim.Time(tr), func() {
		if drainErr != nil || snap == nil {
			return
		}
		if b := restoreBatch(snap); b.Len() > 0 {
			if _, err := dev51.SW.Write(b); err != nil {
				drainErr = err
			}
		}
	})
	for _, db := range reroute {
		db := db
		db.Dev.At(netsim.Time(tr), func() { db.Dev.SW.Write(db.Batch) })
	}
	edge13.At(netsim.Time(tl), func() { edge13.SetPortDown(portTo52, true) })
	edge13.At(netsim.Time(tl2), func() { edge13.SetPortDown(portTo52, false) })
	res.Events = []ChurnEvent{
		{Name: "CrashDevice(50)", AtNs: tc},
		{Name: "DrainRegisters(50)", AtNs: td},
		{Name: "RestoreDevice(51)+Reroute", AtNs: tr},
		{Name: "FailLink(13-52)", AtNs: tl},
		{Name: "RestoreLink(13-52)", AtNs: tl2},
	}

	for i := 1; i < len(meta); i++ {
		n.HostAt(i).StartTimer(phase(i - 1))
	}
	if err := n.RunAll(); err != nil {
		return nil, err
	}
	if drainErr != nil {
		return nil, fmt.Errorf("churn agg: failover: %w", drainErr)
	}

	// Score: a round's issue time is its last contribution's send time
	// (closed form — the timer schedule is deterministic).
	samples := make([]Sample, 0, rounds)
	for r := 0; r < rounds; r++ {
		var issue float64
		for g := 0; g < workers; g++ {
			t := float64(phase(g)) + float64(r)*float64(interval(g+1))
			if t > issue {
				issue = t
			}
		}
		s := Sample{IssueNs: issue}
		if complete[r] >= 0 {
			s.OK = true
			s.RTTNs = complete[r] - issue
			res.Completed++
		} else {
			res.Lost++
		}
		samples = append(samples, s)
	}
	res.SLO = ScoreSLO(samples, tc, tl2, SLOConfig{
		WindowNs: 48e3, DeadlineNs: 15e3, AvailFrac: 0.9, EpsilonP99: 0.25,
	})
	res.DurationNs = float64(n.Now())
	res.SimEvents = n.TotalProcessed()
	if cfg.Trace {
		res.TraceHash = n.TraceHash()
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Scenario 2: P4xos coordinator loss → re-election onto a standby.
// ---------------------------------------------------------------------

// paxosStandby is the physical id of the spare spine that takes over
// the coordinator role (compiled with PaxosLeader's logical id).
const paxosStandby = 6

// RunChurnPaxosReelect runs consensus on a leaf/spine fabric — leader
// and learner as spines, acceptors as leaves, plus a standby spine
// compiled with the leader's logical id — and kills the coordinator
// mid-stream. Re-election is a timeline: drain the dead leader's
// registers (the Instance allocator), replay them into the standby in
// one WriteBatch, and re-route the logical coordinator id. Instance
// numbering must continue where the dead leader stopped: without the
// counter replay the standby would reissue instance numbers the
// learner has already marked Done and silently swallow every
// subsequent command.
func RunChurnPaxosReelect(cfg ChurnConfig) (*ChurnResult, error) {
	cfg.defaults()
	commands := 90
	app := ByName("PAXOS")
	var specs map[uint8]*runtime.MessageSpec
	prog := func(i int, id uint16) *p4.Program {
		lid := id
		if lid == paxosStandby {
			lid = PaxosLeader
		}
		p, sp, err := CompileApp(app, cfg.Target, lid)
		if err != nil {
			panic(fmt.Sprintf("churn paxos: device %d: %v", id, err))
		}
		specs = sp
		return p
	}

	n := netsim.NewNetwork()
	n.MaxEvents = 10_000_000
	topo, err := netsim.BuildLeafSpine(n, netsim.LeafSpineSpec{
		LeafIDs:  []uint16{PaxosAcceptor1, PaxosAcceptor2, PaxosAcceptor3},
		SpineIDs: []uint16{PaxosLeader, PaxosLearner, paxosStandby},
		LeafProg: prog, SpineProg: prog,
	})
	if err != nil {
		return nil, err
	}
	leader := n.Device(PaxosLeader)
	learner := n.Device(PaxosLearner)
	standby := n.Device(paxosStandby)

	// The client homes on an acceptor leaf, not the leader: its uplink
	// must survive the coordinator's death, so requests transit the
	// fabric on the logical id and can be re-routed.
	client := n.AddHost(100)
	appHost := n.AddHost(101)
	topo.AttachHost(client, n.Device(PaxosAcceptor1), netsim.LinkClass{})
	topo.AttachHost(appHost, learner, netsim.LinkClass{})
	if err := topo.InstallRoutes(netsim.RouteOptions{ECMP: true, HostRoutes: true}); err != nil {
		return nil, err
	}

	// Acceptor multicast groups on both coordinators: the standby's
	// group is static config (it only fires once leader traffic is
	// re-routed here), so it is set at build time, not during failover.
	for _, coord := range []*netsim.Device{leader, standby} {
		var accPorts []int
		for _, acc := range topo.Tiers[0] {
			accPorts = append(accPorts, topo.PortTo(coord, acc))
		}
		coord.SetMulticastGroup(20, accPorts)
	}
	for _, acc := range topo.Tiers[0] {
		acc.SetMulticastGroup(30, []int{topo.PortTo(acc, learner)})
	}

	spec := specs[1]
	res := &ChurnResult{Name: "paxos-reelect", Requests: commands}
	complete := make([]float64, commands)
	for c := range complete {
		complete[c] = -1
	}
	seenInst := map[uint64]bool{}
	appHost.SetReceive(func(h *netsim.Host, msg []byte) {
		typ := make([]uint64, 1)
		inst := make([]uint64, 1)
		v := make([]uint64, 8)
		if _, err := runtime.Unpack(spec, msg, [][]uint64{typ, inst, nil, nil, nil, v}); err != nil {
			res.Errors++
			return
		}
		if typ[0] != 4 { // DELIVER
			return
		}
		// Drops shift instance numbering, so the command index rides in
		// the value. A reused instance number is corruption: the standby
		// restarted the allocator instead of inheriting it.
		if seenInst[inst[0]] {
			res.Errors++
			return
		}
		seenInst[inst[0]] = true
		c := int(v[0]) - 1000
		if c < 0 || c >= commands || complete[c] >= 0 {
			res.Errors++
			return
		}
		complete[c] = float64(h.Now())
	})

	const start = 500
	const step = 15000.25
	issueAt := func(c int) float64 { return start + float64(c)*step }
	sent := 0
	n.OnTimer(func(h *netsim.Host) {
		if sent >= commands {
			return
		}
		c := sent
		sent++
		vals := make([]uint64, 8)
		vals[0] = uint64(1000 + c)
		msg, err := runtime.Pack(spec,
			runtime.Message{Src: 100, Dst: 101, Device: PaxosLeader, Comp: 1}.Header(),
			[][]uint64{{1}, {0}, {0}, {0}, {0}, vals})
		if err != nil {
			return
		}
		h.Send(msg)
		if sent < commands {
			h.StartTimer(netsim.Time(step))
		}
	})

	// Timeline: crash lands after command c*'s request cleared the
	// leader but before the next one arrives; detection + drain takes
	// 1µs, the new coordinator is serving 20µs later.
	cStar := 2 * commands / 5
	tc := issueAt(cStar) + 7000.3
	td := tc + 1000.125
	tre := td + 20000.25

	reroute, err := topo.RerouteBatches(netsim.RerouteOptions{
		Dead:       []*netsim.Device{leader},
		Redirect:   map[uint16]*netsim.Device{PaxosLeader: standby},
		HostRoutes: true,
	})
	if err != nil {
		return nil, err
	}

	if cfg.Trace {
		n.EnableTrace()
	}
	if err := n.SetPartitions(cfg.Partitions); err != nil {
		return nil, err
	}
	res.Partitions = n.Partitions()

	var snap map[string][]uint64
	var drainErr error
	leader.At(netsim.Time(tc), func() { leader.Pause() })
	leader.At(netsim.Time(td), func() { snap, drainErr = drainRegisters(leader.SW, leader.SW.RegisterNames()) })
	standby.At(netsim.Time(tre), func() {
		if drainErr != nil || snap == nil {
			return
		}
		if b := restoreBatch(snap); b.Len() > 0 {
			if _, err := standby.SW.Write(b); err != nil {
				drainErr = err
			}
		}
	})
	for _, db := range reroute {
		db := db
		db.Dev.At(netsim.Time(tre), func() { db.Dev.SW.Write(db.Batch) })
	}
	res.Events = []ChurnEvent{
		{Name: fmt.Sprintf("CrashDevice(%d)", PaxosLeader), AtNs: tc},
		{Name: fmt.Sprintf("DrainRegisters(%d)", PaxosLeader), AtNs: td},
		{Name: fmt.Sprintf("ReelectCoordinator(%d)+Reroute", paxosStandby), AtNs: tre},
	}

	client.StartTimer(netsim.Time(float64(start)))
	if err := n.RunAll(); err != nil {
		return nil, err
	}
	if drainErr != nil {
		return nil, fmt.Errorf("churn paxos: re-election: %w", drainErr)
	}

	samples := make([]Sample, 0, commands)
	for c := 0; c < commands; c++ {
		s := Sample{IssueNs: issueAt(c)}
		if complete[c] >= 0 {
			s.OK = true
			s.RTTNs = complete[c] - s.IssueNs
			res.Completed++
		} else {
			res.Lost++
		}
		samples = append(samples, s)
	}
	res.SLO = ScoreSLO(samples, tc, tre, SLOConfig{
		WindowNs: 60e3, DeadlineNs: 15e3, AvailFrac: 0.7, EpsilonP99: 0.25,
	})
	res.DurationNs = float64(n.Now())
	res.SimEvents = n.TotalProcessed()
	if cfg.Trace {
		res.TraceHash = n.TraceHash()
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Scenarios 3 & 4: NetCache under hot-key churn / rolling reconfig.
// ---------------------------------------------------------------------

// splitmix64 steps a per-client deterministic RNG: partition-count
// invariance needs every random draw tied to the client, never to a
// shared stream.
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// zipfCDF precomputes the cumulative Zipf(s) distribution over n ranks
// for inverse-transform sampling.
func zipfCDF(n int, s float64) []float64 {
	w := make([]float64, n)
	tot := 0.0
	for r := 0; r < n; r++ {
		w[r] = math.Pow(float64(r+1), -s)
		tot += w[r]
	}
	c := 0.0
	for r := range w {
		c += w[r] / tot
		w[r] = c
	}
	w[n-1] = 1
	return w
}

// churnClient is one open-loop cache client's private state: an RNG, a
// popularity epoch, per-key FIFO queues of in-flight issue times, and
// the scored samples. All of it is single-writer (the client's own
// timer/receive/At callbacks), so partitioned runs race on nothing.
type churnClient struct {
	rng      uint64
	epoch    int
	sent     int
	inflight map[uint64][]float64
	samples  []Sample
	hits     int
	misses   int
	errors   int
}

// cacheChurnFabric is the shared scenario 3/4 test bed: a leaf/spine
// Clos with one cache per rack leaf, a backing-store server behind an
// extra home leaf, and one open-loop client per rack.
type cacheChurnFabric struct {
	n       *netsim.Network
	topo    *netsim.Topo
	spec    *runtime.MessageSpec
	leafIDs []uint16
	clients []*netsim.Host
	cs      []churnClient // indexed by host index
}

const (
	cacheChurnRacks  = 3
	cacheChurnTotal  = 32 // key space
	cacheChurnCached = 16 // cache capacity per rack
)

// cacheValueOf is the backing store's truth: generation g of key's
// word w. The server always serves generation 0; rolling reconfig
// rewrites caches to generation 1, and a response is torn if its words
// disagree on g.
func cacheValueOf(key uint64, w, g int) uint64 {
	return key*1000 + uint64(w) + uint64(g)*1_000_000
}

func buildCacheChurnFabric(target passes.Target) (*cacheChurnFabric, error) {
	app := ByName("CACHE")
	f := &cacheChurnFabric{}
	prog := func(i int, id uint16) *p4.Program {
		p, specs, err := CompileApp(app, target, id)
		if err != nil {
			panic(fmt.Sprintf("churn cache: device %d: %v", id, err))
		}
		f.spec = specs[1]
		return p
	}

	n := netsim.NewNetwork()
	n.MaxEvents = 50_000_000
	f.n = n
	f.leafIDs = make([]uint16, cacheChurnRacks+1) // racks + server home
	for i := range f.leafIDs {
		f.leafIDs[i] = uint16(10 + i)
	}
	topo, err := netsim.BuildLeafSpine(n, netsim.LeafSpineSpec{
		LeafIDs: f.leafIDs, SpineIDs: []uint16{80, 81},
		LeafProg: prog, SpineProg: prog,
	})
	if err != nil {
		return nil, err
	}
	f.topo = topo

	const serverID = 0x2000
	server := n.AddHost(serverID)
	topo.AttachHost(server, n.Device(f.leafIDs[cacheChurnRacks]), netsim.LinkClass{})
	f.clients = make([]*netsim.Host, cacheChurnRacks)
	for r := 0; r < cacheChurnRacks; r++ {
		f.clients[r] = n.AddHost(uint16(0x1000 + r))
		topo.AttachHost(f.clients[r], n.Device(f.leafIDs[r]), netsim.LinkClass{})
	}
	if err := topo.InstallRoutes(netsim.RouteOptions{ECMP: true, HostRoutes: true}); err != nil {
		return nil, err
	}
	for r := 0; r < cacheChurnRacks; r++ {
		if err := populateCache(n.Device(f.leafIDs[r]), cacheChurnCached,
			func(key uint64, w int) uint64 { return cacheValueOf(key, w, 0) }); err != nil {
			return nil, err
		}
	}

	server.SetProcessingNs(7600 * netsim.Nanosecond)
	server.SetReceive(func(h *netsim.Host, msg []byte) {
		key := make([]uint64, 1)
		op := make([]uint64, 1)
		hdr, err := runtime.Unpack(f.spec, msg, [][]uint64{op, key, nil, nil, nil})
		if err != nil || op[0] != 1 {
			return
		}
		vals := make([]uint64, CacheWords)
		for w := range vals {
			vals[w] = cacheValueOf(key[0], w, 0)
		}
		reply, err := runtime.Pack(f.spec, wire.Header{
			Src: serverID, Dst: hdr.Src, From: wire.None, To: wire.None, Comp: 1,
		}, [][]uint64{op, key, vals, {0}, nil})
		if err != nil {
			return
		}
		h.Send(reply)
	})

	f.cs = make([]churnClient, n.Hosts())
	for r := 0; r < cacheChurnRacks; r++ {
		c := &f.cs[f.clients[r].Index()]
		c.rng = 0x9E3779B97F4A7C15 * uint64(r+3)
		c.inflight = map[uint64][]float64{}
	}
	return f, nil
}

// cacheKeyOf maps a popularity rank to a key under the given epoch:
// epoch 0's hot head is keys 1..16 (exactly the cached set), epoch 1
// rotates the head onto keys 17..32 — all misses until the control
// plane repopulates.
func cacheKeyOf(epoch, rank int) uint64 {
	if epoch == 0 {
		return uint64(rank + 1)
	}
	return uint64((rank+cacheChurnCached)%cacheChurnTotal) + 1
}

// startCacheClients arms the open-loop per-rack load: client r issues
// perClient GETs on its own deterministic schedule, sampling keys from
// Zipf(1.2) through its epoch. maxGen bounds the accepted value
// generation (0 = only the base values, 1 = rolling upgrade allowed).
func (f *cacheChurnFabric) startCacheClients(perClient, maxGen int) (startAt func(r int) float64, stepOf func(r int) float64) {
	cdf := zipfCDF(cacheChurnTotal, 1.2)
	startAt = func(r int) float64 { return 300 + 700*float64(r) }
	stepOf = func(r int) float64 { return 5000 + 97*float64(r) + 0.375 }
	f.n.OnTimer(func(h *netsim.Host) {
		c := &f.cs[h.Index()]
		if c.inflight == nil || c.sent >= perClient {
			return
		}
		c.sent++
		u := float64(splitmix64(&c.rng)>>11) / (1 << 53)
		rank := 0
		for rank < len(cdf)-1 && cdf[rank] <= u {
			rank++
		}
		key := cacheKeyOf(c.epoch, rank)
		r := int(h.ID) - 0x1000
		c.inflight[key] = append(c.inflight[key], float64(h.Now()))
		msg, err := runtime.Pack(f.spec,
			runtime.Message{Src: h.ID, Dst: 0x2000, Device: f.leafIDs[r], Comp: 1}.Header(),
			[][]uint64{{1}, {key}, nil, nil, nil})
		if err == nil {
			h.Send(msg)
		}
		if c.sent < perClient {
			h.StartTimer(netsim.Time(stepOf(r)))
		}
	})
	for r, cl := range f.clients {
		cl.SetReceive(func(h *netsim.Host, msg []byte) {
			c := &f.cs[h.Index()]
			key := make([]uint64, 1)
			vals := make([]uint64, CacheWords)
			hit := make([]uint64, 1)
			if _, err := runtime.Unpack(f.spec, msg, [][]uint64{nil, key, vals, hit, nil}); err != nil {
				c.errors++
				return
			}
			q := c.inflight[key[0]]
			if len(q) == 0 {
				c.errors++ // a response nobody asked for
				return
			}
			issue := q[0]
			c.inflight[key[0]] = q[1:]
			c.samples = append(c.samples, Sample{IssueNs: issue, RTTNs: float64(h.Now()) - issue, OK: true})
			if hit[0] != 0 {
				c.hits++
			} else {
				c.misses++
			}
			// Torn-value detector: infer the generation from word 0, then
			// every word must agree — PR 6's generation pin under test.
			g := int(vals[0] / 1_000_000)
			ok := g >= 0 && g <= maxGen
			for w := 0; ok && w < CacheWords; w++ {
				if vals[w] != cacheValueOf(key[0], w, g) {
					ok = false
				}
			}
			if !ok {
				c.errors++
			}
		})
		_ = r
	}
	return startAt, stepOf
}

// finishCacheRun folds per-client state into the result and scores the
// merged sample set.
func (f *cacheChurnFabric) finishCacheRun(res *ChurnResult, eventStart, eventEnd float64, trace bool) {
	var samples []Sample
	for i := range f.cs {
		c := &f.cs[i]
		if c.inflight == nil {
			continue
		}
		res.Requests += c.sent
		res.Hits += c.hits
		res.Misses += c.misses
		res.Errors += c.errors
		samples = append(samples, c.samples...)
		res.Completed += len(c.samples)
		keys := make([]int, 0, len(c.inflight))
		for k := range c.inflight {
			keys = append(keys, int(k))
		}
		sort.Ints(keys)
		for _, k := range keys {
			for _, issue := range c.inflight[uint64(k)] {
				samples = append(samples, Sample{IssueNs: issue})
				res.Lost++
			}
		}
	}
	// AvailFrac 0.6: the Zipf(1.2) head covers ~86% of draws, so a
	// healthy window misses ~14% of the time — the bar sits ~3σ under
	// that, while the shifted-hotset regime (~14% hits) fails it hard.
	res.SLO = ScoreSLO(samples, eventStart, eventEnd, SLOConfig{
		WindowNs: 50e3, DeadlineNs: 12e3, AvailFrac: 0.6, EpsilonP99: 0.25,
	})
	res.DurationNs = float64(f.n.Now())
	res.SimEvents = f.n.TotalProcessed()
	if trace {
		res.TraceHash = f.n.TraceHash()
	}
}

// RunChurnCacheChurn shifts the Zipf head off the cached key set
// mid-run: every hot GET turns into a backing-store miss (availability
// collapses under the latency SLO), then the control plane repopulates
// all rack caches — one transactional batch per switch — and service
// recovers.
func RunChurnCacheChurn(cfg ChurnConfig) (*ChurnResult, error) {
	cfg.defaults()
	perClient := 220
	f, err := buildCacheChurnFabric(cfg.Target)
	if err != nil {
		return nil, err
	}
	res := &ChurnResult{Name: "cache-churn"}
	startAt, _ := f.startCacheClients(perClient, 0)

	// The shift lands 40% through the run; the cache repair follows
	// 30µs later (detection + batch build in control-plane time).
	ts := 300 + 0.4*float64(perClient)*5000
	tb := ts + 30000.25

	// The repair batch swaps the cached set: evict keys 1..16, install
	// 17..32 into the freed slots, one transaction per rack switch.
	repair := bmv2.NewWriteBatch()
	for k := 1; k <= cacheChurnCached; k++ {
		repair.Delete("lu_Index", uint64(k))
		repair.Delete("lu_Share", uint64(k))
	}
	for i := 0; i < cacheChurnCached; i++ {
		key := uint64(cacheChurnCached + i + 1)
		idx := uint64(i)
		repair.Insert("lu_Index", &p4.Entry{
			Keys:   []p4.KeyValue{{Value: key, PrefixLen: -1}},
			Action: &p4.ActionCall{Name: "lu_Index_hit", Args: []uint64{idx}},
		})
		repair.Insert("lu_Share", &p4.Entry{
			Keys:   []p4.KeyValue{{Value: key, PrefixLen: -1}},
			Action: &p4.ActionCall{Name: "lu_Share_hit", Args: []uint64{(1 << uint(CacheWords)) - 1}},
		})
		for w := 0; w < CacheWords; w++ {
			repair.RegisterWrite(fmt.Sprintf("reg_Vals__%d", w), int(idx), cacheValueOf(key, w, 0))
		}
		repair.RegisterWrite("reg_Valid", int(idx), 1)
	}

	if cfg.Trace {
		f.n.EnableTrace()
	}
	if err := f.n.SetPartitions(cfg.Partitions); err != nil {
		return nil, err
	}
	res.Partitions = f.n.Partitions()

	for r, cl := range f.clients {
		c := &f.cs[cl.Index()]
		cl.At(netsim.Time(ts+0.5*float64(r)), func() { c.epoch = 1 })
	}
	for r := 0; r < cacheChurnRacks; r++ {
		dev := f.n.Device(f.leafIDs[r])
		dev.At(netsim.Time(tb), func() { dev.SW.Write(repair) })
	}
	res.Events = []ChurnEvent{
		{Name: "ShiftZipf(s=1.2,hotset+16)", AtNs: ts},
		{Name: "ApplyBatch(leaves,repopulate)", AtNs: tb},
	}

	for r, cl := range f.clients {
		cl.StartTimer(netsim.Time(startAt(r)))
	}
	if err := f.n.RunAll(); err != nil {
		return nil, err
	}
	f.finishCacheRun(res, ts, tb, cfg.Trace)
	return res, nil
}

// RunChurnRolling rewrites every rack cache's values to the next
// generation one switch at a time, 40µs apart, under live load — a
// rolling data-plane reconfig. The SLO shows zero downtime (each write
// is one transactional generation publish) and the torn-value detector
// in the clients proves no response ever mixes generations.
func RunChurnRolling(cfg ChurnConfig) (*ChurnResult, error) {
	cfg.defaults()
	perClient := 160
	f, err := buildCacheChurnFabric(cfg.Target)
	if err != nil {
		return nil, err
	}
	res := &ChurnResult{Name: "rolling-reconfig"}
	startAt, _ := f.startCacheClients(perClient, 1)

	t0 := 300 + 0.35*float64(perClient)*5000
	const gap = 40000.25

	upgrade := bmv2.NewWriteBatch()
	for i := 0; i < cacheChurnCached; i++ {
		key := uint64(i + 1)
		for w := 0; w < CacheWords; w++ {
			upgrade.RegisterWrite(fmt.Sprintf("reg_Vals__%d", w), i, cacheValueOf(key, w, 1))
		}
	}

	if cfg.Trace {
		f.n.EnableTrace()
	}
	if err := f.n.SetPartitions(cfg.Partitions); err != nil {
		return nil, err
	}
	res.Partitions = f.n.Partitions()

	res.Events = make([]ChurnEvent, 0, cacheChurnRacks)
	for r := 0; r < cacheChurnRacks; r++ {
		dev := f.n.Device(f.leafIDs[r])
		at := t0 + float64(r)*gap
		dev.At(netsim.Time(at), func() { dev.SW.Write(upgrade) })
		res.Events = append(res.Events, ChurnEvent{
			Name: fmt.Sprintf("ApplyBatch(%d,gen=1)", f.leafIDs[r]), AtNs: at,
		})
	}
	eventEnd := t0 + float64(cacheChurnRacks-1)*gap + 1000

	for r, cl := range f.clients {
		cl.StartTimer(netsim.Time(startAt(r)))
	}
	if err := f.n.RunAll(); err != nil {
		return nil, err
	}
	f.finishCacheRun(res, t0, eventEnd, cfg.Trace)
	return res, nil
}
