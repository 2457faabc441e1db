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
// Four scenarios ship, one Run* function each below.

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"netcl/internal/bmv2"
	"netcl/internal/netsim"
	"netcl/internal/p4"
	"netcl/internal/passes"
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

// completions turns per-request completion times (absent: lost) into
// scored samples, counting res.Completed and res.Lost.
func (res *ChurnResult) completions(complete map[int]float64, issueAt func(i int) float64) []Sample {
	samples := make([]Sample, 0, res.Requests)
	for i := 0; i < res.Requests; i++ {
		s := Sample{IssueNs: issueAt(i)}
		if done, ok := complete[i]; ok {
			s.OK = true
			s.RTTNs = done - s.IssueNs
			res.Completed++
		} else {
			res.Lost++
		}
		samples = append(samples, s)
	}
	return samples
}

// finish scores samples against the event window [start, end] and
// records where the simulation ended.
func (res *ChurnResult) finish(n *netsim.Network, trace bool, samples []Sample, start, end float64, slo SLOConfig) {
	res.SLO = ScoreSLO(samples, start, end, slo)
	res.DurationNs = float64(n.Now())
	res.SimEvents = n.TotalProcessed()
	if trace {
		res.TraceHash = n.TraceHash()
	}
}

// churnErrs keeps the first error any timeline event reports, for the
// run to return: events on different devices may run concurrently in
// different partitions.
type churnErrs struct {
	mu  sync.Mutex
	err error
}

// at runs fn on dev at virtual time t, keeping its error.
func (e *churnErrs) at(dev *netsim.Device, t float64, fn func() error) {
	dev.At(netsim.Time(t), func() {
		if err := fn(); err != nil {
			e.mu.Lock()
			if e.err == nil {
				e.err = fmt.Errorf("device %d at %.1f ns: %w", dev.ID, t, err)
			}
			e.mu.Unlock()
		}
	})
}

// run runs n to completion, then reports the first timeline error.
func (e *churnErrs) run(n *netsim.Network) error {
	if err := n.RunAll(); err != nil {
		return err
	}
	return e.err
}

// testHookReroute, when set, edits a scenario's re-route batches
// before they are scheduled (tests inject failing writes).
var testHookReroute func([]netsim.DeviceBatch)

// failover is a device failover timeline: dead crashes (Pause) at tc;
// at td its named register files are snapshot (bulk reads); at tr the
// standby replays them as one transactional WriteBatch and each
// device's re-route batch applies in that device's own partition. Zero
// cells are skipped: unwritten pages read as zero on the standby
// anyway, so replaying them would only materialize pages.
func (e *churnErrs) failover(dead, standby *netsim.Device, regs []string, reroute []netsim.DeviceBatch, tc, td, tr float64) {
	dead.At(netsim.Time(tc), func() { dead.Pause() })
	regs = append([]string(nil), regs...)
	sort.Strings(regs)
	snap := map[string][]uint64{}
	e.at(dead, td, func() error {
		for _, name := range regs {
			cells, err := dead.SW.ReadRegisters(name)
			if err != nil {
				return err
			}
			snap[name] = cells
		}
		return nil
	})
	e.at(standby, tr, func() error {
		b := bmv2.NewWriteBatch()
		for _, name := range regs {
			for idx, v := range snap[name] {
				if v != 0 {
					b.RegisterWrite(name, idx, v)
				}
			}
		}
		if b.Len() == 0 {
			return nil
		}
		_, err := standby.SW.Write(b)
		return err
	})
	if testHookReroute != nil {
		testHookReroute(reroute)
	}
	for _, db := range reroute {
		e.at(db.Dev, tr, func() error {
			_, err := db.Dev.SW.Write(db.Batch)
			return err
		})
	}
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
	rounds := 40
	const (
		rootID      = hierRootID
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
	nodes := map[uint16]aggNode{rootID: {fanin: pods, isRoot: true}}
	for p := 0; p < pods; p++ {
		nodes[primary[p]] = aggNode{fanin: podWorkers, parent: rootID, levelIdx: p}
		for i := 0; i < edgesPerPod; i++ {
			nodes[edgeID(p, i)] = aggNode{fanin: podWorkers, parent: primary[p]}
		}
	}
	logical := map[uint16]uint16{standby[0]: primary[0], standby[1]: primary[1]}

	// Workers: two per edge, targeting their pod primary with their
	// pod-local contribution bit. Worker g's sends for round r are
	// spread across the round by the pod-local phase j·6µs, so a crash
	// can land between two contributions of the same round.
	phase := func(g int) netsim.Time {
		j := g % podWorkers
		return 100*netsim.Nanosecond + netsim.Time(float64(j)*6000) + netsim.Time(float64(g)*0.125)
	}
	interval := func(g int) netsim.Time {
		return 24*netsim.Microsecond + netsim.Time(float64(g%1009)*0.125)
	}
	bed, err := buildHierAgg(cfg.Target, nodes, logical, rounds, pods*edgesPerPod, interval,
		func(n *netsim.Network, prog func(uint16) *p4.Program) (*netsim.Topo, error) {
			return netsim.BuildFatTree(n, netsim.FatTreeSpec{
				Pods: pods, EdgesPerPod: edgesPerPod, AggsPerPod: 2,
				CoreIDs: []uint16{rootID},
				EdgeID:  edgeID, AggID: aggID, Prog: prog,
			})
		})
	if err != nil {
		return nil, fmt.Errorf("churn agg: %w", err)
	}
	n, topo := bed.n, bed.topo
	for p := 0; p < pods; p++ {
		for i := 0; i < edgesPerPod; i++ {
			for w := 0; w < perEdge; w++ {
				j := i*perEdge + w // pod-local position 0..podWorkers-1
				bed.addWorker(uint16(1000+p*podWorkers+j), n.Device(edgeID(p, i)), aggSender{
					target: primary[p], mask: 1 << uint(j), home: uint8(p*edgesPerPod + i),
				})
			}
		}
	}

	res := &ChurnResult{Name: "agg-failover", Requests: rounds}
	complete := map[int]float64{}
	bed.collectRounds(func(h *netsim.Host, r uint64, ok bool) {
		if !ok || r >= uint64(rounds) {
			res.Errors++
			return
		}
		if _, done := complete[int(r)]; !done {
			complete[int(r)] = float64(h.Now())
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

	if res.Partitions, err = partition(n, cfg.Trace, cfg.Partitions); err != nil {
		return nil, err
	}

	// The slot pool, by NetCL name: whatever registers the target's
	// compiler split each memory into.
	poolRegs, err := bed.fab.conn(dev50).Registers("Bitmap", "Count", "Exp", "Agg")
	if err != nil {
		return nil, fmt.Errorf("churn agg: %w", err)
	}
	var errs churnErrs
	errs.failover(dev50, dev51, poolRegs, reroute, tc, td, tr)
	edge13.At(netsim.Time(tl), func() { edge13.SetPortDown(portTo52, true) })
	edge13.At(netsim.Time(tl2), func() { edge13.SetPortDown(portTo52, false) })
	res.Events = []ChurnEvent{
		{Name: "CrashDevice(50)", AtNs: tc},
		{Name: "DrainRegisters(50)", AtNs: td},
		{Name: "RestoreDevice(51)+Reroute", AtNs: tr},
		{Name: "FailLink(13-52)", AtNs: tl},
		{Name: "RestoreLink(13-52)", AtNs: tl2},
	}

	bed.start(func(i int) netsim.Time { return phase(i - 1) })
	if err := errs.run(n); err != nil {
		return nil, fmt.Errorf("churn agg: %w", err)
	}

	// Score: a round's issue time is its last contribution's send time
	// (closed form — the timer schedule is deterministic).
	samples := res.completions(complete, func(r int) (issue float64) {
		for g := 0; g < workers; g++ {
			issue = max(issue, float64(phase(g))+float64(r)*float64(interval(g+1)))
		}
		return issue
	})
	res.finish(n, cfg.Trace, samples, tc, tl2, SLOConfig{
		WindowNs: 48e3, DeadlineNs: 15e3, AvailFrac: 0.9, EpsilonP99: 0.25,
	})
	return res, nil
}

// ---------------------------------------------------------------------
// Scenario 2: P4xos coordinator loss → re-election onto a standby.
// ---------------------------------------------------------------------

// RunChurnPaxosReelect runs consensus on the leaf/spine P4xos bed with
// a standby spine compiled with the leader's logical id, and kills the
// coordinator mid-stream. Re-election is a timeline: drain the dead
// leader's registers (the Instance allocator), replay them into the
// standby in one WriteBatch, and re-route the logical coordinator id.
// Instance numbering must continue where the dead leader stopped:
// without the counter replay the standby would reissue instance
// numbers the learner has already marked Done and silently swallow
// every subsequent command.
func RunChurnPaxosReelect(cfg ChurnConfig) (*ChurnResult, error) {
	commands := 90
	bed, err := buildPaxosBed(cfg.Target, true)
	if err != nil {
		return nil, err
	}
	n, leader, standby := bed.n, bed.leader, bed.standby

	res := &ChurnResult{Name: "paxos-reelect", Requests: commands}
	complete := map[int]float64{}
	log, dups := newPaxosLog(), &PaxosResult{}
	onDeliver(bed.appHost, bed.spec, func(h *netsim.Host, inst, val uint64, err error) {
		// Drops shift instance numbering, so the command index rides in
		// the value. A reused instance number is corruption (the standby
		// restarted the allocator instead of inheriting it), and so is a
		// command delivered twice.
		c := int(val - paxosValue(0))
		if err != nil || !log.deliver(dups, inst, val, false) || c < 0 || c >= commands {
			res.Errors++
			return
		}
		complete[c] = float64(h.Now())
	})

	const start = 500
	const step = 15000.25
	issueAt := func(c int) float64 { return start + float64(c)*step }
	sent := 0
	tx := newPaxosArgs(bed.spec)
	n.OnTimer(func(h *netsim.Host) {
		if sent >= commands {
			return
		}
		c := sent
		sent++
		if msg, err := tx.command(paxosValue(c)); err == nil {
			h.Send(msg)
		}
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

	reroute, err := bed.topo.RerouteBatches(netsim.RerouteOptions{
		Dead:     []*netsim.Device{leader},
		Redirect: map[uint16]*netsim.Device{PaxosLeader: standby},
	})
	if err != nil {
		return nil, err
	}

	if res.Partitions, err = partition(n, cfg.Trace, cfg.Partitions); err != nil {
		return nil, err
	}

	var errs churnErrs
	errs.failover(leader, standby, leader.SW.RegisterNames(), reroute, tc, td, tre)
	res.Events = []ChurnEvent{
		{Name: fmt.Sprintf("CrashDevice(%d)", PaxosLeader), AtNs: tc},
		{Name: fmt.Sprintf("DrainRegisters(%d)", PaxosLeader), AtNs: td},
		{Name: fmt.Sprintf("ReelectCoordinator(%d)+Reroute", paxosStandby), AtNs: tre},
	}

	bed.client.StartTimer(netsim.Time(float64(start)))
	if err := errs.run(n); err != nil {
		return nil, fmt.Errorf("churn paxos: %w", err)
	}

	res.finish(n, cfg.Trace, res.completions(complete, issueAt), tc, tre, SLOConfig{
		WindowNs: 60e3, DeadlineNs: 15e3, AvailFrac: 0.7, EpsilonP99: 0.25,
	})
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
// popularity epoch, its message scratch, per-key FIFO queues of
// in-flight issue times, and the scored samples. All of it is
// single-writer (the client's own timer/receive/At callbacks), so
// partitioned runs race on nothing.
type churnClient struct {
	rng      uint64
	epoch    int
	sent     int
	args     *cacheArgs
	inflight map[uint64][]float64
	samples  []Sample
	hits     int
	misses   int
	errors   int
}

// cacheChurn is the scenario 3/4 load on the cache bed: one open-loop
// client per rack.
type cacheChurn struct {
	*cacheBed
	cs []churnClient // by rack
}

const (
	cacheChurnRacks  = 3
	cacheChurnTotal  = 32 // key space
	cacheChurnCached = 16 // cache capacity per rack
)

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

// newCacheChurn builds the cache bed and arms the open-loop per-rack
// load: client r issues perClient GETs on its own deterministic
// schedule from cacheChurnStart(r), sampling keys from Zipf(1.2)
// through its epoch. maxGen bounds the accepted value generation (0 =
// only the base values, 1 = rolling upgrade allowed).
func newCacheChurn(target passes.Target, perClient, maxGen int) (*cacheChurn, error) {
	bed, err := buildCacheBed(target, cacheChurnRacks, 2, cacheChurnCached)
	if err != nil {
		return nil, err
	}
	f := &cacheChurn{cacheBed: bed, cs: make([]churnClient, cacheChurnRacks)}
	for r := range f.cs {
		f.cs[r] = churnClient{rng: 0x9E3779B97F4A7C15 * uint64(r+3),
			args: newCacheArgs(bed.fab.spec), inflight: map[uint64][]float64{}}
	}
	cdf := zipfCDF(cacheChurnTotal, 1.2)
	stepOf := func(r int) float64 { return 5000 + 97*float64(r) + 0.375 }
	f.n.OnTimer(func(h *netsim.Host) {
		r := int(h.ID) - cacheClientID
		c := &f.cs[r]
		if c.sent >= perClient {
			return
		}
		c.sent++
		u := float64(splitmix64(&c.rng)>>11) / (1 << 53)
		rank := 0
		for rank < len(cdf)-1 && cdf[rank] <= u {
			rank++
		}
		key := cacheKeyOf(c.epoch, rank)
		c.inflight[key] = append(c.inflight[key], float64(h.Now()))
		if msg, err := c.args.get(h.ID, cacheServerID, f.leafIDs[r], key); err == nil {
			h.Send(msg)
		}
		if c.sent < perClient {
			h.StartTimer(netsim.Time(stepOf(r)))
		}
	})
	for _, cl := range f.clients {
		cl.SetReceive(func(h *netsim.Host, msg []byte) {
			c := &f.cs[int(h.ID)-cacheClientID]
			if _, err := c.args.unpack(msg); err != nil {
				c.errors++
				return
			}
			key := c.args.key[0]
			q := c.inflight[key]
			if len(q) == 0 {
				c.errors++ // a response nobody asked for
				return
			}
			issue := q[0]
			c.inflight[key] = q[1:]
			c.samples = append(c.samples, Sample{IssueNs: issue, RTTNs: float64(h.Now()) - issue, OK: true})
			if c.args.hit[0] != 0 {
				c.hits++
			} else {
				c.misses++
			}
			// Torn-value detector: infer the generation from word 0, then
			// every word must agree — PR 6's generation pin under test.
			g := int(c.args.vals[0] / 1_000_000)
			if g > maxGen || !c.args.valuesOK(func(key uint64, w int) uint64 { return cacheValueOf(key, w, g) }) {
				c.errors++
			}
		})
	}
	return f, nil
}

// cacheChurnStart is client r's first send time.
func cacheChurnStart(r int) float64 { return 300 + 700*float64(r) }

// run starts the clients, runs the scenario to completion, and scores
// it: per-client state folds into res and the merged sample set is
// scored against the event window.
func (f *cacheChurn) run(res *ChurnResult, cfg ChurnConfig, errs *churnErrs, eventStart, eventEnd float64) error {
	for r, cl := range f.clients {
		cl.StartTimer(netsim.Time(cacheChurnStart(r)))
	}
	if err := errs.run(f.n); err != nil {
		return fmt.Errorf("churn %s: %w", res.Name, err)
	}
	var samples []Sample
	for i := range f.cs {
		c := &f.cs[i]
		res.Requests += c.sent
		res.Hits += c.hits
		res.Misses += c.misses
		res.Errors += c.errors
		samples = append(samples, c.samples...)
		res.Completed += len(c.samples)
		// Unanswered GETs are lost; a lost sample scores by its issue time
		// alone, so the map's order does not matter.
		for _, q := range c.inflight {
			for _, issue := range q {
				samples = append(samples, Sample{IssueNs: issue})
				res.Lost++
			}
		}
	}
	// AvailFrac 0.6: the Zipf(1.2) head covers ~86% of draws, so a
	// healthy window misses ~14% of the time — the bar sits ~3σ under
	// that, while the shifted-hotset regime (~14% hits) fails it hard.
	res.finish(f.n, cfg.Trace, samples, eventStart, eventEnd, SLOConfig{
		WindowNs: 50e3, DeadlineNs: 12e3, AvailFrac: 0.6, EpsilonP99: 0.25,
	})
	return nil
}

// RunChurnCacheChurn shifts the Zipf head off the cached key set
// mid-run: every hot GET turns into a backing-store miss (availability
// collapses under the latency SLO), then the control plane repopulates
// all rack caches — one transaction per switch — and service recovers.
func RunChurnCacheChurn(cfg ChurnConfig) (*ChurnResult, error) {
	perClient := 220
	f, err := newCacheChurn(cfg.Target, perClient, 0)
	if err != nil {
		return nil, err
	}
	res := &ChurnResult{Name: "cache-churn"}

	// The shift lands 40% through the run; the cache repair follows
	// 30µs later (detection + batch build in control-plane time).
	ts := 300 + 0.4*float64(perClient)*5000
	tb := ts + 30000.25

	if res.Partitions, err = partition(f.n, cfg.Trace, cfg.Partitions); err != nil {
		return nil, err
	}
	for r, cl := range f.clients {
		c := &f.cs[r]
		cl.At(netsim.Time(ts+0.5*float64(r)), func() { c.epoch = 1 })
	}
	// The repair swaps the cached set: evict keys 1..16, install 17..32
	// into the freed lines, one transaction per rack switch.
	var errs churnErrs
	for r := 0; r < cacheChurnRacks; r++ {
		repair := f.rackConn(r).Txn()
		for k := uint64(1); k <= cacheChurnCached; k++ {
			repair.LookupDelete("Index", k).LookupDelete("Share", k)
		}
		cacheFill(repair, cacheChurnCached+1, cacheChurnCached, cacheStore)
		errs.at(f.rack(r), tb, repair.Commit)
	}
	res.Events = []ChurnEvent{
		{Name: "ShiftZipf(s=1.2,hotset+16)", AtNs: ts},
		{Name: "ApplyBatch(leaves,repopulate)", AtNs: tb},
	}
	if err := f.run(res, cfg, &errs, ts, tb); err != nil {
		return nil, err
	}
	return res, nil
}

// RunChurnRolling rewrites every rack cache's values to the next
// generation one switch at a time, 40µs apart, under live load — a
// rolling data-plane reconfig. The SLO shows zero downtime (each write
// is one transactional generation publish) and the torn-value detector
// in the clients proves no response ever mixes generations.
func RunChurnRolling(cfg ChurnConfig) (*ChurnResult, error) {
	perClient := 160
	f, err := newCacheChurn(cfg.Target, perClient, 1)
	if err != nil {
		return nil, err
	}
	res := &ChurnResult{Name: "rolling-reconfig"}

	t0 := 300 + 0.35*float64(perClient)*5000
	const gap = 40000.25
	gen1 := func(key uint64, w int) uint64 { return cacheValueOf(key, w, 1) }

	if res.Partitions, err = partition(f.n, cfg.Trace, cfg.Partitions); err != nil {
		return nil, err
	}
	var errs churnErrs
	res.Events = make([]ChurnEvent, 0, cacheChurnRacks)
	for r := 0; r < cacheChurnRacks; r++ {
		upgrade := f.rackConn(r).Txn()
		for i := 0; i < cacheChurnCached; i++ {
			cacheWriteLine(upgrade, i, uint64(i+1), gen1)
		}
		at := t0 + float64(r)*gap
		errs.at(f.rack(r), at, upgrade.Commit)
		res.Events = append(res.Events, ChurnEvent{
			Name: fmt.Sprintf("ApplyBatch(%d,gen=1)", f.leafIDs[r]), AtNs: at,
		})
	}
	eventEnd := t0 + float64(cacheChurnRacks-1)*gap + 1000
	if err := f.run(res, cfg, &errs, t0, eventEnd); err != nil {
		return nil, err
	}
	return res, nil
}
