package apps

import (
	"fmt"

	"netcl/internal/codegen"
	"netcl/internal/lang"
	"netcl/internal/lower"
	"netcl/internal/netsim"
	"netcl/internal/p4"
	"netcl/internal/p4rt"
	"netcl/internal/passes"
	"netcl/internal/runtime"
	"netcl/internal/sema"
	"netcl/internal/wire"
)

// CompileApp compiles an application's NetCL source for one device,
// returning the P4 program and its message specs.
func CompileApp(app *App, target passes.Target, device uint16) (*p4.Program, map[uint8]*runtime.MessageSpec, error) {
	var diags lang.Diagnostics
	file := lang.ParseFile(app.Name, app.NetCL, app.Defines, &diags)
	prog := sema.Check(file, &diags)
	if err := diags.Err(); err != nil {
		return nil, nil, err
	}
	mod := lower.Module(prog, device, lower.Options{}, &diags)
	if err := diags.Err(); err != nil {
		return nil, nil, err
	}
	if _, err := passes.Run(mod, passes.DefaultOptions(target)); err != nil {
		return nil, nil, err
	}
	// ECMP is always compiled in for app deployments: the topology
	// route installer spreads flows over equal-cost uplinks, and a
	// program without the spreader cannot take ECMP route entries.
	p4prog, err := codegen.Generate(mod, codegen.Options{Target: p4.Target(target), ECMP: true})
	if err != nil {
		return nil, nil, err
	}
	specs := map[uint8]*runtime.MessageSpec{}
	for comp, kernels := range prog.Computations {
		k := kernels[0]
		spec := &runtime.MessageSpec{Comp: comp}
		ks := k.Spec()
		for i := range ks.Counts {
			spec.Args = append(spec.Args, runtime.ArgSpec{
				Name:  k.Params[i].Name(),
				Bytes: ks.Types[i].Bits() / 8,
				Count: ks.Counts[i],
				Out:   ks.Dirs[i] != sema.ByVal,
			})
		}
		specs[comp] = spec
	}
	return p4prog, specs, nil
}

// loadProgram returns the device program: either compiled from NetCL
// or the handwritten baseline (parsed P4), which share wire formats.
func loadProgram(app *App, target passes.Target, device uint16, baseline bool) (*p4.Program, map[uint8]*runtime.MessageSpec, error) {
	prog, specs, err := CompileApp(app, target, device)
	if err != nil {
		return nil, nil, err
	}
	if !baseline {
		return prog, specs, nil
	}
	src, err := app.Baseline()
	if err != nil {
		return nil, nil, err
	}
	bl, err := p4.Parse(app.Name+"-baseline", src)
	if err != nil {
		return nil, nil, err
	}
	return bl, specs, nil
}

// AggConfig parameterizes the Figure 14 (left) experiment.
type AggConfig struct {
	Workers  int
	Chunks   int // chunks (slots' worth of data) per worker
	Window   int // outstanding slots per worker
	Target   passes.Target
	Baseline bool // run the handwritten P4 instead of generated code
	// LossEveryNth drops every Nth packet on the worker links (0 =
	// lossless); the slot protocol's retransmission path recovers.
	LossEveryNth int
	// Faults injects seeded probabilistic loss/jitter/duplication on
	// every link (zero value = faultless).
	Faults netsim.FaultConfig
	// RetransmitNs is the worker retransmission timeout (default 150µs).
	RetransmitNs netsim.Time
	// RetryBudget bounds retransmissions per chunk (default 64); an
	// exhausted budget aborts the run with an error instead of
	// retransmitting forever.
	RetryBudget int
}

// SimStats reports the netsim event-engine counters of one end-to-end
// run.
type SimStats struct {
	Events       uint64  `json:"events"`
	PeakQueue    int     `json:"peak_queue"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// AggResult reports aggregation throughput.
type AggResult struct {
	// ATEPerWorker is aggregated tensor elements per second per worker
	// (the paper's Fig. 14 metric); under loss this is goodput, since
	// only completed slots count.
	ATEPerWorker float64
	Completed    int
	DurationNs   float64
	Mismatches   int
	// Retransmissions counts worker resends (loss recovery).
	Retransmissions int
	PacketsLost     uint64
	// Duplicates counts completions a worker discarded as already
	// observed (multicast races and duplicated packets).
	Duplicates int
	// MeanChunkNs is the mean first-send-to-completion latency;
	// P50ChunkNs/P99ChunkNs are the median and tail of the same
	// distribution (from a log-linear histogram, ~6% resolution).
	MeanChunkNs float64
	P50ChunkNs  float64
	P99ChunkNs  float64
	// Sim reports the discrete-event engine's work for this run.
	Sim SimStats
}

// Summary implements Result.
func (r *AggResult) Summary() string {
	return fmt.Sprintf("AGG: %d slots completed, %.0f ATE/s per worker, chunk latency p50 %.1fµs p99 %.1fµs, %d mismatches, %d retransmissions, %d packets lost",
		r.Completed, r.ATEPerWorker, r.P50ChunkNs/1e3, r.P99ChunkNs/1e3, r.Mismatches, r.Retransmissions, r.PacketsLost)
}

// RunAgg drives the SwitchML-style aggregation through the simulated
// network: workers stream chunks into slots; the switch reduces and
// multicasts completed slots back.
func RunAgg(cfg AggConfig) (*AggResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Chunks <= 0 {
		cfg.Chunks = 64
	}
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	app := ByName("AGG")
	defines := map[string]uint64{}
	for k, v := range app.Defines {
		defines[k] = v
	}
	defines["NUM_WORKERS"] = uint64(cfg.Workers)
	app = &App{Name: app.Name, NetCL: app.NetCL, Defines: defines,
		Devices: app.Devices, BaselineFile: app.BaselineFile}

	prog, specs, err := loadProgram(app, cfg.Target, 1, cfg.Baseline)
	if err != nil {
		return nil, err
	}
	spec := specs[1]

	if cfg.RetransmitNs == 0 {
		cfg.RetransmitNs = 150 * netsim.Microsecond
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 64
	}
	lossy := cfg.LossEveryNth > 0 || cfg.Faults.Active()
	n := netsim.NewNetwork()
	n.MaxEvents = 10_000_000
	n.InjectFaults(cfg.Faults)
	dev := n.AddDevice(1, prog)
	type workerState struct {
		host        *netsim.Host
		done        int          // completed slots observed
		outstanding map[int]bool // sent chunks awaiting completion
		retries     map[int]int  // retransmissions per chunk
		sentAt      map[int]netsim.Time
	}
	workers := make([]*workerState, cfg.Workers)
	var links []*netsim.Link
	var mcastPorts []int
	for w := 0; w < cfg.Workers; w++ {
		h := n.AddHost(uint16(10 + w))
		l := n.Connect(h, dev, w+1)
		l.DropNth = cfg.LossEveryNth
		links = append(links, l)
		workers[w] = &workerState{host: h, outstanding: map[int]bool{},
			retries: map[int]int{}, sentAt: map[int]netsim.Time{}}
		mcastPorts = append(mcastPorts, w+1)
	}
	if err := n.AutoWire(); err != nil {
		return nil, err
	}
	dev.SetMulticastGroup(42, mcastPorts)
	if cfg.Baseline {
		// The handwritten program takes the worker count from the
		// control plane (a configurable default action), like the real
		// SwitchML deployment.
		if err := dev.SW.SetDefaultAction("cfg_workers", "set_target", []uint64{uint64(cfg.Workers - 1)}); err != nil {
			return nil, err
		}
	}

	res := &AggResult{}
	var chunkHist Hist
	numSlots := int(defines["NUM_SLOTS"])
	slotSize := int(defines["SLOT_SIZE"])
	budgetExceeded := 0

	var sendChunk func(ws *workerState, w int, chunk int, retrans bool)
	sendChunk = func(ws *workerState, w int, chunk int, retrans bool) {
		slot := chunk % cfg.Window
		ver := uint64(chunk/cfg.Window) % 2
		vals := make([]uint64, slotSize)
		for i := range vals {
			vals[i] = uint64(chunk + i + w)
		}
		aggIdx := uint64(slot) + ver*uint64(numSlots)
		msg, err := runtime.Pack(spec,
			runtime.Message{Src: uint16(10 + w), Dst: 100, Device: 1, Comp: 1}.Header(),
			[][]uint64{{ver}, {uint64(slot)}, {aggIdx}, {1 << uint(w)}, {uint64(chunk)}, vals})
		if err != nil {
			return
		}
		ws.outstanding[chunk] = true
		if retrans {
			ws.retries[chunk]++
			res.Retransmissions++
		} else {
			ws.sentAt[chunk] = n.Now()
		}
		ws.host.Send(msg)
		// Retransmission timer: resend while the slot is outstanding
		// (the two-version scheme makes resends safe, §V-E). The retry
		// budget bounds recovery so a partitioned run terminates.
		if lossy {
			n.At(cfg.RetransmitNs, func() {
				if !ws.outstanding[chunk] {
					return
				}
				if ws.retries[chunk] >= cfg.RetryBudget {
					budgetExceeded++
					return
				}
				sendChunk(ws, w, chunk, true)
			})
		}
	}

	for w, ws := range workers {
		w, ws := w, ws
		ws.host.SetReceive(func(h *netsim.Host, msg []byte) {
			ver := make([]uint64, 1)
			slot := make([]uint64, 1)
			vals := make([]uint64, slotSize)
			if _, err := runtime.Unpack(spec, msg, [][]uint64{ver, slot, nil, nil, nil, vals}); err != nil {
				return
			}
			// Identify the chunk from (slot, version): unique among the
			// outstanding window.
			chunk := -1
			for c := range ws.outstanding {
				if uint64(c%cfg.Window) == slot[0] && uint64(c/cfg.Window)%2 == ver[0] {
					chunk = c
					break
				}
			}
			if chunk < 0 {
				res.Duplicates++ // duplicate completion (multicast + reflect)
				return
			}
			delete(ws.outstanding, chunk)
			lat := n.Now() - ws.sentAt[chunk]
			res.MeanChunkNs += float64(lat)
			chunkHist.Record(uint64(lat))
			for i := 0; i < slotSize; i++ {
				want := uint64(cfg.Workers*(chunk+i)) + uint64(cfg.Workers*(cfg.Workers-1)/2)
				if vals[i] != want {
					res.Mismatches++
					break
				}
			}
			ws.done++
			res.Completed++
			// Per-slot self-clocking: reuse this slot only for its own
			// next chunk. This keeps every worker within one slot of
			// the others — the correctness requirement of the
			// alternating-version scheme (§V-E).
			if next := chunk + cfg.Window; next < cfg.Chunks {
				sendChunk(ws, w, next, false)
			}
		})
	}
	// Prime the window.
	for w, ws := range workers {
		for c := 0; c < cfg.Window && c < cfg.Chunks; c++ {
			sendChunk(ws, w, c, false)
		}
	}
	if err := n.RunAll(); err != nil {
		return nil, err
	}
	res.DurationNs = float64(n.Now())
	if res.DurationNs > 0 {
		// Each completed slot aggregates slotSize elements per worker.
		totalPerWorker := float64(res.Completed/cfg.Workers) * float64(slotSize)
		res.ATEPerWorker = totalPerWorker / (res.DurationNs / 1e9)
	}
	if res.Completed > 0 {
		res.MeanChunkNs /= float64(res.Completed)
		res.P50ChunkNs = float64(chunkHist.Quantile(0.50))
		res.P99ChunkNs = float64(chunkHist.Quantile(0.99))
	}
	// Every worker must observe every chunk's completion.
	for _, ws := range workers {
		if ws.done != cfg.Chunks {
			res.Mismatches++
		}
	}
	for _, l := range links {
		res.PacketsLost += l.Dropped()
	}
	res.Sim = SimStats{Events: n.Processed, PeakQueue: n.PeakQueue, EventsPerSec: n.EventsPerSec()}
	if budgetExceeded > 0 {
		return res, fmt.Errorf("agg: retry budget (%d) exhausted for %d chunk(s); %d/%d slots completed",
			cfg.RetryBudget, budgetExceeded, res.Completed, cfg.Workers*cfg.Chunks)
	}
	return res, nil
}

// CacheConfig parameterizes the Figure 14 (right) experiment.
type CacheConfig struct {
	CachedKeys int // keys loaded into the switch cache
	TotalKeys  int // key universe (uniform accesses)
	Requests   int
	Target     passes.Target
	Baseline   bool
	// ServerNs is the KVS server's per-request processing time.
	ServerNs netsim.Time
	// Faults injects seeded probabilistic loss/jitter/duplication.
	Faults netsim.FaultConfig
	// RetransmitNs is the client's GET retransmission timeout under
	// faults (default 250µs).
	RetransmitNs netsim.Time
	// RetryBudget bounds retransmissions per request (default 64).
	RetryBudget int
}

// CacheResult reports KVS response times.
type CacheResult struct {
	MeanResponseNs float64
	// P50ResponseNs/P99ResponseNs split the response-time distribution:
	// under partial caching the median is a switch hit while the tail is
	// a server round trip, which the mean alone hides.
	P50ResponseNs float64
	P99ResponseNs float64
	HitRate       float64
	Hits, Misses  int
	WrongValues   int
	// Retransmissions/Duplicates/PacketsLost report the loss-recovery
	// path (GETs are idempotent, so resends are safe).
	Retransmissions int
	Duplicates      int
	PacketsLost     uint64
	// Sim reports the discrete-event engine's work for this run.
	Sim SimStats
}

// Summary implements Result.
func (r *CacheResult) Summary() string {
	return fmt.Sprintf("CACHE: hit rate %.0f%%, mean response %.2fµs, p50 %.2fµs, p99 %.2fµs (%d hits, %d misses, %d wrong values, %d retransmissions)",
		100*r.HitRate, r.MeanResponseNs/1e3, r.P50ResponseNs/1e3, r.P99ResponseNs/1e3, r.Hits, r.Misses, r.WrongValues, r.Retransmissions)
}

// RunCache drives NetCache through the simulated network: a client
// issues GETs over a key universe; the switch answers cached keys and
// forwards misses to the KVS server host.
func RunCache(cfg CacheConfig) (*CacheResult, error) {
	if cfg.TotalKeys <= 0 {
		cfg.TotalKeys = 64
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 256
	}
	if cfg.ServerNs == 0 {
		// Calibrated to the paper's testbed observations: ~27µs mean
		// response when every request misses, ~9.4µs when all hit.
		cfg.ServerNs = 7600 * netsim.Nanosecond
	}
	if cfg.RetransmitNs == 0 {
		cfg.RetransmitNs = 250 * netsim.Microsecond
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 64
	}
	lossy := cfg.Faults.Active()
	app := ByName("CACHE")
	prog, specs, err := loadProgram(app, cfg.Target, 1, cfg.Baseline)
	if err != nil {
		return nil, err
	}
	spec := specs[1]
	words := CacheWords

	n := netsim.NewNetwork()
	n.MaxEvents = 10_000_000
	n.InjectFaults(cfg.Faults)
	dev := n.AddDevice(1, prog)
	client := n.AddHost(1)
	server := n.AddHost(2)
	client.SetProcessingNs(3500 * netsim.Nanosecond)
	n.Connect(client, dev, 1)
	n.Connect(server, dev, 2)
	if err := n.AutoWire(); err != nil {
		return nil, err
	}

	// KVS contents: value word w of key k is k*100+w.
	valueOf := func(key uint64, w int) uint64 { return key*100 + uint64(w) }

	// Operator/controller: install the cached keys through the control
	// plane (managed lookup memory). Generated and handwritten programs
	// expose different object names for the same state.
	cp := &p4rt.Direct{SW: dev.SW}
	idxAction, shareAction := "lu_Index_hit", "lu_Share_hit"
	valReg := func(w int) string { return fmt.Sprintf("reg_Vals__%d", w) }
	validReg := "reg_Valid"
	if cfg.Baseline {
		idxAction, shareAction = "idx_hit", "share_hit"
		valReg = func(w int) string { return fmt.Sprintf("vals_%02d", w) }
		validReg = "valid_bit"
	}
	// The whole cache installs as one transaction: packets start seeing
	// cached keys only when every index entry and value word is in place.
	populate := p4rt.NewWriteBatch()
	for k := 0; k < cfg.CachedKeys && k < cfg.TotalKeys; k++ {
		key := uint64(k + 1)
		idx := uint64(k)
		populate.Insert("lu_Index", &p4.Entry{
			Keys:   []p4.KeyValue{{Value: key, PrefixLen: -1}},
			Action: &p4.ActionCall{Name: idxAction, Args: []uint64{idx}},
		})
		populate.Insert("lu_Share", &p4.Entry{
			Keys:   []p4.KeyValue{{Value: key, PrefixLen: -1}},
			Action: &p4.ActionCall{Name: shareAction, Args: []uint64{(1 << uint(words)) - 1}},
		})
		for w := 0; w < words; w++ {
			populate.RegisterWrite(valReg(w), int(idx), valueOf(key, w))
		}
		populate.RegisterWrite(validReg, int(idx), 1)
	}
	if _, err := cp.Write(populate); err != nil {
		return nil, err
	}

	// KVS server: answer misses.
	server.SetProcessingNs(cfg.ServerNs)
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
		// Respond without requesting computation (to = none).
		reply, err := runtime.Pack(spec, wire.Header{
			Src: 2, Dst: hdr.Src, From: wire.None, To: wire.None, Comp: 1,
		}, [][]uint64{op, key, vals, {0}, nil})
		if err != nil {
			return
		}
		h.Send(reply)
	})

	res := &CacheResult{}
	var rtHist Hist
	var totalRT float64
	outstandingKey := uint64(0)
	answered := true
	retries := 0
	budgetExceeded := 0
	var sentAt netsim.Time
	reqSent := 0

	// send transmits one GET; under faults it arms a retransmission
	// timer (GETs are idempotent, so resends are safe).
	var send func(key uint64)
	send = func(key uint64) {
		msg, err := runtime.Pack(spec,
			runtime.Message{Src: 1, Dst: 2, Device: 1, Comp: 1}.Header(),
			[][]uint64{{1}, {key}, nil, nil, nil})
		if err != nil {
			return
		}
		client.Send(msg)
		if lossy {
			n.At(cfg.RetransmitNs, func() {
				if answered || outstandingKey != key {
					return
				}
				if retries >= cfg.RetryBudget {
					budgetExceeded++
					return
				}
				retries++
				res.Retransmissions++
				send(key)
			})
		}
	}
	var issue func()
	issue = func() {
		if reqSent >= cfg.Requests {
			return
		}
		key := uint64(reqSent%cfg.TotalKeys) + 1
		outstandingKey = key
		answered = false
		retries = 0
		sentAt = n.Now()
		reqSent++
		send(key)
	}
	client.SetReceive(func(h *netsim.Host, msg []byte) {
		key := make([]uint64, 1)
		vals := make([]uint64, words)
		hit := make([]uint64, 1)
		if _, err := runtime.Unpack(spec, msg, [][]uint64{nil, key, vals, hit, nil}); err != nil {
			return
		}
		// Match the response to the outstanding GET: late duplicates
		// from retransmitted requests are discarded.
		if answered || key[0] != outstandingKey {
			res.Duplicates++
			return
		}
		answered = true
		totalRT += float64(n.Now() - sentAt)
		rtHist.Record(uint64(n.Now() - sentAt))
		if hit[0] != 0 {
			res.Hits++
		} else {
			res.Misses++
		}
		for w := 0; w < words; w++ {
			if vals[w] != valueOf(outstandingKey, w) {
				res.WrongValues++
				break
			}
		}
		issue()
	})
	issue()
	if err := n.RunAll(); err != nil {
		return nil, err
	}
	done := res.Hits + res.Misses
	if done > 0 {
		res.MeanResponseNs = totalRT / float64(done)
		res.P50ResponseNs = float64(rtHist.Quantile(0.50))
		res.P99ResponseNs = float64(rtHist.Quantile(0.99))
		res.HitRate = float64(res.Hits) / float64(done)
	}
	res.PacketsLost = n.FaultsDropped
	res.Sim = SimStats{Events: n.Processed, PeakQueue: n.PeakQueue, EventsPerSec: n.EventsPerSec()}
	if budgetExceeded > 0 {
		return res, fmt.Errorf("cache: retry budget (%d) exhausted; %d/%d requests answered",
			cfg.RetryBudget, done, cfg.Requests)
	}
	return res, nil
}

// PaxosConfig parameterizes the in-network consensus run.
type PaxosConfig struct {
	Commands int
	Target   passes.Target
	// Faults injects seeded probabilistic loss/jitter/duplication on
	// every link (client, inter-device, and learner links included).
	Faults netsim.FaultConfig
	// RetransmitNs is the client's command retransmission timeout
	// under faults (default 400µs).
	RetransmitNs netsim.Time
	// RetryBudget bounds retransmissions per command (default 32).
	RetryBudget int
}

// PaxosResult reports consensus outcomes.
type PaxosResult struct {
	Submitted  int
	Delivered  int // distinct commands delivered by the learner
	WrongValue int
	// Retries counts client command resends; a resent command is
	// chosen under a fresh instance, so the application-level dedup
	// (by command value) suppresses the extra delivery.
	Retries     int
	Duplicates  int
	Undelivered int
	PacketsLost uint64
}

// Summary implements Result.
func (r *PaxosResult) Summary() string {
	return fmt.Sprintf("PAXOS: %d/%d commands chosen and delivered (%d wrong values, %d retries, %d duplicates)",
		r.Delivered, r.Submitted, r.WrongValue, r.Retries, r.Duplicates)
}

// RunPaxos builds the five-device P4xos topology (leader, three
// acceptors, learner) and submits client commands; the learner
// delivers each chosen command to the application host.
func RunPaxos(cfg PaxosConfig) (*PaxosResult, error) {
	if cfg.Commands <= 0 {
		cfg.Commands = 16
	}
	if cfg.RetransmitNs == 0 {
		cfg.RetransmitNs = 400 * netsim.Microsecond
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 32
	}
	lossy := cfg.Faults.Active()
	app := ByName("PAXOS")

	n := netsim.NewNetwork()
	n.MaxEvents = 10_000_000
	n.InjectFaults(cfg.Faults)
	var specs map[uint8]*runtime.MessageSpec
	devs := map[uint16]*netsim.Device{}
	for _, id := range []uint16{PaxosLeader, PaxosAcceptor1, PaxosAcceptor2, PaxosAcceptor3, PaxosLearner} {
		prog, sp, err := CompileApp(app, cfg.Target, id)
		if err != nil {
			return nil, fmt.Errorf("device %d: %w", id, err)
		}
		specs = sp
		devs[id] = n.AddDevice(id, prog)
	}
	spec := specs[1]

	client := n.AddHost(100)
	appHost := n.AddHost(101)

	// Star-of-stars topology: leader at the center feeding acceptors;
	// acceptors feed the learner.
	n.Connect(client, devs[PaxosLeader], 1)
	n.ConnectDevices(devs[PaxosLeader], 2, devs[PaxosAcceptor1], 1)
	n.ConnectDevices(devs[PaxosLeader], 3, devs[PaxosAcceptor2], 1)
	n.ConnectDevices(devs[PaxosLeader], 4, devs[PaxosAcceptor3], 1)
	n.ConnectDevices(devs[PaxosAcceptor1], 2, devs[PaxosLearner], 1)
	n.ConnectDevices(devs[PaxosAcceptor2], 2, devs[PaxosLearner], 2)
	n.ConnectDevices(devs[PaxosAcceptor3], 2, devs[PaxosLearner], 3)
	n.Connect(appHost, devs[PaxosLearner], 4)
	if err := n.AutoWire(); err != nil {
		return nil, err
	}
	// Multicast groups: leader's acceptor group, acceptors' learner group.
	devs[PaxosLeader].SetMulticastGroup(20, []int{2, 3, 4})
	devs[PaxosAcceptor1].SetMulticastGroup(30, []int{2})
	devs[PaxosAcceptor2].SetMulticastGroup(30, []int{2})
	devs[PaxosAcceptor3].SetMulticastGroup(30, []int{2})

	res := &PaxosResult{}
	delivered := map[uint64]bool{}    // by instance
	deliveredVal := map[uint64]bool{} // by command value (app-level dedup)
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
			return // at-most-once per instance
		}
		delivered[inst[0]] = true
		// A retried command is chosen under a fresh instance; the
		// application deduplicates by command value.
		if deliveredVal[v[0]] {
			res.Duplicates++
			return
		}
		deliveredVal[v[0]] = true
		res.Delivered++
		if !lossy && v[0] != 1000+inst[0]-1 {
			res.WrongValue++
		}
	})

	// submit sends command c; under faults it arms a retransmission
	// timer that resends until the learner delivers the value or the
	// retry budget runs out.
	var submit func(c, attempt int)
	submit = func(c, attempt int) {
		val := uint64(1000 + c)
		if deliveredVal[val] {
			return
		}
		if attempt > 0 {
			res.Retries++
		}
		vals := make([]uint64, 8)
		vals[0] = val
		msg, err := runtime.Pack(spec,
			runtime.Message{Src: 100, Dst: 101, Device: PaxosLeader, Comp: 1}.Header(),
			[][]uint64{{1}, {0}, {0}, {0}, {0}, vals})
		if err != nil {
			return
		}
		client.Send(msg)
		if lossy && attempt < cfg.RetryBudget {
			n.At(cfg.RetransmitNs, func() { submit(c, attempt+1) })
		}
	}
	for c := 0; c < cfg.Commands; c++ {
		submit(c, 0)
		res.Submitted++
	}
	if err := n.RunAll(); err != nil {
		return nil, err
	}
	for c := 0; c < cfg.Commands; c++ {
		if !deliveredVal[uint64(1000+c)] {
			res.Undelivered++
		}
	}
	res.PacketsLost = n.FaultsDropped
	if lossy && res.Undelivered > 0 {
		return res, fmt.Errorf("paxos: %d/%d commands undelivered after retry budget (%d)",
			res.Undelivered, cfg.Commands, cfg.RetryBudget)
	}
	return res, nil
}
