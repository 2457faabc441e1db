package apps

import (
	"fmt"

	"netcl/internal/codegen"
	"netcl/internal/ir"
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
// returning the P4 program, its message specs and the module's
// memories (what a runtime.DeviceConnection resolves NetCL names
// against). It is the one place a driver's target is chosen: "" means
// TNA, as for netcl.Compile, and an unknown target is an error.
func CompileApp(app *App, target passes.Target, device uint16) (*p4.Program, map[uint8]*runtime.MessageSpec, []*ir.MemRef, error) {
	target, err := passes.ResolveTarget(target)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("apps: %w", err)
	}
	var diags lang.Diagnostics
	file := lang.ParseFile(app.Name, app.NetCL, app.Defines, &diags)
	prog := sema.Check(file, &diags)
	if err := diags.Err(); err != nil {
		return nil, nil, nil, err
	}
	mod := lower.Module(prog, device, lower.Options{}, &diags)
	if err := diags.Err(); err != nil {
		return nil, nil, nil, err
	}
	if _, err := passes.Run(mod, passes.DefaultOptions(target)); err != nil {
		return nil, nil, nil, err
	}
	// ECMP is always compiled in for app deployments: the topology
	// route installer spreads flows over equal-cost uplinks, and a
	// program without the spreader cannot take ECMP route entries.
	p4prog, err := codegen.Generate(mod, codegen.Options{Target: p4.Target(target), ECMP: true})
	if err != nil {
		return nil, nil, nil, err
	}
	return p4prog, MessageSpecs(prog), mod.Mems, nil
}

// MessageSpecs derives each computation's runtime message layout from
// the specification of its first kernel.
func MessageSpecs(prog *sema.Program) map[uint8]*runtime.MessageSpec {
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
	return specs
}

// loadProgram returns the device program: either compiled from NetCL
// or the handwritten baseline (parsed P4), which share wire formats.
// The memories are the generated program's; a baseline has none.
func loadProgram(app *App, target passes.Target, device uint16, baseline bool) (*p4.Program, *runtime.MessageSpec, []*ir.MemRef, error) {
	prog, specs, mems, err := CompileApp(app, target, device)
	if err != nil || !baseline {
		return prog, specs[1], mems, err
	}
	src, err := app.Baseline()
	if err != nil {
		return nil, nil, nil, err
	}
	bl, err := p4.Parse(app.Name+"-baseline", src)
	return bl, specs[1], nil, err
}

// fabricProgs holds one compiled program per physical device of a
// fabric, built before the topology so a compile error is returned,
// not raised from inside a topology builder.
type fabricProgs struct {
	progs map[uint16]*p4.Program
	mems  map[uint16][]*ir.MemRef
	spec  *runtime.MessageSpec // computation 1, the same on every device
}

// compileFabric compiles appFor(id) for every physical id. logical maps
// a standby's physical id to the logical id it is compiled as, so it
// answers for that device once traffic is re-routed to it (nil: every
// device is itself).
func compileFabric(target passes.Target, logical map[uint16]uint16, appFor func(id uint16) *App, ids ...uint16) (*fabricProgs, error) {
	f := &fabricProgs{progs: map[uint16]*p4.Program{}, mems: map[uint16][]*ir.MemRef{}}
	for _, id := range ids {
		lid := id
		if l, ok := logical[id]; ok {
			lid = l
		}
		prog, specs, mems, err := CompileApp(appFor(lid), target, lid)
		if err != nil {
			return nil, fmt.Errorf("device %d: %w", id, err)
		}
		f.progs[id], f.mems[id], f.spec = prog, mems, specs[1]
	}
	return f, nil
}

// prog is the topology builders' program callback.
func (f *fabricProgs) prog(_ int, id uint16) *p4.Program { return f.progs[id] }

// conn is the control-plane connection to dev, addressing its memories
// by NetCL name.
func (f *fabricProgs) conn(dev *netsim.Device) *runtime.DeviceConnection {
	return &runtime.DeviceConnection{CP: &p4rt.Direct{SW: dev.SW}, Mems: f.mems[dev.ID]}
}

// partition enables the delivery hash chains when trace is set (the
// determinism witness) and cuts n into k partitions, returning how many
// it runs.
func partition(n *netsim.Network, trace bool, k int) (int, error) {
	if trace {
		n.EnableTrace()
	}
	err := n.SetPartitions(k)
	return n.Partitions(), err
}

// orDefault returns v, or def when v is not positive: a zero (or
// negative) driver knob means its default.
func orDefault[T ~int | ~int64 | ~float64](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// aggWith returns the AGG application with some compile-time
// parameters overridden (ByName hands out a fresh copy).
func aggWith(defines map[string]uint64) *App {
	app := ByName("AGG")
	for k, v := range defines {
		app.Defines[k] = v
	}
	return app
}

// kernelArgs is reusable message scratch for one kernel: one slice per
// parameter, found by its NetCL name, and a send buffer. Every driver
// packs and unpacks through it, so each app's wire layout is written
// once; a message it packs is valid until the next pack (netsim and
// the channels copy what they send).
type kernelArgs struct {
	spec *runtime.MessageSpec
	argv [][]uint64
	buf  []byte
}

func newKernelArgs(spec *runtime.MessageSpec) *kernelArgs {
	a := &kernelArgs{spec: spec, argv: make([][]uint64, len(spec.Args)), buf: make([]byte, 0, spec.Size())}
	for i, arg := range spec.Args {
		a.argv[i] = make([]uint64, arg.Count)
	}
	return a
}

// arg returns the named parameter's slice, nil if the kernel has none.
func (a *kernelArgs) arg(name string) []uint64 {
	for i, arg := range a.spec.Args {
		if arg.Name == name {
			return a.argv[i]
		}
	}
	return nil
}

// zero clears every argument, so a pack carries only what is set after.
func (a *kernelArgs) zero() {
	for _, s := range a.argv {
		clear(s)
	}
}

// pack serializes the current argument values under hdr.
func (a *kernelArgs) pack(hdr wire.Header) ([]byte, error) {
	msg, err := runtime.PackAppend(a.buf[:0], a.spec, hdr, a.argv)
	a.buf = msg[:0]
	return msg, err
}

// unpack decodes msg into the argument slices.
func (a *kernelArgs) unpack(msg []byte) (wire.Header, error) {
	return runtime.UnpackInto(a.spec, msg, a.argv)
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
	// RetryBudget bounds retransmissions per chunk (default 64); an
	// exhausted budget aborts the run with an error instead of
	// retransmitting forever.
	RetryBudget int
}

// aggRetransmitNs is the AGG worker retransmission timeout.
const aggRetransmitNs = 150 * netsim.Microsecond

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

// finish derives the rates and latency quantiles once a run's
// completions are in.
func (r *AggResult) finish(workers int, hist *Hist) {
	if r.DurationNs > 0 {
		// Each completed slot aggregates AggSlotSize elements per worker.
		totalPerWorker := float64(r.Completed/workers) * AggSlotSize
		r.ATEPerWorker = totalPerWorker / (r.DurationNs / 1e9)
	}
	if r.Completed > 0 {
		r.MeanChunkNs /= float64(r.Completed)
		r.P50ChunkNs = float64(hist.Quantile(0.50))
		r.P99ChunkNs = float64(hist.Quantile(0.99))
	}
}

// RunAgg drives the SwitchML-style aggregation through the simulated
// network: workers stream chunks into slots; the switch reduces and
// multicasts completed slots back.
func RunAgg(cfg AggConfig) (*AggResult, error) {
	cfg.Workers = orDefault(cfg.Workers, 2)
	cfg.Chunks = orDefault(cfg.Chunks, 64)
	cfg.Window = orDefault(cfg.Window, 4)
	prog, spec, _, err := loadProgram(aggWith(map[string]uint64{"NUM_WORKERS": uint64(cfg.Workers)}), cfg.Target, 1, cfg.Baseline)
	if err != nil {
		return nil, err
	}

	cfg.RetryBudget = orDefault(cfg.RetryBudget, 64)
	lossy := cfg.LossEveryNth > 0 || cfg.Faults.Active()
	n := netsim.NewNetwork()
	n.MaxEvents = 10_000_000
	n.InjectFaults(cfg.Faults)
	dev := n.AddDevice(1, prog)
	res := &AggResult{}
	var chunkHist Hist
	workers := make([]*aggWorker, cfg.Workers)
	hosts := make([]*netsim.Host, cfg.Workers)
	var links []*netsim.Link
	var mcastPorts []int
	var sendChunk func(w, chunk, attempt int)
	for w := 0; w < cfg.Workers; w++ {
		hosts[w] = n.AddHost(uint16(10 + w))
		hosts[w].SetReceive(func(h *netsim.Host, msg []byte) {
			if _, next := workers[w].complete(msg, float64(n.Now()), res, &chunkHist); next >= 0 {
				sendChunk(w, next, 0)
			}
		})
		l := n.Connect(hosts[w], dev, w+1)
		l.DropNth = cfg.LossEveryNth
		links = append(links, l)
		workers[w] = newAggWorker(spec, w, cfg.Workers, cfg.Window, cfg.Chunks)
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
		if _, err := dev.SW.Write(p4rt.NewWriteBatch().SetDefault("cfg_workers", "set_target", []uint64{uint64(cfg.Workers - 1)})); err != nil {
			return nil, err
		}
	}

	budgetExceeded := 0
	sendChunk = func(w, chunk, attempt int) {
		wk := workers[w]
		msg, err := wk.pack(chunk, float64(n.Now()))
		if err != nil {
			return
		}
		hosts[w].Send(msg)
		// Retransmission timer: resend while the slot is outstanding
		// (the two-version scheme makes resends safe, §V-E). The retry
		// budget bounds recovery so a partitioned run terminates.
		if lossy {
			n.At(aggRetransmitNs, func() {
				if !wk.outstanding[chunk] {
					return
				}
				if attempt >= cfg.RetryBudget {
					budgetExceeded++
					return
				}
				res.Retransmissions++
				sendChunk(w, chunk, attempt+1)
			})
		}
	}
	// Prime the window.
	for w := range workers {
		for c := 0; c < cfg.Window && c < cfg.Chunks; c++ {
			sendChunk(w, c, 0)
		}
	}
	if err := n.RunAll(); err != nil {
		return nil, err
	}
	res.DurationNs = float64(n.Now())
	res.finish(cfg.Workers, &chunkHist)
	// Every worker must observe every chunk's completion.
	for _, wk := range workers {
		if wk.done != cfg.Chunks {
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
	// Faults injects seeded probabilistic loss/jitter/duplication.
	Faults netsim.FaultConfig
	// RetryBudget bounds retransmissions per request (default 64).
	RetryBudget int
}

const (
	// cacheServerNs is the KVS server's per-request processing time,
	// calibrated to the paper's testbed observations: ~27µs mean
	// response when every request misses, ~9.4µs when all hit.
	cacheServerNs = 7600 * netsim.Nanosecond
	// cacheRetransmitNs is the client's GET retransmission timeout
	// under faults.
	cacheRetransmitNs = 250 * netsim.Microsecond
)

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
	cfg.TotalKeys = orDefault(cfg.TotalKeys, 64)
	cfg.Requests = orDefault(cfg.Requests, 256)
	cfg.RetryBudget = orDefault(cfg.RetryBudget, 64)
	prog, spec, mems, err := loadProgram(ByName("CACHE"), cfg.Target, 1, cfg.Baseline)
	if err != nil {
		return nil, err
	}

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
	// plane as one transaction, so packets start seeing cached keys only
	// when every index entry and value word is in place.
	cached := min(cfg.CachedKeys, cfg.TotalKeys)
	if cfg.Baseline {
		err = baselineCacheFill(dev, 1, cached, valueOf)
	} else {
		conn := &runtime.DeviceConnection{CP: &p4rt.Direct{SW: dev.SW}, Mems: mems}
		err = cacheFill(conn.Txn(), 1, cached, valueOf).Commit()
	}
	if err != nil {
		return nil, err
	}
	serveKVS(server, spec, cacheServerNs, valueOf)

	res := &CacheResult{}
	cl := (&cacheClient{h: client, dst: server.ID, device: 1, requests: cfg.Requests,
		keyOf: func(i int) uint64 { return uint64(i%cfg.TotalKeys) + 1 },
		value: valueOf, res: res, budget: cfg.RetryBudget}).attach(spec)
	if cfg.Faults.Active() {
		cl.retransmit = cacheRetransmitNs
	}
	cl.issue()
	if err := n.RunAll(); err != nil {
		return nil, err
	}
	done := res.Hits + res.Misses
	if done > 0 {
		res.MeanResponseNs /= float64(done)
		res.P50ResponseNs = float64(cl.rt.Quantile(0.50))
		res.P99ResponseNs = float64(cl.rt.Quantile(0.99))
		res.HitRate = float64(res.Hits) / float64(done)
	}
	res.PacketsLost = n.FaultsDropped
	res.Sim = SimStats{Events: n.Processed, PeakQueue: n.PeakQueue, EventsPerSec: n.EventsPerSec()}
	if cl.exhausted > 0 {
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
	ids := []uint16{PaxosLeader, PaxosAcceptor1, PaxosAcceptor2, PaxosAcceptor3, PaxosLearner}
	app := ByName("PAXOS")
	fab, err := compileFabric(cfg.Target, nil, func(uint16) *App { return app }, ids...)
	if err != nil {
		return nil, err
	}

	n := netsim.NewNetwork()
	n.MaxEvents = 10_000_000
	n.InjectFaults(cfg.Faults)
	devs := map[uint16]*netsim.Device{}
	for _, id := range ids {
		devs[id] = n.AddDevice(id, fab.progs[id])
	}
	client := n.AddHost(paxosClientID)
	appHost := n.AddHost(paxosAppHostID)

	// Star-of-stars topology: leader at the center feeding acceptors;
	// acceptors feed the learner.
	n.Connect(client, devs[PaxosLeader], 1)
	accs := ids[1:4]
	for i, acc := range accs {
		n.ConnectDevices(devs[PaxosLeader], 2+i, devs[acc], 1)
	}
	for i, acc := range accs {
		n.ConnectDevices(devs[acc], 2, devs[PaxosLearner], 1+i)
	}
	n.Connect(appHost, devs[PaxosLearner], 4)
	if err := n.AutoWire(); err != nil {
		return nil, err
	}
	// Multicast groups: leader's acceptor group, acceptors' learner group.
	devs[PaxosLeader].SetMulticastGroup(20, []int{2, 3, 4})
	for _, acc := range accs {
		devs[acc].SetMulticastGroup(30, []int{2})
	}

	return runPaxosLoad(n, fab.spec, client, appHost, cfg)
}
