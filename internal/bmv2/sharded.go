package bmv2

// sharded.go runs one compiled Switch on many cores: an RSS-style
// dispatcher hashes each packet's flow identity onto N worker shards,
// each draining a bounded FIFO with a pooled machine. The model
// mirrors an RMT ASIC's parallel pipes:
//
//   - Packets with equal flow keys serialize on one shard, so every
//     stateful register slot a flow touches is accessed by exactly one
//     goroutine and per-flow results are byte-identical to a
//     single-shard run (the shard-by-flow invariant).
//   - Packets of disjoint flows run in parallel; their relative order
//     is load-dependent, exactly as on hardware pipes.
//   - Table state is read through RCU snapshots (table.go), so the
//     control plane can mutate tables mid-traffic without stalling any
//     shard. Register reads/writes from the control plane instead
//     quiesce all shards (a stop-the-world barrier), because registers
//     are written by the data path and cannot be snapshotted.
//
// The flow key function is the caller's contract: two packets that may
// touch the same register cell must map to the same key. A nil key
// function serializes everything on shard 0, which is always safe.
//
// Nothing outside this package's tests runs Sharded but the benchmark's
// bmv2.sharded1_ns probe (bench/layers.go), which builds a one-shard
// engine and feeds it through SubmitPort. The engine goes with that
// probe (ROADMAP 1(g), 12).

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// FlowKeyFunc extracts a packet's flow identity — the header fields
// that select its register/lookup slots (e.g. AGG's pool index, the
// CACHE key). Packets that can touch the same stateful slot MUST map
// to the same key.
type FlowKeyFunc func(pkt []byte) uint64

// ShardedConfig parameterizes a sharded engine. Only the
// bmv2.sharded1_ns benchmark probe sets it (ROADMAP 1(g)).
type ShardedConfig struct {
	// Shards is the number of worker goroutines (default 1).
	Shards int
	// QueueDepth bounds each shard's FIFO (default 256). A full queue
	// makes Submit fail fast — open-loop backpressure.
	QueueDepth int
	// FlowKey maps a packet to its flow identity. nil sends every
	// packet to shard 0 (safe, serial).
	FlowKey FlowKeyFunc
	// Burst caps how many queued jobs a worker drains per channel
	// wakeup and runs through one ProcessBurst (default MaxBurst;
	// 1 disables bursting). Per-flow FIFO order is unaffected.
	Burst int
}

// ShardStats are one shard's counters.
type ShardStats struct {
	Processed uint64 // packets fully processed by this shard
	QueueFull uint64 // Submit rejections while this shard's queue was full
}

// ShardedStats aggregates engine counters.
type ShardedStats struct {
	Shards    []ShardStats
	Processed uint64
	QueueFull uint64
}

type shardJob struct {
	data []byte
	port int
	done func(*Result, error)
	ctl  func() // control token: quiesce barrier
}

type shard struct {
	ch        chan shardJob
	processed uint64
	queueFull uint64
}

// Sharded is the flow-parallel front end of one compiled Switch.
type Sharded struct {
	sw     *Switch
	key    FlowKeyFunc
	burst  int
	shards []*shard

	// mu serializes quiesce operations (control-plane register access,
	// Drain) against each other and against Close.
	mu     sync.Mutex
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewSharded wraps a switch in an n-shard dispatcher. A switch whose
// program the compiler refused has nothing to dispatch to: its compile
// error comes back wrapped. Its one caller outside tests is the
// bmv2.sharded1_ns benchmark probe (ROADMAP 1(g)).
func NewSharded(sw *Switch, cfg ShardedConfig) (*Sharded, error) {
	if err := sw.CompileErr(); err != nil {
		return nil, fmt.Errorf("sharded: %w", err)
	}
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 256
	}
	burst := cfg.Burst
	if burst <= 0 || burst > MaxBurst {
		burst = MaxBurst
	}
	sh := &Sharded{sw: sw, key: cfg.FlowKey, burst: burst}
	for i := 0; i < n; i++ {
		s := &shard{ch: make(chan shardJob, depth)}
		sh.shards = append(sh.shards, s)
		sh.wg.Add(1)
		go sh.worker(s)
	}
	return sh, nil
}

// Switch returns the underlying switch (e.g. for reading counters
// after Close).
func (sh *Sharded) Switch() *Switch { return sh.sw }

// Shards returns the shard count.
func (sh *Sharded) Shards() int { return len(sh.shards) }

// worker drains its FIFO in opportunistic bursts: each channel wakeup
// collects up to sh.burst already-queued jobs (never blocking for
// more) and runs them through one ProcessBurst — one machine checkout,
// one generation pin, batched counters. Channel FIFO order is
// preserved, so per-flow ordering and the quiesce barrier semantics
// are exactly those of the one-job-at-a-time loop: a control token
// encountered mid-drain stops the fill, the collected burst flushes
// first (those jobs were queued before the token), then the token
// parks the worker. Result/error slots live in worker-local arrays
// reused across bursts — a done callback may use its *Result only
// until it returns, which every existing caller already honors.
func (sh *Sharded) worker(s *shard) {
	defer sh.wg.Done()
	var (
		jobs  = make([]shardJob, 0, sh.burst)
		data  = make([][]byte, sh.burst)
		ports = make([]int, sh.burst)
		res   = make([]Result, sh.burst)
		errs  = make([]error, sh.burst)
	)
	for j := range s.ch {
		if j.ctl != nil {
			j.ctl()
			continue
		}
		jobs = append(jobs[:0], j)
		var ctl func()
	fill:
		for len(jobs) < sh.burst {
			select {
			case j2, ok := <-s.ch:
				if !ok {
					break fill
				}
				if j2.ctl != nil {
					ctl = j2.ctl
					break fill
				}
				jobs = append(jobs, j2)
			default:
				break fill
			}
		}
		n := len(jobs)
		for i := range jobs {
			data[i], ports[i] = jobs[i].data, jobs[i].port
		}
		sh.sw.ProcessBurst(data[:n], ports[:n], res[:n], errs[:n])
		atomic.AddUint64(&s.processed, uint64(n))
		for i := range jobs {
			data[i] = nil // release the caller's buffer reference
			if jobs[i].done == nil {
				continue
			}
			if errs[i] != nil {
				jobs[i].done(nil, errs[i])
			} else {
				jobs[i].done(&res[i], nil)
			}
		}
		if ctl != nil {
			ctl()
		}
	}
}

// mix64 is the splitmix64 finalizer: flow keys are often small dense
// integers (pool indices), and the mixer spreads them evenly over
// shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardOf reports which shard a packet would run on.
func (sh *Sharded) ShardOf(pkt []byte) int {
	if sh.key == nil || len(sh.shards) == 1 {
		return 0
	}
	return int(mix64(sh.key(pkt)) % uint64(len(sh.shards)))
}

// Submit enqueues a packet on its flow's shard without blocking. done
// (optional) runs on the shard goroutine after processing — it must be
// fast and must not call back into Sharded. The packet buffer is
// retained until done returns. Submit reports false — and counts a
// queue-full drop — when the shard's queue is full or the engine is
// closed; the caller decides whether to drop or retry (open loop vs
// closed loop).
//
// Per-flow FIFO order is guaranteed only among packets submitted from
// one goroutine; submitting one flow from many goroutines makes the
// arrival order itself ambiguous.
func (sh *Sharded) Submit(pkt []byte, done func(*Result, error)) bool {
	return sh.SubmitPort(pkt, 0, done)
}

// SubmitPort is Submit with an explicit ingress port, published to the
// program as meta.ingress_port. Its one caller outside tests is the
// bmv2.sharded1_ns benchmark probe (ROADMAP 1(g)).
func (sh *Sharded) SubmitPort(pkt []byte, inPort int, done func(*Result, error)) bool {
	if sh.closed.Load() {
		return false
	}
	s := sh.shards[sh.ShardOf(pkt)]
	select {
	case s.ch <- shardJob{data: pkt, port: inPort, done: done}:
		return true
	default:
		atomic.AddUint64(&s.queueFull, 1)
		return false
	}
}

// quiesce parks every shard at a barrier, runs fn with exclusive
// access to all switch state, then releases the shards. Queued packets
// submitted before the call are processed first (channel FIFO), so
// quiesce doubles as a drain barrier.
func (sh *Sharded) quiesce(fn func()) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed.Load() {
		// Workers are gone; the caller already has exclusive access.
		fn()
		return
	}
	var parked, release sync.WaitGroup
	release.Add(1)
	parked.Add(len(sh.shards))
	tok := shardJob{ctl: func() {
		parked.Done()
		release.Wait()
	}}
	for _, s := range sh.shards {
		s.ch <- tok
	}
	parked.Wait()
	fn()
	release.Done()
}

// Drain blocks until every packet submitted before the call has been
// processed.
func (sh *Sharded) Drain() { sh.quiesce(func() {}) }

// Close drains the queues, stops the workers, and marks the engine
// closed. Submit must not race with Close from another goroutine
// unless the submitter tolerates false.
func (sh *Sharded) Close() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed.Swap(true) {
		return
	}
	for _, s := range sh.shards {
		close(s.ch)
	}
	sh.wg.Wait()
}

// Stats snapshots the per-shard counters. Call after Drain (or Close)
// for totals consistent with submissions.
func (sh *Sharded) Stats() ShardedStats {
	st := ShardedStats{}
	for _, s := range sh.shards {
		ss := ShardStats{
			Processed: atomic.LoadUint64(&s.processed),
			QueueFull: atomic.LoadUint64(&s.queueFull),
		}
		st.Shards = append(st.Shards, ss)
		st.Processed += ss.Processed
		st.QueueFull += ss.QueueFull
	}
	return st
}

// Control plane --------------------------------------------------------
//
// Table mutations go straight to the switch: they publish RCU
// snapshots and never disturb the shards. Register access quiesces the
// data path first, because register cells are plain memory owned by
// whichever shard the flow hashes to.

// Write applies a batch transactionally. Pure table batches publish
// their generation lock-free; a batch containing register writes
// quiesces the shards first, so the registers and the rule set change
// in one atomic step with respect to the data path.
func (sh *Sharded) Write(b *WriteBatch) (res *WriteResult, err error) {
	if b != nil && b.hasRegisterWrites() {
		sh.quiesce(func() { res, err = sh.sw.Write(b) })
		return res, err
	}
	return sh.sw.Write(b)
}

// RegisterRead reads a register cell with the data path quiesced.
func (sh *Sharded) RegisterRead(name string, idx int) (v uint64, err error) {
	sh.quiesce(func() { v, err = sh.sw.RegisterRead(name, idx) })
	return v, err
}
