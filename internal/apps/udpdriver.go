package apps

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"netcl/internal/p4"
	"netcl/internal/p4rt"
	"netcl/internal/passes"
	"netcl/internal/runtime"
)

// UDP drivers: the AGG and PAXOS experiments over the real-UDP backend
// (§VI-C) instead of the discrete-event simulator. The protocols are
// the same — the SwitchML slot scheme and the P4xos pipeline tolerate
// retransmission by construction — but timeouts are wall clock and the
// workers run as concurrent goroutines over real sockets, so these
// drivers double as an end-to-end check that loss recovery works
// outside simulated time.
//
// Both drivers ride the pipelined runtime.Channel: each worker posts
// its outstanding messages into a sliding window under an application
// token (the chunk or command value) and resolves them with Complete
// when it observes the protocol-level effect, so the Window knobs map
// directly onto the channel's window while retransmission timing,
// backoff and the retry budget live in one place.

// AggUDPConfig parameterizes the aggregation run over UDP.
type AggUDPConfig struct {
	Workers  int
	Chunks   int // chunks (slots' worth of data) per worker
	Window   int // outstanding slots per worker
	Target   passes.Target
	Baseline bool // run the handwritten P4 instead of generated code
	// Faults injects seeded probabilistic loss/duplication at the
	// device (zero value = faultless).
	Faults runtime.FaultSpec
	// RetransmitTimeout is the per-worker receive timeout that triggers
	// retransmission of outstanding chunks (default 15ms).
	RetransmitTimeout time.Duration
	// RetryBudget bounds retransmissions per chunk (default 64).
	RetryBudget int
}

// RunAggUDP drives the SwitchML-style aggregation over real UDP
// sockets: one UDPDevice runs the switch program; each worker is a
// goroutine with its own HostConn running the slot protocol, resending
// outstanding chunks on timeout (the two-version scheme makes resends
// safe, §V-E).
func RunAggUDP(cfg AggUDPConfig) (*AggResult, error) {
	cfg.Workers = orDefault(cfg.Workers, 2)
	cfg.Chunks = orDefault(cfg.Chunks, 32)
	cfg.Window = orDefault(cfg.Window, 4)
	cfg.RetransmitTimeout = orDefault(cfg.RetransmitTimeout, 15*time.Millisecond)
	cfg.RetryBudget = orDefault(cfg.RetryBudget, 64)
	prog, spec, _, err := loadProgram(aggWith(map[string]uint64{"NUM_WORKERS": uint64(cfg.Workers)}), cfg.Target, 1, cfg.Baseline)
	if err != nil {
		return nil, err
	}

	var dep udpDeployment
	dev, err := dep.serve(1, prog, cfg.Faults)
	if err == nil && cfg.Baseline {
		_, err = dev.Write(p4rt.NewWriteBatch().
			SetDefault("cfg_workers", "set_target", []uint64{uint64(cfg.Workers - 1)}))
	}
	conns := make([]*runtime.HostConn, cfg.Workers)
	var members []uint16
	for w := 0; err == nil && w < cfg.Workers; w++ {
		id := uint16(10 + w)
		conns[w], err = dep.dial(id, dev)
		members = append(members, id)
	}
	if err != nil {
		dep.close()
		return nil, err
	}
	dev.SetMulticastGroup(42, members)

	res := &AggResult{}
	var chunkHist Hist
	var mu sync.Mutex
	start := time.Now()
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = aggUDPWorker(cfg, conns[w], spec, w, start, res, &chunkHist, &mu)
		}()
	}
	wg.Wait()
	res.DurationNs = float64(time.Since(start).Nanoseconds())
	res.PacketsLost = dep.close()
	res.finish(cfg.Workers, &chunkHist)
	return res, errors.Join(errs...)
}

// aggUDPWorker runs one worker's slot protocol until its chunks all
// complete. Outstanding chunks are posted into a pipelined Channel
// whose window is the slot window: the channel retransmits stalled
// chunks on its shared timer (fixed cadence, preserving the old resend
// rhythm) and enforces the retry budget, while the worker keeps the
// protocol semantics — it resolves a chunk with Complete only when the
// matching slot completion arrives.
func aggUDPWorker(cfg AggUDPConfig, conn *runtime.HostConn, spec *runtime.MessageSpec,
	w int, start time.Time, res *AggResult, hist *Hist, mu *sync.Mutex) error {
	// The slot protocol resends at a fixed cadence.
	ch := fixedCadence(conn, fmt.Sprintf("agg.w%d", w), cfg.Window, cfg.RetransmitTimeout, cfg.RetryBudget)
	defer func() {
		st := ch.Stats()
		mu.Lock()
		res.Retransmissions += int(st.Retransmits)
		mu.Unlock()
		ch.Close()
	}()
	wk := newAggWorker(spec, w, cfg.Workers, cfg.Window, cfg.Chunks)
	now := func() float64 { return float64(time.Since(start).Nanoseconds()) }
	send := func(chunk int) error {
		msg, err := wk.pack(chunk, now())
		if err != nil {
			return err
		}
		return ch.Post(uint64(chunk), msg)
	}

	for c := 0; c < cfg.Window && c < cfg.Chunks; c++ {
		if err := send(c); err != nil {
			return err
		}
	}
	for wk.done < cfg.Chunks {
		msg, err := ch.Recv(cfg.RetransmitTimeout)
		if err != nil {
			if runtime.IsTimeout(err) {
				continue // the channel retransmits; keep waiting
			}
			return fmt.Errorf("agg-udp: worker %d: %w; %d/%d slots completed",
				w, err, wk.done, cfg.Chunks)
		}
		mu.Lock()
		chunk, next := wk.complete(msg, now(), res, hist)
		mu.Unlock()
		if chunk < 0 {
			continue
		}
		ch.Complete(uint64(chunk))
		if next >= 0 {
			if err := send(next); err != nil {
				return err
			}
		}
	}
	return nil
}

// PaxosUDPConfig parameterizes the consensus run over UDP.
type PaxosUDPConfig struct {
	Commands int
	// Window is how many commands the client keeps in flight at once
	// (default 1: serial submission, the pre-pipelining behavior).
	Window int
	Target passes.Target
	// Faults injects seeded probabilistic loss/duplication at every
	// device; each device derives its own RNG stream from Seed.
	Faults runtime.FaultSpec
	// RetransmitTimeout is the client's wait before resending an
	// undelivered command (default 20ms).
	RetransmitTimeout time.Duration
	// RetryBudget bounds retransmissions per command (default 32).
	RetryBudget int
}

// RunPaxosUDP runs the five-device P4xos deployment as five UDPDevice
// processes chained over loopback sockets: client → leader →
// acceptors (multicast) → learner → application host. The client
// resends commands the learner has not delivered; a resent command is
// chosen under a fresh instance, so delivery is deduplicated by
// command value.
func RunPaxosUDP(cfg PaxosUDPConfig) (*PaxosResult, error) {
	cfg.Commands = orDefault(cfg.Commands, 8)
	cfg.Window = orDefault(cfg.Window, 1)
	cfg.RetransmitTimeout = orDefault(cfg.RetransmitTimeout, 20*time.Millisecond)
	cfg.RetryBudget = orDefault(cfg.RetryBudget, 32)
	lossy := cfg.Faults.LossRate > 0 || cfg.Faults.DupRate > 0
	ids := []uint16{PaxosLeader, PaxosAcceptor1, PaxosAcceptor2, PaxosAcceptor3, PaxosLearner}
	app := ByName("PAXOS")
	fab, err := compileFabric(cfg.Target, nil, func(uint16) *App { return app }, ids...)
	if err != nil {
		return nil, err
	}
	var dep udpDeployment
	devs := map[uint16]*runtime.UDPDevice{}
	for _, id := range ids {
		// Decorrelate the per-device RNG streams.
		faults := cfg.Faults
		faults.Seed += int64(id)
		if devs[id], err = dep.serve(id, fab.progs[id], faults); err != nil {
			dep.close()
			return nil, err
		}
	}
	client, err := dep.dial(paxosClientID, devs[PaxosLeader])
	var appHost *runtime.HostConn
	if err == nil {
		appHost, err = dep.dial(paxosAppHostID, devs[PaxosLearner])
	}
	// Operator wiring: leader multicasts to the acceptors, acceptors to
	// the learner (which delivers to the application host dialed to it).
	for _, acc := range []uint16{PaxosAcceptor1, PaxosAcceptor2, PaxosAcceptor3} {
		if err == nil {
			err = devs[PaxosLeader].SetNodeAddr(acc, devs[acc].Addr())
		}
		if err == nil {
			err = devs[acc].SetNodeAddr(PaxosLearner, devs[PaxosLearner].Addr())
		}
		devs[acc].SetMulticastGroup(30, []uint16{PaxosLearner})
	}
	devs[PaxosLeader].SetMulticastGroup(20, []uint16{PaxosAcceptor1, PaxosAcceptor2, PaxosAcceptor3})
	if err != nil {
		dep.close()
		return nil, err
	}

	res := &PaxosResult{}
	var mu sync.Mutex
	log := newPaxosLog()

	// The client submits through a pipelined channel: up to Window
	// commands ride as posted entries that the channel retransmits on
	// its timer (fixed cadence), and the listener below resolves them by
	// command value when the learner delivers — a cross-socket
	// completion, which is exactly what Post/Complete exists for.
	ch := fixedCadence(client, "paxos.client", cfg.Window, cfg.RetransmitTimeout, cfg.RetryBudget)
	defer ch.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rx := newPaxosArgs(fab.spec)
		for {
			// Blocks until a delivery arrives or appHost is closed.
			msg, err := appHost.Recv(0)
			if err != nil {
				return
			}
			inst, val, err := rx.delivery(msg)
			if err != nil {
				continue
			}
			mu.Lock()
			// Serial submission chooses instances in command order;
			// pipelined submission does not guarantee arrival order at
			// the leader, so the order check only applies at Window 1.
			fresh := log.deliver(res, inst, val, !lossy && cfg.Window <= 1)
			mu.Unlock()
			if fresh {
				ch.Complete(val)
			}
		}
	}()

	tx := newPaxosArgs(fab.spec)
	for c := 0; c < cfg.Commands && err == nil; c++ {
		val := paxosValue(c)
		res.Submitted++
		var msg []byte
		if msg, err = tx.command(val); err == nil {
			// Post blocks (retransmitting as it waits) until a window
			// slot frees up; a command that exhausts its budget frees its
			// slot and is counted below as undelivered.
			err = ch.Post(val, msg)
		}
	}
	if err == nil {
		// Wait out the window: every posted command either completes via
		// the listener or exhausts its retry budget. Budget exhaustion is
		// accounted as Undelivered below, not surfaced as the run error.
		ch.Drain(0)
	}
	appHost.Close()
	wg.Wait()
	res.Retries += int(ch.Stats().Retransmits)
	res.Undelivered = log.undelivered(cfg.Commands)
	res.PacketsLost = dep.close()
	if err != nil {
		return res, err
	}
	if res.Undelivered > 0 {
		return res, fmt.Errorf("paxos-udp: %d/%d commands undelivered after retry budget (%d)",
			res.Undelivered, cfg.Commands, cfg.RetryBudget)
	}
	return res, nil
}

// fixedCadence opens a pipelined channel on conn that resends stalled
// entries every timeout, without backoff, up to budget times each.
func fixedCadence(conn *runtime.HostConn, name string, window int, timeout time.Duration, budget int) *runtime.Channel {
	return conn.NewChannel(runtime.ChannelConfig{Window: window, Name: name,
		Reliability: runtime.ReliabilityConfig{Timeout: timeout, MaxRetries: budget, Backoff: 1}})
}

// udpDeployment is a set of loopback UDP devices and the host
// connections dialed to them, torn down together.
type udpDeployment struct {
	devs  []*runtime.UDPDevice
	hosts []*runtime.HostConn
}

// serve starts device id running prog.
func (d *udpDeployment) serve(id uint16, prog *p4.Program, faults runtime.FaultSpec) (*runtime.UDPDevice, error) {
	dev, err := runtime.ServeDevice(runtime.DeviceConfig{ID: id, Addr: "127.0.0.1:0", Prog: prog, Faults: faults})
	if err == nil {
		d.devs = append(d.devs, dev)
	}
	return dev, err
}

// dial connects host id to dev and registers the host's address there,
// so the device can deliver to it.
func (d *udpDeployment) dial(id uint16, dev *runtime.UDPDevice) (*runtime.HostConn, error) {
	h, err := runtime.Dial(runtime.DialConfig{ID: id, Local: "127.0.0.1:0", Device: dev.Addr()})
	if err != nil {
		return nil, err
	}
	d.hosts = append(d.hosts, h)
	return h, dev.SetNodeAddr(id, h.Addr())
}

// close closes every host, then every device, and returns the packets
// the devices' fault injection dropped: a device's Close joins its
// loop, so its counters are settled only after it.
func (d *udpDeployment) close() (faultDropped uint64) {
	for _, h := range d.hosts {
		h.Close()
	}
	for _, dev := range d.devs {
		dev.Close()
		faultDropped += dev.FaultDropped
	}
	return faultDropped
}
