package apps

import (
	"strings"
	"testing"
	"time"

	"netcl/internal/netsim"
	"netcl/internal/passes"
	"netcl/internal/runtime"
)

// Chaos tests: the experiment drivers under seeded probabilistic fault
// injection. Every simulator run is fully deterministic (fixed seed,
// discrete-event time), so the counters below are exact.

// TestAggUnderLoss is the acceptance case: AGG completes correctly
// under 1% injected loss on the simulated network, with retransmission
// and loss counters reported.
func TestAggUnderLoss(t *testing.T) {
	res, err := RunAgg(AggConfig{
		Workers: 3, Chunks: 40, Window: 2, Target: passes.TargetTNA,
		Faults: netsim.FaultConfig{LossRate: 0.01, Seed: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3*40 {
		t.Errorf("completed %d slots, want 120", res.Completed)
	}
	if res.Mismatches != 0 {
		t.Errorf("%d aggregation mismatches despite recovery", res.Mismatches)
	}
	if res.PacketsLost == 0 {
		t.Error("1%% loss over ~500 traversals dropped nothing; injection broken")
	}
	if res.Retransmissions == 0 {
		t.Error("packets were lost but nothing was retransmitted")
	}
}

// TestAggUnderHeavyChaos piles loss, duplication, and reordering jitter
// together; the slot protocol must still aggregate every chunk once.
func TestAggUnderHeavyChaos(t *testing.T) {
	res, err := RunAgg(AggConfig{
		Workers: 3, Chunks: 20, Window: 2, Target: passes.TargetTNA,
		Faults: netsim.FaultConfig{LossRate: 0.05, DupRate: 0.02, JitterNs: 500, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3*20 || res.Mismatches != 0 {
		t.Errorf("completed %d (want 60), mismatches %d (want 0)", res.Completed, res.Mismatches)
	}
	if res.PacketsLost == 0 || res.Retransmissions == 0 {
		t.Errorf("chaos not exercised: %d lost, %d retransmissions", res.PacketsLost, res.Retransmissions)
	}
}

// TestAggDeterministicUnderSeed checks reproducibility: the same seed
// must produce the identical fault pattern and counters.
func TestAggDeterministicUnderSeed(t *testing.T) {
	cfg := AggConfig{
		Workers: 2, Chunks: 16, Window: 2, Target: passes.TargetTNA,
		Faults: netsim.FaultConfig{LossRate: 0.03, JitterNs: 300, Seed: 9},
	}
	a, err := RunAgg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAgg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock event rate is not part of the determinism contract;
	// everything in simulated time and counters is.
	a.Sim.EventsPerSec, b.Sim.EventsPerSec = 0, 0
	if *a != *b {
		t.Errorf("same seed diverged:\n  %+v\n  %+v", *a, *b)
	}
}

// TestAggRetryBudget starves the retry budget (every packet toward the
// switch eventually lost is unrecoverable with 0 budget headroom) and
// checks the driver terminates with ErrRetryBudget semantics instead
// of spinning forever.
func TestAggRetryBudget(t *testing.T) {
	_, err := RunAgg(AggConfig{
		Workers: 2, Chunks: 8, Window: 2, Target: passes.TargetTNA,
		Faults:      netsim.FaultConfig{LossRate: 0.9, Seed: 3},
		RetryBudget: 4,
	})
	if err == nil {
		t.Fatal("90% loss with a budget of 4 should exhaust the retry budget")
	}
	if !strings.Contains(err.Error(), "retry budget") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestPaxosUnderLoss is the acceptance case for consensus: all
// commands are chosen and delivered exactly once under 1% loss.
func TestPaxosUnderLoss(t *testing.T) {
	res, err := RunPaxos(PaxosConfig{
		Commands: 16, Target: passes.TargetTNA,
		Faults: netsim.FaultConfig{LossRate: 0.01, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 16 || res.Undelivered != 0 {
		t.Errorf("delivered %d/16 (%d undelivered)", res.Delivered, res.Undelivered)
	}
	if res.WrongValue != 0 {
		t.Errorf("%d wrong values", res.WrongValue)
	}
}

// TestCacheUnderLoss: idempotent GETs retransmit; every request must be
// answered with the right value.
func TestCacheUnderLoss(t *testing.T) {
	res, err := RunCache(CacheConfig{
		CachedKeys: 8, TotalKeys: 16, Requests: 64, Target: passes.TargetTNA,
		Faults: netsim.FaultConfig{LossRate: 0.02, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Hits + res.Misses; got != 64 {
		t.Errorf("answered %d/64 requests", got)
	}
	if res.WrongValues != 0 {
		t.Errorf("%d wrong values under loss", res.WrongValues)
	}
	if res.PacketsLost == 0 || res.Retransmissions == 0 {
		t.Errorf("loss not exercised: %d lost, %d retransmissions", res.PacketsLost, res.Retransmissions)
	}
}

// TestRunDispatcher drives an app through the unified Run entry point
// and checks the app/config mismatch guard.
func TestRunDispatcher(t *testing.T) {
	res, err := Run(ByName("AGG"), AggConfig{Workers: 2, Chunks: 8, Window: 2, Target: passes.TargetTNA})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Summary(); !strings.Contains(s, "AGG") {
		t.Errorf("summary %q does not mention AGG", s)
	}
	if _, err := Run(ByName("PAXOS"), AggConfig{}); err == nil {
		t.Error("PAXOS app with an AGG config should be rejected")
	}
	if _, err := Run(nil, 42); err == nil {
		t.Error("unsupported config type should be rejected")
	}
	if _, err := Run(nil, nil); err == nil {
		t.Error("nil config should be rejected")
	}
	pres, err := Run(nil, &PaxosConfig{Commands: 4, Target: passes.TargetTNA})
	if err != nil {
		t.Fatal(err)
	}
	if s := pres.Summary(); !strings.Contains(s, "4/4") {
		t.Errorf("summary %q does not report 4/4 delivered", s)
	}
}

// TestRunAggUDP runs the aggregation over real UDP sockets, lossless.
func TestRunAggUDP(t *testing.T) {
	res, err := RunAggUDP(AggUDPConfig{
		Workers: 2, Chunks: 12, Window: 3, Target: passes.TargetTNA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2*12 || res.Mismatches != 0 {
		t.Errorf("completed %d (want 24), mismatches %d", res.Completed, res.Mismatches)
	}
}

// TestRunAggUDPUnderLoss is the acceptance case on the real-UDP
// backend: AGG completes correctly with seeded loss injected at the
// device. Retransmission counts vary with goroutine scheduling, so
// only correctness is asserted exactly.
func TestRunAggUDPUnderLoss(t *testing.T) {
	res, err := RunAggUDP(AggUDPConfig{
		Workers: 2, Chunks: 24, Window: 2, Target: passes.TargetTNA,
		Faults:            runtime.FaultSpec{LossRate: 0.05, Seed: 17},
		RetransmitTimeout: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2*24 || res.Mismatches != 0 {
		t.Errorf("completed %d (want 48), mismatches %d", res.Completed, res.Mismatches)
	}
	// ~200 RNG draws at 5%: a zero-drop run is a broken injector, not
	// bad luck (P < 1e-4).
	if res.PacketsLost == 0 {
		t.Error("5%% device loss dropped nothing; injection broken")
	}
	t.Logf("agg-udp under loss: %s", res.Summary())
}

// TestRunAggUDPBaseline checks the handwritten P4 over UDP, including
// the control-plane worker-count configuration.
func TestRunAggUDPBaseline(t *testing.T) {
	res, err := RunAggUDP(AggUDPConfig{
		Workers: 2, Chunks: 8, Window: 2, Target: passes.TargetTNA, Baseline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 16 || res.Mismatches != 0 {
		t.Errorf("completed %d (want 16), mismatches %d", res.Completed, res.Mismatches)
	}
}

// TestRunPaxosUDP runs the five-device consensus over UDP, lossless.
func TestRunPaxosUDP(t *testing.T) {
	res, err := RunPaxosUDP(PaxosUDPConfig{Commands: 6, Target: passes.TargetTNA})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 6 || res.WrongValue != 0 {
		t.Errorf("delivered %d/6, %d wrong values", res.Delivered, res.WrongValue)
	}
}

// TestHostpathChannelChaosSim drives the pipelined channel through
// seeded loss, duplication, and reordering jitter on the simulator
// backend, and checks the windowed run produces the byte-identical
// result stream of a stop-and-wait run: the window reorders transport
// traffic, never application results.
func TestHostpathChannelChaosSim(t *testing.T) {
	faults := netsim.FaultConfig{LossRate: 0.03, DupRate: 0.02, JitterNs: 500, Seed: 7}
	base, err := RunHostpath(HostpathConfig{Window: 1, Ops: 96, Faults: faults, Target: passes.TargetTNA})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := RunHostpath(HostpathConfig{Window: 32, Ops: 96, Faults: faults, Target: passes.TargetTNA})
	if err != nil {
		t.Fatal(err)
	}
	if base.Mismatches != 0 || pipe.Mismatches != 0 {
		t.Errorf("wrong results under chaos: stop-and-wait %d, windowed %d",
			base.Mismatches, pipe.Mismatches)
	}
	if base.Results != pipe.Results {
		t.Errorf("windowed result stream diverged from stop-and-wait: %#x vs %#x",
			pipe.Results, base.Results)
	}
	if pipe.Retransmits == 0 {
		t.Error("3% loss retransmitted nothing; recovery not exercised")
	}
	// Simulated time is deterministic: the same seed must reproduce the
	// run exactly.
	again, err := RunHostpath(HostpathConfig{Window: 32, Ops: 96, Faults: faults, Target: passes.TargetTNA})
	if err != nil {
		t.Fatal(err)
	}
	if again.SimDurationNs != pipe.SimDurationNs || again.Results != pipe.Results ||
		again.Retransmits != pipe.Retransmits {
		t.Errorf("same seed diverged:\n  %+v\n  %+v", *pipe, *again)
	}
}

// runCalcUDPChannel drives ops CALC calls through a pipelined channel
// over a (possibly lossy) UDP device, returning the raw response
// bodies in op order, the channel stats, and the device's drop count.
func runCalcUDPChannel(t *testing.T, window, ops int, faults runtime.FaultSpec) ([][]byte, runtime.ChannelStats, uint64) {
	t.Helper()
	prog, specs, _, err := CompileApp(ByName("CALC"), passes.TargetTNA, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := specs[1]
	dev, err := runtime.ServeDevice(runtime.DeviceConfig{
		ID: 1, Addr: "127.0.0.1:0", Prog: prog, Faults: faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	devClosed := false
	defer func() {
		if !devClosed {
			dev.Close()
		}
	}()
	conn, err := runtime.Dial(runtime.DialConfig{
		ID: 7, Local: "127.0.0.1:0", Device: dev.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := dev.SetNodeAddr(7, conn.Addr()); err != nil {
		t.Fatal(err)
	}
	ch := conn.NewChannel(runtime.ChannelConfig{
		Window: window,
		Reliability: runtime.ReliabilityConfig{
			Timeout: 5 * time.Millisecond, MaxRetries: 32,
		},
	})
	defer ch.Close()
	pend := make([]*runtime.Pending, ops)
	for i := range pend {
		msg, err := runtime.Pack(spec,
			runtime.Message{Src: 7, Dst: 7, Device: 1, Comp: 1}.Header(),
			[][]uint64{{1}, {uint64(i)}, {uint64(1000 + i)}, nil})
		if err != nil {
			t.Fatal(err)
		}
		if pend[i], err = ch.CallAsync(msg); err != nil {
			t.Fatal(err)
		}
	}
	out := make([][]byte, ops)
	for i, p := range pend {
		resp, err := p.Wait(0)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		out[i] = append([]byte(nil), resp...)
	}
	st := ch.Stats()
	devClosed = true
	dev.Close() // joins the device loop, settling the fault counters
	return out, st, dev.FaultDropped
}

// TestCalcUDPChannelChaos is the real-socket counterpart: a pipelined
// channel through a lossy, duplicating UDP device must return the
// byte-identical responses of a stop-and-wait run through a clean one.
func TestCalcUDPChannelChaos(t *testing.T) {
	const ops = 96
	clean, _, _ := runCalcUDPChannel(t, 1, ops, runtime.FaultSpec{})
	chaotic, st, lost := runCalcUDPChannel(t, 16, ops,
		runtime.FaultSpec{LossRate: 0.05, DupRate: 0.02, Seed: 31})
	for i := range clean {
		if string(clean[i]) != string(chaotic[i]) {
			t.Fatalf("op %d response diverged under chaos:\n  %x\n  %x", i, clean[i], chaotic[i])
		}
	}
	// ~200 RNG draws at 5%: a zero-drop run is a broken injector, not
	// bad luck — and any drop can only be recovered by retransmission.
	if lost == 0 {
		t.Error("5%% device loss dropped nothing; injection broken")
	} else if st.Retransmits == 0 {
		t.Errorf("%d packets dropped but nothing retransmitted", lost)
	}
	if st.PeakInFlight < 2 {
		t.Errorf("window 16 never pipelined: peak %d in flight", st.PeakInFlight)
	}
}

// TestRunPaxosUDPUnderLoss is the acceptance case: consensus completes
// under seeded loss at every device on the real-UDP backend.
func TestRunPaxosUDPUnderLoss(t *testing.T) {
	res, err := RunPaxosUDP(PaxosUDPConfig{
		Commands: 6, Target: passes.TargetTNA,
		Faults:            runtime.FaultSpec{LossRate: 0.02, Seed: 23},
		RetransmitTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 6 || res.Undelivered != 0 {
		t.Errorf("delivered %d/6 (%d undelivered)", res.Delivered, res.Undelivered)
	}
	t.Logf("paxos-udp under loss: %s", res.Summary())
}
