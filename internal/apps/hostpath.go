package apps

// hostpath.go runs the pipelined host runtime on the simulator
// backend: a host issues CALC request/response calls through a
// runtime.Channel of a given window, so two runs that differ only in
// the window show what it buys over stop-and-wait (window 1) with the
// network model held fixed, and must produce the same result hash.
// Time is simulated time, which makes the msgs/sec numbers
// deterministic and machine-independent.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"netcl/internal/netsim"
	"netcl/internal/passes"
	"netcl/internal/runtime"
)

// HostpathConfig parameterizes one hostpath run.
type HostpathConfig struct {
	// Window is the channel's sliding-window size (default 1:
	// stop-and-wait).
	Window int
	// Ops is the number of CALC calls (default 512).
	Ops int
	// Faults injects seeded loss/duplication/jitter into the simulated
	// network (zero value = faultless).
	Faults netsim.FaultConfig
	// Target selects the compile target (default TNA).
	Target passes.Target
}

// HostpathResult reports one window size's measurement.
type HostpathResult struct {
	Window        int     `json:"window"`
	Ops           int     `json:"ops"`
	SimDurationNs float64 `json:"sim_duration_ns"`
	// MsgsPerSec is completed calls per second of simulated time.
	MsgsPerSec   float64 `json:"msgs_per_sec"`
	P50Ns        float64 `json:"p50_ns"`
	P99Ns        float64 `json:"p99_ns"`
	Retransmits  uint64  `json:"retransmits"`
	Duplicates   uint64  `json:"duplicates"`
	PeakInFlight int     `json:"peak_in_flight"`
	Mismatches   int     `json:"mismatches"`
	// Results chains every response value so runs can be compared
	// byte-for-byte across window sizes (FNV-1a over the result args).
	Results uint64 `json:"results_hash"`
}

// RunHostpath drives Ops CALC calls through a windowed channel over
// the simulated network and reports throughput and latency in
// simulated time.
func RunHostpath(cfg HostpathConfig) (*HostpathResult, error) {
	cfg.Window = orDefault(cfg.Window, 1)
	cfg.Ops = orDefault(cfg.Ops, 512)
	prog, specs, _, err := CompileApp(ByName("CALC"), cfg.Target, 1)
	if err != nil {
		return nil, err
	}
	calc := newKernelArgs(specs[1])
	op, a, b, sum := calc.arg("op"), calc.arg("a"), calc.arg("b"), calc.arg("res")

	n := netsim.NewNetwork()
	n.MaxEvents = 10_000_000
	n.InjectFaults(cfg.Faults)
	dev := n.AddDevice(1, prog)
	host := n.AddHost(7)
	n.Connect(host, dev, 1)
	if err := n.AutoWire(); err != nil {
		return nil, err
	}

	ep := n.NewEndpoint(host, runtime.ReliabilityConfig{
		Timeout: time.Duration(100 * netsim.Microsecond), MaxRetries: 16,
	})
	ch := ep.NewChannel(runtime.ChannelConfig{Window: cfg.Window, Name: "hostpath"})
	defer ch.Close()

	res := &HostpathResult{Window: cfg.Window, Ops: cfg.Ops}
	var hist Hist
	pend := make([]*runtime.Pending, cfg.Ops)
	start := n.Now()
	for i := 0; i < cfg.Ops; i++ {
		op[0], a[0], b[0], sum[0] = 1, uint64(i)&0xffffffff, uint64(3*i+1)&0xffffffff, 0 // OP_ADD
		msg, err := calc.pack(runtime.Message{Src: 7, Dst: 7, Device: 1, Comp: 1}.Header())
		if err == nil {
			pend[i], err = ch.CallAsync(msg)
		}
		if err != nil {
			return nil, fmt.Errorf("hostpath: op %d: %w", i, err)
		}
	}
	results := fnv.New64a()
	for i, p := range pend {
		resp, err := p.Wait(0)
		if err == nil {
			_, err = calc.unpack(resp)
		}
		if err != nil {
			return nil, fmt.Errorf("hostpath: op %d: %w", i, err)
		}
		want := (uint64(i) + uint64(3*i+1)) & 0xffffffff
		if sum[0] != want {
			res.Mismatches++
		}
		results.Write(binary.LittleEndian.AppendUint64(nil, sum[0]))
		hist.Record(uint64(p.Latency()))
	}
	res.Results = results.Sum64()
	res.SimDurationNs = float64(n.Now() - start)
	if res.SimDurationNs > 0 {
		res.MsgsPerSec = float64(cfg.Ops) / (res.SimDurationNs / 1e9)
	}
	res.P50Ns = float64(hist.Quantile(0.50))
	res.P99Ns = float64(hist.Quantile(0.99))
	st := ch.Stats()
	res.Retransmits = st.Retransmits
	res.Duplicates = st.Duplicates
	res.PeakInFlight = st.PeakInFlight
	return res, nil
}
