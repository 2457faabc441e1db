package apps

// hostpath.go runs the pipelined host runtime on the simulator
// backend: a host issues CALC request/response calls through a
// runtime.Channel of a given window, so two runs that differ only in
// the window show what it buys over stop-and-wait (window 1) with the
// network model held fixed, and must produce the same result hash.
// Time is simulated time, which makes the msgs/sec numbers
// deterministic and machine-independent.

import (
	"fmt"
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
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 512
	}
	prog, specs, err := CompileApp(ByName("CALC"), cfg.Target, 1)
	if err != nil {
		return nil, err
	}
	spec := specs[1]

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
	args := make([]uint64, 1)
	start := n.Now()
	for i := 0; i < cfg.Ops; i++ {
		buf := runtime.GetBuf()
		a, b := uint64(i)&0xffffffff, uint64(3*i+1)&0xffffffff
		args[0] = 1 // OP_ADD
		msg, err := runtime.PackAppend(*buf, spec,
			runtime.Message{Src: 7, Dst: 7, Device: 1, Comp: 1}.Header(),
			[][]uint64{args, {a}, {b}, nil})
		if err == nil {
			*buf = msg
			pend[i], err = ch.CallAsync(msg)
		}
		runtime.PutBuf(buf)
		if err != nil {
			return nil, fmt.Errorf("hostpath: op %d: %w", i, err)
		}
	}
	got := make([]uint64, 1)
	const prime = 1099511628211
	res.Results = 14695981039346656037 // FNV-1a offset basis
	for i, p := range pend {
		resp, err := p.Wait(0)
		if err != nil {
			return nil, fmt.Errorf("hostpath: op %d: %w", i, err)
		}
		if _, err := runtime.UnpackInto(spec, resp, [][]uint64{nil, nil, nil, got}); err != nil {
			return nil, fmt.Errorf("hostpath: op %d: %w", i, err)
		}
		want := (uint64(i) + uint64(3*i+1)) & 0xffffffff
		if got[0] != want {
			res.Mismatches++
		}
		for s := 0; s < 64; s += 8 {
			res.Results ^= (got[0] >> s) & 0xff
			res.Results *= prime
		}
		hist.Record(uint64(p.Latency()))
	}
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
