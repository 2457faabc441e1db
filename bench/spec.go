package main

// spec.go declares what the benchmark reports: the same names, units
// and directions as BENCHMARK.json (the smoke test holds the two
// together), plus what BENCHMARK.json has no key for — which metrics
// are exact counts, and the seconds one run measures.

import "encoding/json"

const runSeconds = 10

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// exact metrics are counts or simulated times that repeat exactly
	// for one seed; -compare wants them equal, not merely within bound.
	exact bool
}

// endToEnd: what a user of the stack sees. Every workload reports every
// one of them.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ns_per_req", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "p4_stages", Unit: "count", Better: "lower", Bound: 0.005, exact: true},
}

func us(name string) metricSpec { return metricSpec{Name: name, Unit: "us", Better: "lower"} }
func ns(name string) metricSpec { return metricSpec{Name: name, Unit: "ns", Better: "lower"} }
func count(name string) metricSpec {
	return metricSpec{Name: name, Unit: "count", Better: "lower", exact: true}
}
func frac(name, better string) metricSpec {
	return metricSpec{Name: name, Unit: "ratio", Better: better}
}

// perLayer: one layer each, named "<module>.<what>". A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metricSpec{
	// Compiler phases: mean time per call of the phase's public entry.
	us("lang.parse_us"), us("sema.check_us"), us("lower.module_us"), us("passes.run_us"),
	us("codegen.generate_us"), us("p4.print_us"), us("p4.parse_us"), us("p4c.fit_us"),
	// IR and P4 size after the phase, summed over the programs compiled.
	count("lower.ir_instrs"), count("passes.ir_instrs"),
	count("codegen.p4_tables"), count("codegen.p4_actions"), count("p4.src_bytes"),
	// Times each optimisation applied.
	{Name: "passes.mem_partitions", Unit: "count", Better: "higher", exact: true},
	{Name: "passes.lookup_dups", Unit: "count", Better: "higher", exact: true},
	{Name: "passes.hoisted", Unit: "count", Better: "higher", exact: true},
	{Name: "passes.speculated", Unit: "count", Better: "higher", exact: true},
	// Fit report totals.
	count("p4c.stages"), count("p4c.latency_cycles"), count("p4c.sram_blocks"),
	count("p4c.salus"), count("p4c.phv_bits"),
	{Name: "p4c.fit_frac", Unit: "ratio", Better: "higher", exact: true},
	// Host runtime, per message of the workload's own stream.
	ns("runtime.pack_ns"), ns("runtime.unpack_ns"), ns("runtime.frame_ns"),
	{Name: "runtime.allocs_per_msg", Unit: "count", Better: "lower"},
	// Channel and UDP transport (calc_udp).
	ns("runtime.chan_admit_ns"), ns("runtime.chan_wait_ns"),
	{Name: "runtime.chan_peak_inflight", Unit: "count", Better: "higher"},
	{Name: "runtime.chan_retransmits", Unit: "count", Better: "lower"},
	{Name: "runtime.chan_duplicates", Unit: "count", Better: "lower"},
	{Name: "runtime.chan_failures", Unit: "count", Better: "lower"},
	us("runtime.udp_w1_rtt_us"), us("runtime.lat_p99_us"),
	{Name: "runtime.udp_dev_queue_full", Unit: "count", Better: "lower"},
	{Name: "runtime.udp_dev_dropped", Unit: "count", Better: "lower"},
	// Behavioural switch, per packet of the workload's ingress frames.
	ns("bmv2.process_ns"), ns("bmv2.burst32_ns"),
	{Name: "bmv2.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "bmv2.bytes_per_pkt", Unit: "B", Better: "lower"},
	ns("bmv2.parse_deparse_ns"), ns("bmv2.sharded1_ns"), us("bmv2.new_us"),
	us("bmv2.write_us_per_op"), us("bmv2.write_nonexact_us_per_batch"),
	{Name: "bmv2.fail_ops", Unit: "count", Better: "lower"},
	// Control plane: one 64-op batch.
	us("p4rt.tcp_batch_rtt_us"), us("p4rt.direct_batch_us"), us("p4rt.tcp_overhead_us"),
	// Simulator: engine counters of the first measured round (exact) ...
	count("netsim.events"),
	{Name: "netsim.events_per_req", Unit: "count", Better: "lower", exact: true},
	count("netsim.peak_queue"), count("netsim.buffer_peak"), count("netsim.dropped"),
	{Name: "netsim.sim_req_per_s", Unit: "1/s", Better: "higher", exact: true},
	{Name: "netsim.sim_lat_p99_us", Unit: "us", Better: "lower", exact: true},
	// ... and host-time rates.
	{Name: "netsim.events_per_s", Unit: "1/s", Better: "higher"},
	ns("netsim.self_ns_per_event"),
	{Name: "netsim.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "netsim.bytes_per_host", Unit: "B", Better: "lower"},
	{Name: "netsim.build_s", Unit: "s", Better: "lower"},
	{Name: "netsim.part2_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "netsim.part2_hash_equal", Unit: "count", Better: "higher", exact: true},
	// The trace itself, and the budget it yields: each layer's share of
	// the traced rounds' wall time.
	frac("trace.overhead_frac", "lower"), frac("trace.budget_residual_frac", "lower"),
	frac("trace.share_compiler", "lower"), frac("trace.share_runtime", "lower"),
	frac("trace.share_netsim", "lower"), frac("trace.share_bmv2", "lower"),
	frac("trace.share_p4rt", "lower"), frac("trace.share_bench", "lower"),
}

// benchmarkJSON renders the tables above in BENCHMARK.json's format.
func benchmarkJSON() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(b, '\n')
}

// workloads lists the seven rows, in the order they run.
var workloads = []*workloadDef{
	aggSimDef, cacheSimDef, scaleSimDef, calcUDPDef, aclFwdDef, ctrlChurnDef, compileDef,
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
