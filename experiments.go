package netcl

import (
	"fmt"
	"strings"
	"time"

	"netcl/internal/apps"
	"netcl/internal/metrics"
	"netcl/internal/p4"
	"netcl/internal/p4c"
	"netcl/internal/passes"
)

// This file regenerates the paper's evaluation (§VII): one exported
// function per table and figure. Absolute numbers come from our
// simulated substrate, so they differ from the authors' testbed; the
// shapes (who wins, by what order of magnitude, where the differences
// lie) are the reproduction targets recorded in EXPERIMENTS.md.

// experimentRow pairs a Table III row with its sources and programs.
type experimentRow struct {
	Name     string
	NetCLSrc string // NetCL-C source (possibly a per-role slice)
	Baseline string // handwritten P4 text
	App      *apps.App
	DeviceID uint16
}

// rows returns the evaluation rows in Table III order.
func rows() ([]experimentRow, error) {
	var out []experimentRow
	agg := apps.ByName("AGG")
	aggBl, err := agg.Baseline()
	if err != nil {
		return nil, err
	}
	out = append(out, experimentRow{"AGG", agg.NetCL, aggBl, agg, 1})

	cache := apps.ByName("CACHE")
	cacheBl, err := cache.Baseline()
	if err != nil {
		return nil, err
	}
	out = append(out, experimentRow{"CACHE", cache.NetCL, cacheBl, cache, 1})

	paxos := apps.ByName("PAXOS")
	for _, role := range apps.PaxosRoleBaselines {
		bl, err := (&apps.App{BaselineFile: role.File}).Baseline()
		if err != nil {
			return nil, err
		}
		out = append(out, experimentRow{role.Row, paxosRoleSource(role.Row), bl, paxos, role.DeviceID})
	}

	calc := apps.ByName("CALC")
	calcBl, err := calc.Baseline()
	if err != nil {
		return nil, err
	}
	out = append(out, experimentRow{"CALC", calc.NetCL, calcBl, calc, 1})
	return out, nil
}

// paxosRoleSource slices the P4xos NetCL program into the per-role
// fragments Table III reports (the kernel plus its memory).
func paxosRoleSource(row string) string {
	marker := map[string]string{
		"PACC": "acceptor", "PLRN": "learner", "PLDR": "leader",
	}[row]
	at := map[string]string{
		"PACC": "_at(ACC1,ACC2,ACC3)", "PLRN": "_at(LEARNER)", "PLDR": "_at(LEADER)",
	}[row]
	var out []string
	lines := strings.Split(apps.PaxosSource, "\n")
	inKernel := false
	depth := 0
	for _, line := range lines {
		t := strings.TrimSpace(line)
		if !inKernel {
			if strings.HasPrefix(t, at) && strings.Contains(t, "_net_") {
				out = append(out, line)
				continue
			}
			if strings.HasPrefix(t, at) && strings.Contains(t, "_kernel") &&
				strings.Contains(t, " "+marker+"(") {
				inKernel = true
				depth = strings.Count(line, "{") - strings.Count(line, "}")
				out = append(out, line)
			}
			continue
		}
		out = append(out, line)
		depth += strings.Count(line, "{") - strings.Count(line, "}")
		if depth <= 0 && strings.Contains(line, "}") {
			inKernel = false
		}
	}
	return strings.Join(out, "\n")
}

// compileRow compiles the NetCL side of a row for TNA.
func compileRow(r experimentRow) (*Artifact, error) {
	return Compile(r.Name, r.App.NetCL, Options{
		Target:  TargetTNA,
		Defines: r.App.Defines,
		Devices: []uint16{r.DeviceID},
	})
}

// Table III ------------------------------------------------------------

// Table3Row is one LoC comparison row.
type Table3Row struct {
	App       string
	NetCL     int
	P4        int
	Reduction float64
}

// Table3 computes the lines-of-code comparison (paper Table III):
// NetCL requires O(10) LoC where handwritten P4 requires O(100).
func Table3() ([]Table3Row, float64, error) {
	rws, err := rows()
	if err != nil {
		return nil, 0, err
	}
	var out []Table3Row
	var reductions []float64
	for _, r := range rws {
		n := metrics.LoC(r.NetCLSrc)
		p := metrics.LoC(r.Baseline)
		red := float64(p) / float64(n)
		out = append(out, Table3Row{App: r.Name, NetCL: n, P4: p, Reduction: red})
		reductions = append(reductions, red)
	}
	return out, metrics.Geomean(reductions), nil
}

// Figure 12 --------------------------------------------------------------

// Fig12Row is the construct breakdown of one handwritten P4 program.
type Fig12Row struct {
	App string
	Pct map[metrics.Category]float64
}

// Fig12 computes the P4 code-distribution breakdown of the handwritten
// baselines (paper Fig. 12: >65% packet processing, ~30% headers and
// parsing, RegisterActions ~13%, control ~10%).
func Fig12() ([]Fig12Row, error) {
	rws, err := rows()
	if err != nil {
		return nil, err
	}
	var out []Fig12Row
	for _, r := range rws {
		prog, err := p4.Parse(r.Name, r.Baseline)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, err)
		}
		out = append(out, Fig12Row{App: r.Name, Pct: metrics.Breakdown(prog)})
	}
	return out, nil
}

// Table IV ---------------------------------------------------------------

// Table4Row is one compilation-time row (seconds).
type Table4Row struct {
	App string
	// P4Fit is the fitting time of the handwritten program (the
	// "bf-p4c" column for P4).
	P4Fit float64
	// Ncc is the NetCL compiler's own time (paper: always <1s).
	Ncc float64
	// NetCLFit is the fitting time of the generated program.
	NetCLFit float64
}

// Table4 measures compilation times (paper Table IV: ncc introduces
// insignificant overhead; over 98% of time is P4 compilation).
func Table4() ([]Table4Row, error) {
	rws, err := rows()
	if err != nil {
		return nil, err
	}
	var out []Table4Row
	for _, r := range rws {
		row := Table4Row{App: r.Name}
		start := time.Now()
		bl, err := p4.Parse(r.Name, r.Baseline)
		if err != nil {
			return nil, err
		}
		p4c.Fit(bl, p4c.Tofino1())
		row.P4Fit = time.Since(start).Seconds()

		start = time.Now()
		art, err := compileRow(r)
		if err != nil {
			return nil, err
		}
		row.Ncc = time.Since(start).Seconds()
		start = time.Now()
		p4c.Fit(art.Device(r.DeviceID).P4, p4c.Tofino1())
		row.NetCLFit = time.Since(start).Seconds()
		out = append(out, row)
	}
	// The EMPTY program (only the base program and runtime).
	start := time.Now()
	art, err := Compile("empty", "_kernel(1) void noop(uint32_t x) {}", Options{Target: TargetTNA})
	if err != nil {
		return nil, err
	}
	ncc := time.Since(start).Seconds()
	start = time.Now()
	p4c.Fit(art.Devices[0].P4, p4c.Tofino1())
	out = append(out, Table4Row{App: "EMPTY", Ncc: ncc, NetCLFit: time.Since(start).Seconds()})
	return out, nil
}

// Table V ------------------------------------------------------------------

// Usage summarizes one program's Tofino resource consumption.
type Usage struct {
	Fits      bool
	Stages    int
	SRAMPct   float64
	TCAMPct   float64
	SALUPct   float64
	VLIWPct   float64
	WorstSRAM float64
	WorstTCAM float64
	WorstSALU float64
	WorstVLIW float64
	LatencyNs float64
	PHVPct    float64
	LocalBits int
	HdrBits   int
	MetaBits  int
}

func usageOf(prog *p4.Program) Usage {
	rep := p4c.Fit(prog, p4c.Tofino1())
	lm := p4c.Locals(prog)
	return Usage{
		Fits: rep.Fits, Stages: rep.StagesUsed,
		SRAMPct: rep.SRAMPct, TCAMPct: rep.TCAMPct,
		SALUPct: rep.SALUPct, VLIWPct: rep.VLIWPct,
		WorstSRAM: rep.WorstSRAMPct, WorstTCAM: rep.WorstTCAMPct,
		WorstSALU: rep.WorstSALUPct, WorstVLIW: rep.WorstVLIWPct,
		LatencyNs: rep.LatencyNs, PHVPct: rep.PHVPct,
		LocalBits: lm.LocalVarBits, HdrBits: lm.HeaderBits, MetaBits: lm.MetadataBits,
	}
}

// Table5Row compares resource usage of handwritten and generated P4.
type Table5Row struct {
	App    string
	P4     Usage
	NetCL  Usage
	Deltas struct{ Stages int }
}

// Table5 computes Tofino resource utilization for both program versions
// (paper Table V: everything fits 12 stages; generated usage is in line
// with handwritten).
func Table5() ([]Table5Row, error) {
	rws, err := rows()
	if err != nil {
		return nil, err
	}
	var out []Table5Row
	for _, r := range rws {
		bl, err := p4.Parse(r.Name, r.Baseline)
		if err != nil {
			return nil, err
		}
		art, err := compileRow(r)
		if err != nil {
			return nil, err
		}
		row := Table5Row{App: r.Name, P4: usageOf(bl), NetCL: usageOf(art.Device(r.DeviceID).P4)}
		row.Deltas.Stages = row.NetCL.Stages - row.P4.Stages
		out = append(out, row)
	}
	return out, nil
}

// Table VI and Figure 13 are views over the same fitting reports.

// Table6 returns the local-memory/PHV rows (paper Table VI).
func Table6() ([]Table5Row, error) { return Table5() }

// Fig13 returns the device packet-processing latency rows (paper
// Fig. 13: NetCL within ~9% of handwritten, all below 1µs).
func Fig13() ([]Table5Row, error) { return Table5() }

// Figure 14 -----------------------------------------------------------------

// Fig14AggPoint is one throughput sample.
type Fig14AggPoint struct {
	Workers      int
	NetCLATE     float64 // aggregated tensor elements /s /worker
	BaselineATE  float64
	NetCLErrors  int
	BaselineErrs int
}

// Fig14Agg sweeps worker counts (paper Fig. 14 left: per-worker
// throughput stays flat as workers are added; NetCL equals handwritten).
func Fig14Agg(workers []int, chunks int) ([]Fig14AggPoint, error) {
	if len(workers) == 0 {
		workers = []int{2, 4, 6}
	}
	if chunks <= 0 {
		chunks = 48
	}
	var out []Fig14AggPoint
	for _, w := range workers {
		gen, err := apps.RunAgg(apps.AggConfig{Workers: w, Chunks: chunks, Window: 4, Target: passes.TargetTNA})
		if err != nil {
			return nil, err
		}
		base, err := apps.RunAgg(apps.AggConfig{Workers: w, Chunks: chunks, Window: 4, Target: passes.TargetTNA, Baseline: true})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig14AggPoint{
			Workers: w, NetCLATE: gen.ATEPerWorker, BaselineATE: base.ATEPerWorker,
			NetCLErrors: gen.Mismatches, BaselineErrs: base.Mismatches,
		})
	}
	return out, nil
}

// Fig14CachePoint is one response-time sample.
type Fig14CachePoint struct {
	CachedKeys   int
	HitRate      float64
	NetCLMeanUs  float64
	BaselineUs   float64
	NetCLWrong   int
	BaselineWrng int
}

// Fig14Cache sweeps the number of cached keys (paper Fig. 14 right:
// ~27µs all-miss vs ~9.4µs all-hit mean response times, NetCL within a
// few percent of handwritten).
func Fig14Cache(cachedKeys []int, totalKeys, requests int) ([]Fig14CachePoint, error) {
	if totalKeys <= 0 {
		totalKeys = 32
	}
	if requests <= 0 {
		requests = 128
	}
	if len(cachedKeys) == 0 {
		cachedKeys = []int{0, totalKeys / 4, totalKeys / 2, 3 * totalKeys / 4, totalKeys}
	}
	var out []Fig14CachePoint
	for _, ck := range cachedKeys {
		gen, err := apps.RunCache(apps.CacheConfig{CachedKeys: ck, TotalKeys: totalKeys, Requests: requests, Target: passes.TargetTNA})
		if err != nil {
			return nil, err
		}
		base, err := apps.RunCache(apps.CacheConfig{CachedKeys: ck, TotalKeys: totalKeys, Requests: requests, Target: passes.TargetTNA, Baseline: true})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig14CachePoint{
			CachedKeys: ck, HitRate: gen.HitRate,
			NetCLMeanUs: gen.MeanResponseNs / 1e3, BaselineUs: base.MeanResponseNs / 1e3,
			NetCLWrong: gen.WrongValues, BaselineWrng: base.WrongValues,
		})
	}
	return out, nil
}

// Report formatting -----------------------------------------------------

// FormatAll renders every table and figure as text (used by the
// nclbench tool and recorded in EXPERIMENTS.md).
func FormatAll() (string, error) {
	var b strings.Builder

	t3, geo, err := Table3()
	if err != nil {
		return "", err
	}
	b.WriteString("TABLE III — lines of code\n")
	fmt.Fprintf(&b, "%-8s %8s %8s %10s\n", "APP", "NETCL", "P4", "REDUCTION")
	for _, r := range t3 {
		fmt.Fprintf(&b, "%-8s %8d %8d %9.2fx\n", r.App, r.NetCL, r.P4, r.Reduction)
	}
	fmt.Fprintf(&b, "GEOMEAN reduction: %.2fx\n\n", geo)

	f12, err := Fig12()
	if err != nil {
		return "", err
	}
	b.WriteString("FIGURE 12 — breakdown of handwritten P4 code (%)\n")
	cats := []metrics.Category{metrics.CatHeadersParsing, metrics.CatMATs, metrics.CatRegActions, metrics.CatControl, metrics.CatOther}
	fmt.Fprintf(&b, "%-8s", "APP")
	for _, c := range cats {
		fmt.Fprintf(&b, " %20s", c)
	}
	b.WriteByte('\n')
	for _, r := range f12 {
		fmt.Fprintf(&b, "%-8s", r.App)
		for _, c := range cats {
			fmt.Fprintf(&b, " %19.1f%%", r.Pct[c])
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')

	t4, err := Table4()
	if err != nil {
		return "", err
	}
	b.WriteString("TABLE IV — compilation times (seconds)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %12s\n", "APP", "P4-fit", "ncc", "NetCL-fit")
	for _, r := range t4 {
		fmt.Fprintf(&b, "%-8s %12.4f %12.4f %12.4f\n", r.App, r.P4Fit, r.Ncc, r.NetCLFit)
	}
	b.WriteByte('\n')

	t5, err := Table5()
	if err != nil {
		return "", err
	}
	b.WriteString("TABLE V — Tofino resource utilization (handwritten | generated)\n")
	fmt.Fprintf(&b, "%-8s %10s %15s %15s %15s %15s\n", "APP", "STAGES", "SRAM", "TCAM", "SALUS", "VLIW")
	for _, r := range t5 {
		fmt.Fprintf(&b, "%-8s %4d | %2d  %5.1f%% | %4.1f%% %5.1f%% | %4.1f%% %5.1f%% | %4.1f%% %5.1f%% | %4.1f%%\n",
			r.App, r.P4.Stages, r.NetCL.Stages,
			r.P4.SRAMPct, r.NetCL.SRAMPct, r.P4.TCAMPct, r.NetCL.TCAMPct,
			r.P4.SALUPct, r.NetCL.SALUPct, r.P4.VLIWPct, r.NetCL.VLIWPct)
	}
	b.WriteByte('\n')

	// The EMPTY row of Tables V/VI: the base program and NetCL runtime
	// alone (no kernel logic).
	emptyArt, err := Compile("empty", "_kernel(1) void noop(uint32_t x) {}", Options{Target: TargetTNA})
	if err != nil {
		return "", err
	}
	empty := usageOf(emptyArt.Devices[0].P4)
	fmt.Fprintf(&b, "%-8s %4d |      %5.1f%% |        %5.1f%% |        %5.1f%% |        %5.1f%%   (base program only)\n",
		"EMPTY", empty.Stages, empty.SRAMPct, empty.TCAMPct, empty.SALUPct, empty.VLIWPct)
	b.WriteByte('\n')

	b.WriteString("TABLE VI — local memory and worst-case PHV\n")
	fmt.Fprintf(&b, "%-8s %22s %22s %18s\n", "APP", "P4 locals/hdr/meta", "NetCL locals/hdr/meta", "PHV P4 | NetCL")
	for _, r := range t5 {
		fmt.Fprintf(&b, "%-8s %8db %6db %5db %8db %6db %5db %8.1f%% | %5.1f%%\n",
			r.App, r.P4.LocalBits, r.P4.HdrBits, r.P4.MetaBits,
			r.NetCL.LocalBits, r.NetCL.HdrBits, r.NetCL.MetaBits,
			r.P4.PHVPct, r.NetCL.PHVPct)
	}
	fmt.Fprintf(&b, "%-8s %8s %6s %5s %8db %6db %5db %8s | %5.1f%%   (base program only)\n",
		"EMPTY", "-", "-", "-", empty.LocalBits, empty.HdrBits, empty.MetaBits, "-", empty.PHVPct)
	b.WriteByte('\n')

	b.WriteString("FIGURE 13 — device packet-processing latency (ns)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %8s\n", "APP", "P4", "NetCL", "DELTA")
	for _, r := range t5 {
		delta := 100 * (r.NetCL.LatencyNs - r.P4.LatencyNs) / r.P4.LatencyNs
		fmt.Fprintf(&b, "%-8s %12.0f %12.0f %+7.1f%%\n", r.App, r.P4.LatencyNs, r.NetCL.LatencyNs, delta)
	}
	b.WriteByte('\n')

	agg, err := Fig14Agg(nil, 0)
	if err != nil {
		return "", err
	}
	b.WriteString("FIGURE 14 (left) — AGG throughput (ATE/s per worker)\n")
	fmt.Fprintf(&b, "%-8s %15s %15s\n", "WORKERS", "NetCL", "handwritten")
	for _, p := range agg {
		fmt.Fprintf(&b, "%-8d %15.0f %15.0f\n", p.Workers, p.NetCLATE, p.BaselineATE)
	}
	b.WriteByte('\n')

	cache, err := Fig14Cache(nil, 0, 0)
	if err != nil {
		return "", err
	}
	b.WriteString("FIGURE 14 (right) — CACHE mean response time (µs)\n")
	fmt.Fprintf(&b, "%-10s %8s %12s %12s\n", "CACHED", "HITRATE", "NetCL", "handwritten")
	for _, p := range cache {
		fmt.Fprintf(&b, "%-10d %7.0f%% %12.2f %12.2f\n", p.CachedKeys, 100*p.HitRate, p.NetCLMeanUs, p.BaselineUs)
	}
	return b.String(), nil
}
