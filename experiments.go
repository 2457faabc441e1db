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

// This file regenerates the paper's evaluation (§VII) and the §VI-B
// flag ablations: one exported function per table and figure, and
// FormatAll, the one renderer of them all. Absolute numbers come from
// our simulated substrate, so they differ from the authors' testbed;
// the shapes (who wins, by what order of magnitude, where the
// differences lie) are the reproduction targets. EXPERIMENTS.md holds
// FormatAll's tables, pinned by TestExperimentsGolden.

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
	add := func(name, src, baselineFile string, app *apps.App, dev uint16) error {
		bl, err := (&apps.App{BaselineFile: baselineFile}).Baseline()
		out = append(out, experimentRow{name, src, bl, app, dev})
		return err
	}
	for _, name := range []string{"AGG", "CACHE"} {
		app := apps.ByName(name)
		if err := add(name, app.NetCL, app.BaselineFile, app, 1); err != nil {
			return nil, err
		}
	}
	for _, role := range apps.PaxosRoleBaselines {
		if err := add(role.Row, paxosRoleSource(role.Row), role.File, apps.ByName("PAXOS"), role.DeviceID); err != nil {
			return nil, err
		}
	}
	calc := apps.ByName("CALC")
	if err := add("CALC", calc.NetCL, calc.BaselineFile, calc, 1); err != nil {
		return nil, err
	}
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

// tnaDevice compiles src for TNA and returns its first device's
// artifact: with o.Devices set, the device it names.
func tnaDevice(name, src string, o Options) (*DeviceArtifact, error) {
	o.Target = TargetTNA
	art, err := Compile(name, src, o)
	if err != nil {
		return nil, err
	}
	return art.Devices[0], nil
}

// compileRow compiles the NetCL side of a row for TNA.
func compileRow(r experimentRow) (*DeviceArtifact, error) {
	return tnaDevice(r.Name, r.App.NetCL, Options{Defines: r.App.Defines, Devices: []uint16{r.DeviceID}})
}

// emptyKernel is the EMPTY row of Tables IV–VI: the base program and
// the NetCL runtime alone, with no kernel logic.
const emptyKernel = "_kernel(1) void noop(uint32_t x) {}"

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
		dev, err := compileRow(r)
		if err != nil {
			return nil, err
		}
		row.Ncc = time.Since(start).Seconds()
		start = time.Now()
		p4c.Fit(dev.P4, p4c.Tofino1())
		row.NetCLFit = time.Since(start).Seconds()
		out = append(out, row)
	}
	start := time.Now()
	dev, err := tnaDevice("empty", emptyKernel, Options{})
	if err != nil {
		return nil, err
	}
	ncc := time.Since(start).Seconds()
	start = time.Now()
	p4c.Fit(dev.P4, p4c.Tofino1())
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
		LatencyNs: rep.LatencyNs, PHVPct: rep.PHVPct,
		LocalBits: lm.LocalVarBits, HdrBits: lm.HeaderBits, MetaBits: lm.MetadataBits,
	}
}

// Table5Row compares resource usage of handwritten and generated P4.
// Table VI and Fig. 13 are views over the same rows.
type Table5Row struct {
	App   string
	P4    Usage
	NetCL Usage
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
		dev, err := compileRow(r)
		if err != nil {
			return nil, err
		}
		out = append(out, Table5Row{App: r.Name, P4: usageOf(bl), NetCL: usageOf(dev.P4)})
	}
	return out, nil
}

// Figure 14 -----------------------------------------------------------------

// Fig14AggPoint is one throughput sample.
type Fig14AggPoint struct {
	Workers      int
	NetCLATE     float64 // aggregated tensor elements /s /worker
	BaselineATE  float64
	NetCLErrors  int
	BaselineErrs int
}

// Fig14Agg runs AGG at 2, 4 and 6 workers (paper Fig. 14 left:
// per-worker throughput stays flat as workers are added; NetCL equals
// handwritten).
func Fig14Agg() ([]Fig14AggPoint, error) {
	var out []Fig14AggPoint
	for _, w := range []int{2, 4, 6} {
		cfg := apps.AggConfig{Workers: w, Chunks: 48, Window: 4, Target: passes.TargetTNA}
		gen, err := apps.RunAgg(cfg)
		if err != nil {
			return nil, err
		}
		cfg.Baseline = true
		base, err := apps.RunAgg(cfg)
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

// Fig14Cache caches 0, 8, 16, 24 and 32 of 32 keys (paper Fig. 14
// right: ~27µs all-miss vs ~9.4µs all-hit mean response times, NetCL
// within a few percent of handwritten).
func Fig14Cache() ([]Fig14CachePoint, error) {
	var out []Fig14CachePoint
	for _, ck := range []int{0, 8, 16, 24, 32} {
		cfg := apps.CacheConfig{CachedKeys: ck, TotalKeys: 32, Requests: 128, Target: passes.TargetTNA}
		gen, err := apps.RunCache(cfg)
		if err != nil {
			return nil, err
		}
		cfg.Baseline = true
		base, err := apps.RunCache(cfg)
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

// Ablations of the §VI-B compiler flags ------------------------------------

// twoPathLookup touches one _lookup_ array on two exclusive paths. P4
// applies a table once per packet, so it compiles only with lookup
// duplication on.
const twoPathLookup = `
_net_ _lookup_ ncl::kv<unsigned,unsigned> tbl[65536];
_kernel(1) void k(unsigned a, unsigned b, unsigned &x, unsigned &y) {
  unsigned v1 = 0, v2 = 0;
  if (a > b) { ncl::lookup(tbl, a, v1); x = v1; }
  else       { ncl::lookup(tbl, b, v2); y = v2; }
}
`

// dynamicCompare is one ordered compare of two packet fields.
const dynamicCompare = `_kernel(1) void k(uint16_t a, uint16_t b, uint8_t &lt) { lt = a < b; }`

// AblationResult holds the §VI-B flag ablations.
type AblationResult struct {
	// AGG's stages with speculation on and off, and the instructions
	// speculation moved.
	SpecStagesOn, SpecStagesOff, Speculated int
	// twoPathLookup with lookup duplication on: whether it fits, and
	// its SRAM blocks. DupOffErr is the compiler's refusal with it off.
	DupOnFits     bool
	DupSRAMBlocks int
	DupOffErr     error
	// dynamicCompare's compares rewritten with cmp-to-sub on and off.
	CmpRewritesOn, CmpRewritesOff int
}

// Ablations compiles each §VI-B flag both ways (paper: speculation
// "allowed one of the major programs in our evaluation to fit Tofino";
// lookup duplication trades SRAM for compilability; cmp-to-sub turns
// an ordered compare into a subtract and an MSB check).
func Ablations() (*AblationResult, error) {
	agg := apps.ByName("AGG")
	var a AblationResult
	for _, spec := range []bool{true, false} {
		dev, err := tnaDevice("agg", agg.NetCL, Options{Defines: agg.Defines, Devices: []uint16{1}, DisableSpeculation: !spec})
		if err != nil {
			return nil, err
		}
		if stages := p4c.Fit(dev.P4, p4c.Tofino1()).StagesUsed; spec {
			a.SpecStagesOn, a.Speculated = stages, dev.Stats.Speculated
		} else {
			a.SpecStagesOff = stages
		}
	}
	dev, err := tnaDevice("dup-on", twoPathLookup, Options{})
	if err != nil {
		return nil, err
	}
	rep := p4c.Fit(dev.P4, p4c.Tofino1())
	a.DupOnFits, a.DupSRAMBlocks = rep.Fits, rep.SRAMBlocks
	_, a.DupOffErr = tnaDevice("dup-off", twoPathLookup, Options{DisableLookupDup: true})
	for _, on := range []bool{true, false} {
		dev, err := tnaDevice("cmp", dynamicCompare, Options{EnableCmpRewrite: on})
		if err != nil {
			return nil, err
		}
		if on {
			a.CmpRewritesOn = dev.Stats.CmpRewrites
		} else {
			a.CmpRewritesOff = dev.Stats.CmpRewrites
		}
	}
	return &a, nil
}

// Report ---------------------------------------------------------------------

// section is one block of the report: a Markdown table under a title.
// A timed section holds wall-clock numbers: nclbench prints it, but
// EXPERIMENTS.md does not store it.
type section struct {
	name, title, body string
	timed             bool
}

// Block markers: EXPERIMENTS.md holds each untimed section's body
// between them.
func beginMarker(name string) string { return "<!-- nclbench:" + name + " -->\n" }
func endMarker(name string) string   { return "<!-- /nclbench:" + name + " -->\n" }

// FormatAll renders every section of the evaluation as a Markdown
// table between its block markers: the nclbench report, and
// EXPERIMENTS.md's tables byte for byte.
func FormatAll() (string, error) {
	secs, err := sections()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, s := range secs {
		fmt.Fprintf(&b, "## %s\n\n%s%s%s\n", s.title, beginMarker(s.name), s.body, endMarker(s.name))
	}
	return b.String(), nil
}

// markdownTable renders rows[0] as the header, the first column left-
// and the others right-aligned.
func markdownTable(rows [][]string) string {
	var b strings.Builder
	for i, row := range rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		if i == 0 {
			b.WriteString("|:--" + strings.Repeat("|--:", len(row)-1) + "|\n")
		}
	}
	return b.String()
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// sections renders the report in EXPERIMENTS.md's order.
func sections() ([]section, error) {
	t3, geo, err := Table3()
	if err != nil {
		return nil, err
	}
	f12, err := Fig12()
	if err != nil {
		return nil, err
	}
	t4, err := Table4()
	if err != nil {
		return nil, err
	}
	t5, err := Table5()
	if err != nil {
		return nil, err
	}
	emptyDev, err := tnaDevice("empty", emptyKernel, Options{})
	if err != nil {
		return nil, err
	}
	empty := usageOf(emptyDev.P4)
	aggPts, err := Fig14Agg()
	if err != nil {
		return nil, err
	}
	cachePts, err := Fig14Cache()
	if err != nil {
		return nil, err
	}
	abl, err := Ablations()
	if err != nil {
		return nil, err
	}

	var secs []section
	add := func(name, title string, rows [][]string) {
		secs = append(secs, section{name: name, title: title, body: markdownTable(rows)})
	}

	rows := [][]string{{"App", "NetCL", "P4 (handwritten)", "Reduction"}}
	for _, r := range t3 {
		rows = append(rows, []string{r.App, fmt.Sprint(r.NetCL), fmt.Sprint(r.P4), fmt.Sprintf("%.2f×", r.Reduction)})
	}
	add("table3", "Table III — lines of code", append(rows, []string{"**Geomean**", "", "", fmt.Sprintf("**%.2f×**", geo)}))

	// Packet processing is headers+parsing, MATs and register actions.
	cats := []metrics.Category{metrics.CatHeadersParsing, metrics.CatMATs, metrics.CatRegActions, metrics.CatControl, metrics.CatOther}
	rows = [][]string{{"App"}}
	for _, c := range cats {
		rows[0] = append(rows[0], string(c))
	}
	rows[0] = append(rows[0], "packet processing")
	mean := make([]float64, len(cats)+1)
	for _, r := range f12 {
		vals := make([]float64, 0, len(mean))
		for _, c := range cats {
			vals = append(vals, r.Pct[c])
		}
		vals = append(vals, vals[0]+vals[1]+vals[2])
		row := []string{r.App}
		for i, v := range vals {
			row = append(row, pct(v))
			mean[i] += v / float64(len(f12))
		}
		rows = append(rows, row)
	}
	row := []string{"**Mean**"}
	for _, v := range mean {
		row = append(row, "**"+pct(v)+"**")
	}
	add("fig12", "Figure 12 — breakdown of handwritten P4 (% of lines)", append(rows, row))

	ms := func(s float64) string { return fmt.Sprintf("%.2f", 1e3*s) }
	rows = [][]string{{"App", "P4 fit", "ncc", "NetCL fit"}}
	for _, r := range t4 {
		p4fit := ms(r.P4Fit)
		if r.App == "EMPTY" {
			p4fit = "–"
		}
		rows = append(rows, []string{r.App, p4fit, ms(r.Ncc), ms(r.NetCLFit)})
	}
	add("table4", "Table IV — compilation times (ms)", rows)
	secs[len(secs)-1].timed = true // wall clock: printed, never stored

	res := func(u Usage) []string {
		return []string{fmt.Sprint(u.Stages), pct(u.SRAMPct), pct(u.TCAMPct), pct(u.SALUPct), pct(u.VLIWPct)}
	}
	arrows := func(app string, p, n []string) []string {
		for i := range n {
			n[i] = p[i] + " → " + n[i]
		}
		return append([]string{app}, n...)
	}
	rows = [][]string{{"App", "Stages", "SRAM", "TCAM", "SALUs", "VLIW"}}
	for _, r := range t5 {
		rows = append(rows, arrows(r.App, res(r.P4), res(r.NetCL)))
	}
	dash := []string{"–", "–", "–", "–", "–"}
	add("table5", "Table V — Tofino resource utilization (handwritten → generated)",
		append(rows, arrows("EMPTY (base program only)", dash, res(empty))))

	bits := func(u Usage) string { return fmt.Sprintf("%d / %d / %d", u.LocalBits, u.HdrBits, u.MetaBits) }
	rows = [][]string{{"App", "P4 locals / hdr / meta (bits)", "NetCL locals / hdr / meta (bits)", "Worst-case PHV", "Δ PHV (points)"}}
	for _, r := range t5 {
		rows = append(rows, []string{r.App, bits(r.P4), bits(r.NetCL),
			pct(r.P4.PHVPct) + " → " + pct(r.NetCL.PHVPct), fmt.Sprintf("%+.1f", r.NetCL.PHVPct-r.P4.PHVPct)})
	}
	add("table6", "Table VI — local memory and worst-case PHV",
		append(rows, []string{"EMPTY (base program only)", "–", bits(empty), "– → " + pct(empty.PHVPct), "–"}))

	rows = [][]string{{"App", "P4 (ns)", "NetCL (ns)", "Δ"}}
	var meanDelta float64
	for _, r := range t5 {
		delta := 100 * (r.NetCL.LatencyNs - r.P4.LatencyNs) / r.P4.LatencyNs
		meanDelta += delta / float64(len(t5))
		rows = append(rows, []string{r.App, fmt.Sprintf("%.0f", r.P4.LatencyNs), fmt.Sprintf("%.0f", r.NetCL.LatencyNs), fmt.Sprintf("%+.1f%%", delta)})
	}
	add("fig13", "Figure 13 — device packet-processing latency", append(rows, []string{"**Mean**", "", "", fmt.Sprintf("**%+.1f%%**", meanDelta)}))

	rows = [][]string{{"Workers", "NetCL (ATE/s per worker)", "handwritten (ATE/s per worker)", "Mismatches (NetCL / handwritten)"}}
	for _, p := range aggPts {
		rows = append(rows, []string{fmt.Sprint(p.Workers), fmt.Sprintf("%.0f", p.NetCLATE), fmt.Sprintf("%.0f", p.BaselineATE),
			fmt.Sprintf("%d / %d", p.NetCLErrors, p.BaselineErrs)})
	}
	add("fig14-agg", "Figure 14 (left) — AGG throughput", rows)

	rows = [][]string{{"Cached keys", "Hit rate", "NetCL (µs)", "handwritten (µs)", "Wrong values (NetCL / handwritten)"}}
	for _, p := range cachePts {
		rows = append(rows, []string{fmt.Sprint(p.CachedKeys), fmt.Sprintf("%.0f%%", 100*p.HitRate),
			fmt.Sprintf("%.2f", p.NetCLMeanUs), fmt.Sprintf("%.2f", p.BaselineUs), fmt.Sprintf("%d / %d", p.NetCLWrong, p.BaselineWrng)})
	}
	add("fig14-cache", "Figure 14 (right) — CACHE mean response time", rows)

	fits, dupOff := "fits", "refused by the compiler"
	if !abl.DupOnFits {
		fits = "does not fit"
	}
	if abl.DupOffErr == nil {
		dupOff = "compiles"
	}
	add("ablations", "Ablations — §VI-B compiler flags", [][]string{
		{"Flag", "Program", "On", "Off"},
		{"speculation (`DisableSpeculation`)", "AGG",
			fmt.Sprintf("%d stages, %d instructions speculated", abl.SpecStagesOn, abl.Speculated), fmt.Sprintf("%d stages", abl.SpecStagesOff)},
		{"lookup duplication (`DisableLookupDup`)", "one `_lookup_` array on two exclusive paths",
			fmt.Sprintf("%s, %d SRAM blocks", fits, abl.DupSRAMBlocks), dupOff},
		{"cmp-to-sub (`EnableCmpRewrite`)", "`lt = a < b` on `uint16_t`",
			fmt.Sprintf("%d rewritten", abl.CmpRewritesOn), fmt.Sprintf("%d rewritten", abl.CmpRewritesOff)},
	})
	return secs, nil
}
