package netcl

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§VII) plus ablations of the compiler flags
// described in §VI-B. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports its headline numbers as custom metrics so the
// rows appear directly in the bench output; the full formatted tables
// come from `go run ./cmd/nclbench`.

import (
	"sync"
	"testing"

	"netcl/internal/apps"
	"netcl/internal/metrics"
	"netcl/internal/p4c"
	"netcl/internal/passes"
)

// BenchmarkTable3LoC regenerates the lines-of-code comparison.
func BenchmarkTable3LoC(b *testing.B) {
	var geo float64
	for i := 0; i < b.N; i++ {
		var err error
		_, geo, err = Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(geo, "geomean-reduction-x")
}

// BenchmarkFig12Breakdown regenerates the P4 construct breakdown.
func BenchmarkFig12Breakdown(b *testing.B) {
	var pp float64
	for i := 0; i < b.N; i++ {
		rows, err := Fig12()
		if err != nil {
			b.Fatal(err)
		}
		pp = 0
		for _, r := range rows {
			pp += r.Pct[metrics.CatHeadersParsing] + r.Pct[metrics.CatMATs] + r.Pct[metrics.CatRegActions]
		}
		pp /= float64(len(rows))
	}
	b.ReportMetric(pp, "pkt-processing-%")
}

// BenchmarkTable4CompileTimes regenerates compilation-time rows.
func BenchmarkTable4CompileTimes(b *testing.B) {
	var ncc float64
	for i := 0; i < b.N; i++ {
		rows, err := Table4()
		if err != nil {
			b.Fatal(err)
		}
		ncc = 0
		for _, r := range rows {
			if r.Ncc > ncc {
				ncc = r.Ncc
			}
		}
	}
	b.ReportMetric(ncc*1000, "worst-ncc-ms")
}

// BenchmarkTable5Resources regenerates the Tofino resource table.
func BenchmarkTable5Resources(b *testing.B) {
	var aggSALU float64
	for i := 0; i < b.N; i++ {
		rows, err := Table5()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.NetCL.Fits {
				b.Fatalf("%s does not fit", r.App)
			}
			if r.App == "AGG" {
				aggSALU = r.NetCL.SALUPct
			}
		}
	}
	b.ReportMetric(aggSALU, "agg-salu-%")
}

// BenchmarkTable6PHV regenerates the PHV/local-memory table.
func BenchmarkTable6PHV(b *testing.B) {
	var worstDelta float64
	for i := 0; i < b.N; i++ {
		rows, err := Table6()
		if err != nil {
			b.Fatal(err)
		}
		worstDelta = 0
		for _, r := range rows {
			if d := r.NetCL.PHVPct - r.P4.PHVPct; d > worstDelta {
				worstDelta = d
			}
		}
	}
	b.ReportMetric(worstDelta, "worst-phv-delta-%")
}

// BenchmarkFig13Latency regenerates the device latency figure.
func BenchmarkFig13Latency(b *testing.B) {
	var worstRel float64
	for i := 0; i < b.N; i++ {
		rows, err := Fig13()
		if err != nil {
			b.Fatal(err)
		}
		worstRel = 0
		for _, r := range rows {
			rel := 100 * (r.NetCL.LatencyNs - r.P4.LatencyNs) / r.P4.LatencyNs
			if rel > worstRel {
				worstRel = rel
			}
		}
	}
	b.ReportMetric(worstRel, "worst-latency-delta-%")
}

// BenchmarkFig14AggThroughput regenerates the AGG end-to-end figure.
func BenchmarkFig14AggThroughput(b *testing.B) {
	var ate6 float64
	for i := 0; i < b.N; i++ {
		pts, err := Fig14Agg([]int{2, 4, 6}, 32)
		if err != nil {
			b.Fatal(err)
		}
		ate6 = pts[2].NetCLATE
	}
	b.ReportMetric(ate6/1e6, "MATE/s/worker-6w")
}

// BenchmarkFig14CacheLatency regenerates the CACHE end-to-end figure.
func BenchmarkFig14CacheLatency(b *testing.B) {
	var hit, miss float64
	for i := 0; i < b.N; i++ {
		pts, err := Fig14Cache([]int{0, 32}, 32, 64)
		if err != nil {
			b.Fatal(err)
		}
		miss, hit = pts[0].NetCLMeanUs, pts[1].NetCLMeanUs
	}
	b.ReportMetric(miss, "all-miss-us")
	b.ReportMetric(hit, "all-hit-us")
}

// Ablations of the §VI-B compiler flags ---------------------------------

// compileAggWith compiles AGG with the given flag configuration.
func compileAggWith(b *testing.B, opts Options) *DeviceArtifact {
	b.Helper()
	app := apps.ByName("AGG")
	opts.Defines = app.Defines
	opts.Devices = []uint16{1}
	opts.Target = TargetTNA
	art, err := Compile("agg", app.NetCL, opts)
	if err != nil {
		b.Fatal(err)
	}
	return art.Device(1)
}

// BenchmarkAblationSpeculation compares stage usage with and without
// aggressive speculation (paper: "speculation is what allowed one of
// the major programs in our evaluation to fit Tofino").
func BenchmarkAblationSpeculation(b *testing.B) {
	var on, off int
	var moved int
	for i := 0; i < b.N; i++ {
		dOn := compileAggWith(b, Options{})
		dOff := compileAggWith(b, Options{DisableSpeculation: true})
		on = p4c.Fit(dOn.P4, p4c.Tofino1()).StagesUsed
		off = p4c.Fit(dOff.P4, p4c.Tofino1()).StagesUsed
		moved = dOn.Stats.Speculated
	}
	b.ReportMetric(float64(on), "stages-speculation-on")
	b.ReportMetric(float64(off), "stages-speculation-off")
	b.ReportMetric(float64(moved), "speculated-instrs")
}

// BenchmarkAblationLookupDuplication compares SRAM cost with and
// without lookup-memory duplication (paper: duplication "could lead to
// excessive resource consumption and thus can be turned off").
func BenchmarkAblationLookupDuplication(b *testing.B) {
	const src = `
_net_ _lookup_ ncl::kv<unsigned,unsigned> tbl[65536];
_kernel(1) void k(unsigned a, unsigned b, unsigned &x, unsigned &y) {
  unsigned v1 = 0, v2 = 0;
  if (a > b) { ncl::lookup(tbl, a, v1); x = v1; }
  else       { ncl::lookup(tbl, b, v2); y = v2; }
}
`
	var withDup int
	var offCompiles float64
	for i := 0; i < b.N; i++ {
		on, err := Compile("dup-on", src, Options{Target: TargetTNA})
		if err != nil {
			b.Fatal(err)
		}
		withDup = p4c.Fit(on.Devices[0].P4, p4c.Tofino1()).SRAMBlocks
		// With duplication disabled the two accesses cannot share one
		// MAT: compilation must fail (the flag trades SRAM for
		// compilability, not the other way around).
		if _, err := Compile("dup-off", src, Options{Target: TargetTNA, DisableLookupDup: true}); err == nil {
			offCompiles = 1
		}
	}
	b.ReportMetric(float64(withDup), "sram-blocks-dup-on")
	b.ReportMetric(offCompiles, "dup-off-compiles")
}

// BenchmarkAblationCmpRewrite measures the dynamic-compare rewrite.
func BenchmarkAblationCmpRewrite(b *testing.B) {
	const src = `
_kernel(1) void k(uint16_t a, uint16_t b, uint8_t &lt) { lt = a < b; }
`
	var rewrites int
	for i := 0; i < b.N; i++ {
		art, err := Compile("cmp", src, Options{Target: TargetTNA, EnableCmpRewrite: true})
		if err != nil {
			b.Fatal(err)
		}
		rewrites = art.Devices[0].Stats.CmpRewrites
	}
	b.ReportMetric(float64(rewrites), "cmp-rewrites")
}

// Micro-benchmarks of the toolchain itself -------------------------------

// BenchmarkCompileCache measures full NetCL compilation of NetCache.
func BenchmarkCompileCache(b *testing.B) {
	app := apps.ByName("CACHE")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile("cache", app.NetCL, Options{
			Target: TargetTNA, Defines: app.Defines, Devices: []uint16{1},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreterCachePacket measures per-packet interpreter cost.
func BenchmarkInterpreterCachePacket(b *testing.B) {
	var once sync.Once
	var setupErr error
	var run func() error
	once.Do(func() {
		res, err := apps.RunCache(apps.CacheConfig{CachedKeys: 8, TotalKeys: 16, Requests: 1, Target: passes.TargetTNA})
		_ = res
		setupErr = err
	})
	if setupErr != nil {
		b.Fatal(setupErr)
	}
	run = func() error {
		_, err := apps.RunCache(apps.CacheConfig{CachedKeys: 8, TotalKeys: 16, Requests: 64, Target: passes.TargetTNA})
		return err
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}
