package netcl

import (
	"flag"
	"os"
	"strings"
	"testing"

	"netcl/internal/metrics"
)

// These tests pin the *shapes* of the paper's evaluation results:
// which side wins, by roughly what factor, and where the crossovers
// fall. TestExperimentsGolden pins the numbers themselves: every
// untimed section of FormatAll against its block in EXPERIMENTS.md.

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated blocks from FormatAll")

// TestExperimentsGolden compares every untimed report section byte for
// byte with its block in EXPERIMENTS.md. Regenerate the blocks with
//
//	go test . -run TestExperimentsGolden -update
//
// (make experiments) and review the diff.
func TestExperimentsGolden(t *testing.T) {
	secs, err := sections()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	blocks := 0
	for _, s := range secs {
		if s.timed {
			continue
		}
		blocks++
		begin, end := beginMarker(s.name), endMarker(s.name)
		i, j := strings.Index(doc, begin), strings.Index(doc, end)
		if i < 0 || j < i {
			t.Errorf("EXPERIMENTS.md has no %s block: add %q and %q lines", s.name, begin, end)
			continue
		}
		i += len(begin)
		if *update {
			doc = doc[:i] + s.body + doc[j:]
		} else if got := doc[i:j]; got != s.body {
			t.Errorf("EXPERIMENTS.md block %s drifted (make experiments rewrites it):\n got:\n%s\nwant:\n%s", s.name, got, s.body)
		}
	}
	if n := strings.Count(doc, "\n<!-- nclbench:"); n != blocks {
		t.Errorf("EXPERIMENTS.md has %d blocks, the report generates %d", n, blocks)
	}
	if *update {
		if err := os.WriteFile("EXPERIMENTS.md", []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	rows, geo, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		// NetCL is O(10), handwritten P4 is O(100) (paper §VII).
		if r.NetCL > 100 {
			t.Errorf("%s: NetCL LoC %d not O(10)", r.App, r.NetCL)
		}
		if r.P4 < 100 {
			t.Errorf("%s: P4 LoC %d not O(100)", r.App, r.P4)
		}
		if r.Reduction < 4 {
			t.Errorf("%s: reduction %.1fx below the paper's 5-30x band", r.App, r.Reduction)
		}
	}
	// Paper geomean: 8.14x/11.93x. Accept the same order of magnitude.
	if geo < 6 || geo > 30 {
		t.Errorf("geomean reduction %.2fx outside the plausible band", geo)
	}
}

func TestFig12Shape(t *testing.T) {
	rows, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	var packetProcessing, control float64
	for _, r := range rows {
		packetProcessing += r.Pct[metrics.CatHeadersParsing] + r.Pct[metrics.CatMATs] + r.Pct[metrics.CatRegActions]
		control += r.Pct[metrics.CatControl]
	}
	packetProcessing /= float64(len(rows))
	control /= float64(len(rows))
	// Paper: >65% packet-processing constructs on average; control
	// logic only ~10-20%.
	if packetProcessing < 55 {
		t.Errorf("packet-processing share %.1f%%, want the majority", packetProcessing)
	}
	if control > 40 {
		t.Errorf("control share %.1f%% implausibly high", control)
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Paper: ncc always finishes in under one second.
		if r.Ncc >= 1.0 {
			t.Errorf("%s: ncc took %.2fs", r.App, r.Ncc)
		}
	}
}

func TestTable5And6Shape(t *testing.T) {
	rows, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Table5Row{}
	for _, r := range rows {
		byApp[r.App] = r
		if !r.P4.Fits || !r.NetCL.Fits {
			t.Errorf("%s: must fit a 12-stage pipe (P4 %v, NetCL %v)", r.App, r.P4.Fits, r.NetCL.Fits)
		}
		// Generated code may use a few extra stages (paper: +3 for
		// CACHE) but never fewer resources than zero or more than 12.
		if d := r.NetCL.Stages - r.P4.Stages; d < 0 || d > 3 {
			t.Errorf("%s: stage delta %d outside [0,3]", r.App, d)
		}
		// PHV: generated within a few percent of handwritten, except
		// small programs where the base program dominates (paper: CALC
		// +12%).
		if d := r.NetCL.PHVPct - r.P4.PHVPct; d < -1 || d > 13 {
			t.Errorf("%s: PHV delta %.1f%% outside the paper's band", r.App, d)
		}
		// Latency: NetCL within ~15%, all below 1µs (paper Fig. 13).
		if r.NetCL.LatencyNs >= 1000 || r.P4.LatencyNs >= 1000 {
			t.Errorf("%s: latency above 1µs", r.App)
		}
		if rel := (r.NetCL.LatencyNs - r.P4.LatencyNs) / r.P4.LatencyNs; rel < 0 || rel > 0.20 {
			t.Errorf("%s: latency delta %.1f%% outside [0,20]%%", r.App, 100*rel)
		}
	}
	// AGG is the SALU-heaviest program (paper Table V shape).
	agg, ok := byApp["AGG"]
	if !ok {
		t.Fatal("no AGG row")
	}
	for _, r := range rows {
		if r.NetCL.SALUPct > agg.NetCL.SALUPct {
			t.Errorf("%s uses more SALUs than AGG: %.1f%% > %.1f%%", r.App, r.NetCL.SALUPct, agg.NetCL.SALUPct)
		}
	}
}

func TestFig14AggShape(t *testing.T) {
	pts, err := Fig14Agg()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.NetCLErrors != 0 || p.BaselineErrs != 0 {
			t.Errorf("workers=%d: aggregation errors", p.Workers)
		}
		// NetCL equals handwritten (paper: "no difference").
		if r := p.NetCLATE / p.BaselineATE; r < 0.97 || r > 1.03 {
			t.Errorf("workers=%d: NetCL/baseline ratio %.3f", p.Workers, r)
		}
	}
	// Adding workers must not degrade per-worker throughput by more
	// than a few percent (paper: flat).
	first, last := pts[0], pts[len(pts)-1]
	if r := last.NetCLATE / first.NetCLATE; r < 0.90 {
		t.Errorf("per-worker throughput degraded: %dw/%dw = %.3f", last.Workers, first.Workers, r)
	}
}

func TestFig14CacheShape(t *testing.T) {
	pts, err := Fig14Cache()
	if err != nil {
		t.Fatal(err)
	}
	allMiss, allHit := pts[0], pts[len(pts)-1]
	if allMiss.HitRate != 0 || allHit.HitRate != 1 {
		t.Fatalf("sweep ends at hit rates %.2f and %.2f, want 0 and 1", allMiss.HitRate, allHit.HitRate)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].NetCLMeanUs >= pts[i-1].NetCLMeanUs {
			t.Errorf("response time must fall with hit rate: %.1fµs at %d cached, %.1fµs at %d",
				pts[i-1].NetCLMeanUs, pts[i-1].CachedKeys, pts[i].NetCLMeanUs, pts[i].CachedKeys)
		}
	}
	// Paper: ~27µs all-miss, ~9.4µs all-hit; require the same band.
	if allMiss.NetCLMeanUs < 20 || allMiss.NetCLMeanUs > 35 {
		t.Errorf("all-miss %.1fµs outside [20,35]", allMiss.NetCLMeanUs)
	}
	if allHit.NetCLMeanUs < 6 || allHit.NetCLMeanUs > 13 {
		t.Errorf("all-hit %.1fµs outside [6,13]", allHit.NetCLMeanUs)
	}
	for _, p := range pts {
		if p.NetCLWrong != 0 || p.BaselineWrng != 0 {
			t.Errorf("cached=%d: wrong values", p.CachedKeys)
		}
		if r := p.NetCLMeanUs / p.BaselineUs; r < 0.95 || r > 1.05 {
			t.Errorf("cached=%d NetCL/baseline %.3f", p.CachedKeys, r)
		}
	}
}

// TestAblationShape pins the §VI-B claims themselves, which a
// regenerated EXPERIMENTS.md block cannot paper over.
func TestAblationShape(t *testing.T) {
	a, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	// P4 applies a table once per packet: the two-path kernel needs
	// lookup duplication to compile, and with it fits.
	if a.DupOffErr == nil {
		t.Error("two-path lookup compiled with lookup duplication off")
	}
	if !a.DupOnFits {
		t.Error("two-path lookup does not fit with lookup duplication on")
	}
	if a.Speculated < 1 {
		t.Error("speculation moved no AGG instruction")
	}
	if a.SpecStagesOn > a.SpecStagesOff {
		t.Errorf("speculation costs stages: %d on, %d off", a.SpecStagesOn, a.SpecStagesOff)
	}
	if a.CmpRewritesOn < 1 || a.CmpRewritesOff != 0 {
		t.Errorf("cmp-to-sub rewrote %d compares on, %d off; want ≥1 and 0", a.CmpRewritesOn, a.CmpRewritesOff)
	}
}
