package apps

import (
	"testing"

	"netcl/internal/p4"
	"netcl/internal/p4c"
	"netcl/internal/passes"
)

// baselineFiles lists every handwritten program.
var baselineFiles = []string{"agg.p4", "cache.p4", "pacc.p4", "plrn.p4", "pldr.p4", "calc.p4"}

// TestBaselinesParseAndFit parses every handwritten baseline with the
// P4-16 parser, validates it, and fits it on the Tofino model (Table V
// requires all handwritten programs to fit 12 stages too).
func TestBaselinesParseAndFit(t *testing.T) {
	for _, f := range baselineFiles {
		src, err := baselineFS.ReadFile("baseline/" + f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		prog, err := p4.Parse(f, string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if _, err := prog.Validate(); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		rep := p4c.Fit(prog, p4c.Tofino1())
		if !rep.Fits {
			t.Errorf("%s does not fit Tofino: %s", f, rep.Reason)
		}
		if rep.LatencyNs >= 1000 {
			t.Errorf("%s: latency %.0fns", f, rep.LatencyNs)
		}
	}
}

// TestAggEquivalence runs the identical workload against the generated
// and the handwritten AGG programs: same completions, same aggregates,
// same per-worker throughput shape (paper Fig. 14 left: "no difference
// between NetCL and handwritten P4").
func TestAggEquivalence(t *testing.T) {
	gen, err := RunAgg(AggConfig{Workers: 4, Chunks: 12, Window: 2, Target: passes.TargetTNA})
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunAgg(AggConfig{Workers: 4, Chunks: 12, Window: 2, Target: passes.TargetTNA, Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Mismatches != 0 || base.Mismatches != 0 {
		t.Fatalf("mismatches: gen=%d base=%d", gen.Mismatches, base.Mismatches)
	}
	if gen.Completed != base.Completed {
		t.Errorf("completions differ: gen=%d base=%d", gen.Completed, base.Completed)
	}
	// Same host/network model: throughput should be within 2%.
	ratio := gen.ATEPerWorker / base.ATEPerWorker
	if ratio < 0.98 || ratio > 1.02 {
		t.Errorf("throughput ratio %0.3f; NetCL and handwritten should match", ratio)
	}
}

// TestCacheEquivalence mirrors Fig. 14 right for generated vs
// handwritten NetCache.
func TestCacheEquivalence(t *testing.T) {
	for _, cached := range []int{0, 8, 16} {
		gen, err := RunCache(CacheConfig{CachedKeys: cached, TotalKeys: 16, Requests: 48, Target: passes.TargetTNA})
		if err != nil {
			t.Fatal(err)
		}
		base, err := RunCache(CacheConfig{CachedKeys: cached, TotalKeys: 16, Requests: 48, Target: passes.TargetTNA, Baseline: true})
		if err != nil {
			t.Fatal(err)
		}
		if gen.WrongValues != 0 || base.WrongValues != 0 {
			t.Fatalf("cached=%d wrong values: gen=%d base=%d", cached, gen.WrongValues, base.WrongValues)
		}
		if gen.HitRate != base.HitRate {
			t.Errorf("cached=%d hit rates differ: gen=%.2f base=%.2f", cached, gen.HitRate, base.HitRate)
		}
		ratio := gen.MeanResponseNs / base.MeanResponseNs
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("cached=%d response-time ratio %.3f", cached, ratio)
		}
	}
}
