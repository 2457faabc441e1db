package apps

import (
	"testing"

	"netcl/internal/p4c"
	"netcl/internal/passes"
)

// TestAllAppsCompileAndFit compiles every application for both targets
// and checks the TNA artifacts fit a 12-stage Tofino pipe (paper Table
// V: "All applications were able to fit").
func TestAllAppsCompileAndFit(t *testing.T) {
	for _, app := range All() {
		for _, dev := range app.Devices {
			for _, target := range []passes.Target{passes.TargetTNA, passes.TargetV1Model} {
				prog, specs, _, err := CompileApp(app, target, dev)
				if err != nil {
					t.Fatalf("%s dev %d %s: %v", app.Name, dev, target, err)
				}
				if len(specs) == 0 {
					t.Errorf("%s: no message specs", app.Name)
				}
				if target != passes.TargetTNA {
					continue
				}
				rep := p4c.Fit(prog, p4c.Tofino1())
				if !rep.Fits {
					t.Errorf("%s dev %d does not fit Tofino: %s", app.Name, dev, rep.Reason)
				}
				if rep.LatencyNs >= 1000 {
					t.Errorf("%s dev %d latency %.0fns not below 1us", app.Name, dev, rep.LatencyNs)
				}
			}
		}
	}
}

func TestRunAggSemantics(t *testing.T) {
	for _, target := range []passes.Target{passes.TargetTNA, passes.TargetV1Model} {
		res, err := RunAgg(AggConfig{Workers: 3, Chunks: 16, Window: 2, Target: target})
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		if res.Completed != 3*16 {
			t.Errorf("%s: completions %d, want 48", target, res.Completed)
		}
		if res.Mismatches != 0 {
			t.Errorf("%s: %d aggregation mismatches", target, res.Mismatches)
		}
		if res.ATEPerWorker <= 0 {
			t.Errorf("%s: no throughput measured", target)
		}
	}
}

func TestRunCacheSemantics(t *testing.T) {
	// Half the keys cached: hit rate 0.5, no wrong values.
	res, err := RunCache(CacheConfig{CachedKeys: 8, TotalKeys: 16, Requests: 64, Target: passes.TargetTNA})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits+res.Misses != 64 {
		t.Fatalf("responses: %d/%d", res.Hits, res.Misses)
	}
	if res.HitRate < 0.45 || res.HitRate > 0.55 {
		t.Errorf("hit rate %.2f, want ~0.5", res.HitRate)
	}
	if res.WrongValues != 0 {
		t.Errorf("%d wrong values returned", res.WrongValues)
	}
	// All-hit must be much faster than all-miss (paper Fig. 14 right).
	hot, err := RunCache(CacheConfig{CachedKeys: 16, TotalKeys: 16, Requests: 32, Target: passes.TargetTNA})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunCache(CacheConfig{CachedKeys: 0, TotalKeys: 16, Requests: 32, Target: passes.TargetTNA})
	if err != nil {
		t.Fatal(err)
	}
	if hot.HitRate != 1 || cold.HitRate != 0 {
		t.Fatalf("hit rates: hot %.2f cold %.2f", hot.HitRate, cold.HitRate)
	}
	if hot.MeanResponseNs >= cold.MeanResponseNs {
		t.Errorf("hit RT %.0fns should beat miss RT %.0fns", hot.MeanResponseNs, cold.MeanResponseNs)
	}
	if cold.WrongValues != 0 || hot.WrongValues != 0 {
		t.Errorf("wrong values: hot=%d cold=%d", hot.WrongValues, cold.WrongValues)
	}
}

func TestRunPaxosSemantics(t *testing.T) {
	res, err := RunPaxos(PaxosConfig{Commands: 12, Target: passes.TargetTNA})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 12 {
		t.Errorf("delivered %d of %d commands", res.Delivered, res.Submitted)
	}
	if res.WrongValue != 0 {
		t.Errorf("%d deliveries with wrong values", res.WrongValue)
	}
}
