package apps

// golden_test.go pins the JSON result of every deterministic simulated
// driver: a refactor of the host-side protocol code must leave each run
// byte-identical. Wall-clock fields are zeroed before comparison; all
// else is simulated time and counters. Rewrite the expectations with
//
//	go test ./internal/apps -run TestDriverGolden -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"netcl/internal/netsim"
	"netcl/internal/passes"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the drivers")

// goldenCase is one deterministic driver run whose result is pinned.
type goldenCase struct {
	name string
	run  func(target passes.Target) (any, error)
}

// goldenCases lists every deterministic simulated driver configuration.
// Each run takes the compile target as a parameter so the same set
// doubles as the both-targets check.
func goldenCases() []goldenCase {
	lossy := netsim.FaultConfig{LossRate: 0.02, Seed: 3}
	agg := func(cfg AggConfig) func(passes.Target) (any, error) {
		return func(t passes.Target) (any, error) {
			cfg.Target = t
			res, err := RunAgg(cfg)
			if res != nil {
				res.Sim.EventsPerSec = 0
			}
			return res, err
		}
	}
	cache := func(cfg CacheConfig) func(passes.Target) (any, error) {
		return func(t passes.Target) (any, error) {
			cfg.Target = t
			res, err := RunCache(cfg)
			if res != nil {
				res.Sim.EventsPerSec = 0
			}
			return res, err
		}
	}
	paxos := func(cfg PaxosConfig) func(passes.Target) (any, error) {
		return func(t passes.Target) (any, error) {
			cfg.Target = t
			return RunPaxos(cfg)
		}
	}
	fabricAgg := func(tiers int) func(passes.Target) (any, error) {
		return func(t passes.Target) (any, error) {
			return RunFabricAgg(FabricAggConfig{Tiers: tiers, Rounds: 4, Trace: true, Target: t})
		}
	}
	churn := func(run func(ChurnConfig) (*ChurnResult, error)) func(passes.Target) (any, error) {
		return func(t passes.Target) (any, error) {
			return run(ChurnConfig{Trace: true, Target: t})
		}
	}
	hostpath := func(window int) func(passes.Target) (any, error) {
		return func(t passes.Target) (any, error) {
			return RunHostpath(HostpathConfig{Window: window, Ops: 96, Target: t})
		}
	}
	return []goldenCase{
		{"agg", agg(AggConfig{Workers: 3, Chunks: 16, Window: 2})},
		{"agg_lossy", agg(AggConfig{Workers: 3, Chunks: 16, Window: 2, Faults: lossy})},
		{"agg_baseline", agg(AggConfig{Workers: 3, Chunks: 16, Window: 2, Baseline: true})},
		{"cache", cache(CacheConfig{CachedKeys: 8, TotalKeys: 16, Requests: 64})},
		{"cache_baseline", cache(CacheConfig{CachedKeys: 8, TotalKeys: 16, Requests: 64, Baseline: true})},
		{"cache_lossy", cache(CacheConfig{CachedKeys: 8, TotalKeys: 16, Requests: 64, Faults: lossy})},
		{"paxos", paxos(PaxosConfig{Commands: 12})},
		{"paxos_lossy", paxos(PaxosConfig{Commands: 12, Faults: netsim.FaultConfig{LossRate: 0.01, Seed: 11}})},
		{"fabric_agg_t1", fabricAgg(1)},
		{"fabric_agg_t2", fabricAgg(2)},
		{"fabric_agg_t3", fabricAgg(3)},
		{"fabric_cache", func(t passes.Target) (any, error) {
			return RunFabricCache(FabricCacheConfig{RequestsPerClient: 32, Target: t})
		}},
		{"fabric_paxos", func(t passes.Target) (any, error) {
			return RunFabricPaxos(FabricPaxosConfig{Commands: 16, Target: t})
		}},
		{"churn_agg_failover", churn(RunChurnAggFailover)},
		{"churn_paxos_reelect", churn(RunChurnPaxosReelect)},
		{"churn_cache_churn", churn(RunChurnCacheChurn)},
		{"churn_rolling", churn(RunChurnRolling)},
		{"hostpath_w1", hostpath(1)},
		{"hostpath_w8", hostpath(8)},
		{"netsim_scale", func(t passes.Target) (any, error) {
			cfg := netsimScaleCfg(0, netsim.FaultConfig{})
			cfg.Target = t
			res, err := RunNetsimScale(cfg)
			if res != nil {
				res.WallNs, res.EventsPerSec, res.AllocsPerEvent, res.BytesPerHost = 0, 0, 0, 0
			}
			return res, err
		}},
	}
}

// TestSimDriversBothTargets runs every golden configuration on both
// backends: host code reaches device state by NetCL name, so a driver
// must not care how the compiler partitioned a memory.
func TestSimDriversBothTargets(t *testing.T) {
	for _, target := range []passes.Target{passes.TargetTNA, passes.TargetV1Model} {
		for _, c := range goldenCases() {
			t.Run(string(target)+"/"+c.name, func(t *testing.T) {
				res, err := c.run(target)
				if err != nil {
					t.Fatal(err)
				}
				for field, n := range wrongCounts(t, res) {
					if n != 0 {
						t.Errorf("%s = %v, want 0", field, n)
					}
				}
			})
		}
	}
}

// wrongCounts picks a result's wrong-answer counters out of its JSON
// form, whatever the driver names them.
func wrongCounts(t *testing.T, res any) map[string]float64 {
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, k := range []string{"Mismatches", "WrongValues", "WrongValue", "mismatches", "wrong_values", "errors"} {
		if v, ok := m[k].(float64); ok {
			out[k] = v
		}
	}
	if len(out) == 0 {
		t.Fatalf("result %T has no wrong-answer counter", res)
	}
	return out
}

// TestDriverTargetDefault: a zero-value Target means TNA, as it does for
// netcl.Compile, and an unknown target is an error from every driver.
func TestDriverTargetDefault(t *testing.T) {
	if _, err := RunCache(CacheConfig{CachedKeys: 8, TotalKeys: 16, Requests: 32}); err != nil {
		t.Fatalf("zero-value target: %v", err)
	}
	runs := map[string]func(passes.Target) (any, error){
		"agg_udp": func(t passes.Target) (any, error) { return RunAggUDP(AggUDPConfig{Target: t}) },
		"paxos_udp": func(t passes.Target) (any, error) {
			return RunPaxosUDP(PaxosUDPConfig{Target: t})
		},
	}
	for _, c := range goldenCases() {
		runs[c.name] = c.run
	}
	for name, run := range runs {
		if _, err := run("bogus"); err == nil {
			t.Errorf("%s: target \"bogus\" accepted", name)
		}
	}
}

func TestDriverGolden(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.run(passes.TargetTNA)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", c.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from %s:\n got: %s\nwant: %s", c.name, path, got, want)
			}
		})
	}
}
