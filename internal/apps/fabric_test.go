package apps

import (
	"testing"
)

func TestFabricAggTiers(t *testing.T) {
	// 4 leaves of 2, 4 and 16 workers, every tier depth: all rounds
	// complete with correct sums, and each added aggregation tier cuts
	// the traffic entering the top tier by its fan-in. At 64 workers the
	// flat placement is over its 16-bit contribution bitmap and must
	// refuse; the hierarchy keeps going.
	const leaves = 4
	for _, perLeaf := range []int{2, 4, 16} {
		byTier := map[int]*FabricAggResult{}
		for _, tiers := range []int{1, 2, 3} {
			res, err := RunFabricAgg(FabricAggConfig{Tiers: tiers, Leaves: leaves, WorkersPerLeaf: perLeaf, Rounds: 4})
			if tiers == 1 && leaves*perLeaf > 16 {
				if err == nil {
					t.Fatalf("perLeaf=%d: flat placement accepted %d workers", perLeaf, leaves*perLeaf)
				}
				continue
			}
			if err != nil {
				t.Fatalf("perLeaf=%d tiers=%d: %v", perLeaf, tiers, err)
			}
			t.Logf("perLeaf=%d tiers=%d: %d workers, %d devices, %.0f elems/s, %d B into the top tier, %d events",
				perLeaf, tiers, res.Workers, res.Devices, res.GoodputElems, res.RootIngressBytes, res.Events)
			if res.Completed != res.Expected || res.Mismatches != 0 {
				t.Fatalf("perLeaf=%d tiers=%d: %d/%d rounds completed, %d mismatches",
					perLeaf, tiers, res.Completed, res.Expected, res.Mismatches)
			}
			if res.RootIngressBytes == 0 {
				t.Fatalf("perLeaf=%d tiers=%d: no bytes entered the top tier", perLeaf, tiers)
			}
			byTier[tiers] = res
		}
		// Flat: every worker packet converges on the root each round.
		// Two-tier: the 4 leaves each forward one partial — a reduction
		// in root-ingress traffic by the leaf fan-in at equal host count.
		if flat := byTier[1]; flat != nil {
			ratio := float64(flat.RootIngressBytes) / float64(byTier[2].RootIngressBytes)
			fanin := float64(perLeaf)
			if ratio < fanin*0.875 || ratio > fanin*1.125 {
				t.Fatalf("perLeaf=%d: 2-tier root ingress reduction %.2f×, want ≈%.0f× (fan-in): flat=%d hier=%d",
					perLeaf, ratio, fanin, flat.RootIngressBytes, byTier[2].RootIngressBytes)
			}
		}
		// Three-tier: the 2 group switches each forward one partial.
		if byTier[3].RootIngressBytes >= byTier[2].RootIngressBytes {
			t.Fatalf("perLeaf=%d: 3-tier root ingress %d not below 2-tier %d",
				perLeaf, byTier[3].RootIngressBytes, byTier[2].RootIngressBytes)
		}
	}
}

func TestFabricAggPartitionInvariance(t *testing.T) {
	// The determinism contract across the fabric: partitioned runs
	// (k ∈ {2,4}) produce delivery hash chains identical to the serial
	// run, for both the hierarchical tree and the flat baseline.
	for _, tiers := range []int{2, 3} {
		run := func(parts int) *FabricAggResult {
			res, err := RunFabricAgg(FabricAggConfig{
				Tiers: tiers, Rounds: 4, Partitions: parts, Trace: true,
			})
			if err != nil {
				t.Fatalf("tiers=%d parts=%d: %v", tiers, parts, err)
			}
			if res.Completed != res.Expected || res.Mismatches != 0 {
				t.Fatalf("tiers=%d parts=%d: %d/%d completed, %d mismatches",
					tiers, parts, res.Completed, res.Expected, res.Mismatches)
			}
			return res
		}
		serial := run(0)
		for _, k := range []int{2, 4} {
			pr := run(k)
			if pr.Partitions < 2 {
				t.Fatalf("tiers=%d: asked for %d partitions, got %d", tiers, k, pr.Partitions)
			}
			if pr.TraceHash != serial.TraceHash {
				t.Fatalf("tiers=%d k=%d: trace hash %#x != serial %#x",
					tiers, k, pr.TraceHash, serial.TraceHash)
			}
		}
	}
}

func TestFabricCache(t *testing.T) {
	res, err := RunFabricCache(FabricCacheConfig{
		Racks: 3, Spines: 2, TotalKeys: 32, CachedKeys: 16, RequestsPerClient: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 3*64 {
		t.Fatalf("answered %d of %d requests", res.Requests, 3*64)
	}
	if res.WrongValues != 0 {
		t.Fatalf("%d wrong values", res.WrongValues)
	}
	// Uniform key walk over a half-cached universe: hit rate ≈ 50%.
	if res.HitRate < 0.4 || res.HitRate > 0.6 {
		t.Fatalf("hit rate %.2f, want ≈0.5", res.HitRate)
	}
	// Only misses cross the spine; hits reflect at the rack leaf.
	if res.SpineIngressBytes == 0 {
		t.Fatal("no miss traffic traversed the spine")
	}
}

func TestFabricPaxos(t *testing.T) {
	res, err := RunFabricPaxos(FabricPaxosConfig{Commands: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Submitted || res.Undelivered != 0 {
		t.Fatalf("delivered %d of %d commands (%d undelivered)",
			res.Delivered, res.Submitted, res.Undelivered)
	}
	if res.WrongValue != 0 {
		t.Fatalf("%d wrong values", res.WrongValue)
	}
}
