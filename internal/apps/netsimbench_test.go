package apps

import (
	"testing"

	"netcl/internal/netsim"
)

// netsimScaleCfg is a small instance of the scale scenario: 4 devices,
// a handful of pairs each, every 2nd pair remote so cross-partition
// traffic dominates.
func netsimScaleCfg(partitions int, faults netsim.FaultConfig) NetsimConfig {
	return NetsimConfig{
		Hosts: 4 * 14, Devices: 4, Partitions: partitions, Rounds: 3,
		RemoteEvery: 2, Faults: faults, Trace: true,
	}
}

func TestNetsimScaleCompletes(t *testing.T) {
	res, err := RunNetsimScale(netsimScaleCfg(0, netsim.FaultConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Expected || res.Expected == 0 {
		t.Errorf("completed %d of %d expected slot multicasts", res.Completed, res.Expected)
	}
	if res.Mismatches != 0 {
		t.Errorf("%d aggregation mismatches", res.Mismatches)
	}
	if res.RemotePairs == 0 {
		t.Error("scenario generated no remote pairs")
	}
}

// TestNetsimScalePartitionsMatch: the scenario must produce identical
// delivery hash chains (and counters) at every partition count, with
// and without seeded faults — the scenario-level version of the
// engine's chain test, crossing real multi-hop AGG traffic.
func TestNetsimScalePartitionsMatch(t *testing.T) {
	for _, faults := range []netsim.FaultConfig{
		{},
		{LossRate: 0.05, DupRate: 0.05, JitterNs: 200, Seed: 7},
	} {
		base, err := RunNetsimScale(netsimScaleCfg(1, faults))
		if err != nil {
			t.Fatal(err)
		}
		if base.Completed == 0 {
			t.Fatalf("faults=%+v: nothing completed", faults)
		}
		for _, k := range []int{2, 4} {
			got, err := RunNetsimScale(netsimScaleCfg(k, faults))
			if err != nil {
				t.Fatal(err)
			}
			if got.TraceHash != base.TraceHash || got.Completed != base.Completed ||
				got.Mismatches != base.Mismatches || got.Events != base.Events {
				t.Errorf("faults=%+v k=%d diverged: hash %#x/%#x completed %d/%d mismatches %d/%d events %d/%d",
					faults, k, got.TraceHash, base.TraceHash, got.Completed, base.Completed,
					got.Mismatches, base.Mismatches, got.Events, base.Events)
			}
		}
	}
}
