package apps

// churn_test.go pins the production-churn suite: each scenario's
// correctness invariants (zero corrupted results, bounded loss,
// recovery to baseline), the partition-count invariance of the
// stateful timelines, and the rule-consistency of failover updates —
// no packet may observe a half-applied forwarding swap, even mid-burst
// under concurrent control-plane writes (run with -race).

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"netcl/internal/bmv2"
	"netcl/internal/netsim"
	"netcl/internal/p4"
	"netcl/internal/passes"
	"netcl/internal/runtime"
)

// runChurn runs one scenario at its one size and logs the result row,
// so `go test -v` shows the numbers behind the assertions.
func runChurn(t *testing.T, run func(ChurnConfig) (*ChurnResult, error)) *ChurnResult {
	t.Helper()
	res, err := run(ChurnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	slo := res.SLO
	t.Logf("%s: %d requests, %d completed, %d lost, %d errors; availability %.3f before / %.3f during / %.3f after; p99 during %.0f ns, recovery %.1f µs",
		res.Name, res.Requests, res.Completed, res.Lost, res.Errors,
		slo.BaselineAvailability, slo.DuringAvailability, slo.AfterAvailability,
		slo.During.P99Ns, slo.RecoveryNs/1000)
	return res
}

func TestChurnAggFailover(t *testing.T) {
	res := runChurn(t, RunChurnAggFailover)
	if res.Errors != 0 {
		t.Fatalf("failover corrupted %d rounds (pool state did not move)", res.Errors)
	}
	if res.Completed+res.Lost != res.Requests {
		t.Fatalf("accounting: %d+%d != %d", res.Completed, res.Lost, res.Requests)
	}
	if res.Lost == 0 {
		t.Error("link outage lost no rounds — the timeline missed the traffic")
	}
	slo := res.SLO
	if !slo.Recovered {
		t.Error("never recovered to baseline p99")
	}
	if slo.AfterAvailability < slo.BaselineAvailability-0.01 {
		t.Errorf("after-availability %.3f below baseline %.3f", slo.AfterAvailability, slo.BaselineAvailability)
	}
	if slo.DuringAvailability >= slo.BaselineAvailability {
		t.Errorf("no availability dip during the event: %.3f vs %.3f", slo.DuringAvailability, slo.BaselineAvailability)
	}
}

func TestChurnPaxosReelect(t *testing.T) {
	res := runChurn(t, RunChurnPaxosReelect)
	if res.Errors != 0 {
		t.Fatalf("%d errors: duplicate instances or bad values (allocator did not move)", res.Errors)
	}
	if res.Lost > 2 {
		t.Errorf("lost %d commands, want ≤ 2 (only the dead-coordinator gap)", res.Lost)
	}
	if res.Completed < res.Requests-2 {
		t.Errorf("completed %d/%d", res.Completed, res.Requests)
	}
	if !res.SLO.Recovered {
		t.Error("never recovered")
	}
}

// TestChurnWriteErrorSurfaces: a timeline write the switch refuses
// fails the scenario with the switch's error instead of passing as a
// quiet SLO miss.
func TestChurnWriteErrorSurfaces(t *testing.T) {
	t.Cleanup(func() { testHookReroute = nil })
	testHookReroute = func(batches []netsim.DeviceBatch) {
		batches[0].Batch.Insert("no_such_table", &p4.Entry{
			Keys: []p4.KeyValue{{Value: 1, PrefixLen: -1}}, Action: &p4.ActionCall{Name: "fwd"},
		})
	}
	for name, run := range map[string]func(ChurnConfig) (*ChurnResult, error){
		"agg-failover":  RunChurnAggFailover,
		"paxos-reelect": RunChurnPaxosReelect,
	} {
		_, err := run(ChurnConfig{})
		if err == nil {
			t.Errorf("%s: a refused re-route batch did not fail the run", name)
		} else if !strings.Contains(err.Error(), "no_such_table") {
			t.Errorf("%s: error %q does not name the refused table", name, err)
		}
	}
}

func TestChurnCacheChurn(t *testing.T) {
	res := runChurn(t, RunChurnCacheChurn)
	if res.Errors != 0 {
		t.Fatalf("%d wrong values under churn", res.Errors)
	}
	if res.Lost != 0 {
		t.Errorf("cache churn lost %d requests (misses must serve from the store)", res.Lost)
	}
	if res.Hits+res.Misses != res.Completed {
		t.Errorf("hit/miss accounting: %d+%d != %d", res.Hits, res.Misses, res.Completed)
	}
	slo := res.SLO
	if slo.DuringAvailability >= slo.BaselineAvailability {
		t.Errorf("hot-set shift caused no dip: %.3f vs %.3f", slo.DuringAvailability, slo.BaselineAvailability)
	}
	if !slo.Recovered {
		t.Error("cache repopulation never recovered the SLO")
	}
}

func TestChurnRolling(t *testing.T) {
	res := runChurn(t, RunChurnRolling)
	if res.Errors != 0 {
		t.Fatalf("%d torn or stale responses during rolling reconfig", res.Errors)
	}
	if res.Lost != 0 {
		t.Errorf("rolling reconfig lost %d requests", res.Lost)
	}
	// The whole point: one-switch-at-a-time transactional rewrites are
	// invisible to the availability SLO.
	if res.SLO.DuringAvailability != 1 {
		t.Errorf("rolling reconfig dipped availability to %.3f", res.SLO.DuringAvailability)
	}
	if !res.SLO.Recovered {
		t.Error("not recovered")
	}
}

// TestChurnPartitionIdentity: the two register-stateful timelines must
// replay hash-chain-identical under k ∈ {2,4} partitions — crash,
// drain, cross-partition restore and re-route included.
func TestChurnPartitionIdentity(t *testing.T) {
	for _, sc := range []struct {
		name string
		run  func(ChurnConfig) (*ChurnResult, error)
	}{
		{"agg-failover", RunChurnAggFailover},
		{"cache-churn", RunChurnCacheChurn},
	} {
		serial, err := sc.run(ChurnConfig{Trace: true})
		if err != nil {
			t.Fatalf("%s serial: %v", sc.name, err)
		}
		if serial.TraceHash == 0 {
			t.Fatalf("%s: empty trace", sc.name)
		}
		for _, k := range []int{2, 4} {
			got, err := sc.run(ChurnConfig{Trace: true, Partitions: k})
			if err != nil {
				t.Fatalf("%s k=%d: %v", sc.name, k, err)
			}
			if got.TraceHash != serial.TraceHash {
				t.Errorf("%s k=%d: trace %#x != serial %#x", sc.name, k, got.TraceHash, serial.TraceHash)
			}
			if got.Completed != serial.Completed || got.Lost != serial.Lost || got.Errors != serial.Errors {
				t.Errorf("%s k=%d: counters diverged: %+v vs %+v", sc.name, k, got, serial)
			}
		}
	}
}

// TestChurnFailoverRuleConsistency: the failover re-route swaps
// netcl_fwd entries for the primary and standby ids in one WriteBatch.
// While a writer flips the swap back and forth, every two-packet burst
// (one probe per id) must observe a single table generation — the
// ports are always a consistent pair, never both pointing the same
// way. Run under -race this also exercises the publication path.
func TestChurnFailoverRuleConsistency(t *testing.T) {
	// A transit switch from the failover fabric: neither probe id is
	// local, so both packets take the netcl_fwd path.
	prog, specs, _, err := CompileApp(hierAggApp(aggNode{fanin: 4, parent: 50}, 8), passes.TargetTNA, 10)
	if err != nil {
		t.Fatal(err)
	}
	spec := specs[1]
	sw := bmv2.New(prog)
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}

	fwd := func(key uint64, port int) *p4.Entry {
		return &p4.Entry{
			Keys:   []p4.KeyValue{{Value: key, PrefixLen: -1}},
			Action: &p4.ActionCall{Name: "set_port", Args: []uint64{uint64(port)}},
		}
	}
	const pA, pB = 2, 3
	seed := bmv2.NewWriteBatch().
		Insert("netcl_fwd", fwd(50, pA)).
		Insert("netcl_fwd", fwd(51, pB))
	if _, err := sw.Write(seed); err != nil {
		t.Fatal(err)
	}

	probe := func(dev uint16) []byte {
		msg, err := runtime.Pack(spec,
			runtime.Message{Src: 0x100, Dst: 0x200, Device: dev, Comp: 1}.Header(),
			[][]uint64{{0}, {1}, {0}, make([]uint64, fabricSlotSize)})
		if err != nil {
			t.Fatal(err)
		}
		return runtime.Frame(msg, 0x100, 0x200)
	}
	t50, t51 := probe(50), probe(51)

	const flips = 1500
	done := make(chan struct{})
	var writerErr error
	go func() {
		defer close(done)
		for g := 0; g < flips; g++ {
			a, b := pA, pB
			if g%2 == 0 {
				a, b = pB, pA
			}
			batch := bmv2.NewWriteBatch().
				Modify("netcl_fwd", fwd(50, a)).
				Modify("netcl_fwd", fwd(51, b))
			if _, err := sw.Write(batch); err != nil {
				writerErr = err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	var mixed, readerErrs atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkts := make([][]byte, 2)
			ports := []int{1, 1}
			res := make([]bmv2.Result, 2)
			errs := make([]error, 2)
			for {
				select {
				case <-done:
					return
				default:
				}
				pkts[0] = append(pkts[0][:0], t50...)
				pkts[1] = append(pkts[1][:0], t51...)
				sw.ProcessBurst(pkts, ports, res, errs)
				if errs[0] != nil || errs[1] != nil {
					readerErrs.Add(1)
					return
				}
				ok := (res[0].Port == pA && res[1].Port == pB) ||
					(res[0].Port == pB && res[1].Port == pA)
				if !ok {
					mixed.Add(1)
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	if n := readerErrs.Load(); n != 0 {
		t.Fatalf("%d reader bursts errored", n)
	}
	if n := mixed.Load(); n != 0 {
		t.Fatalf("%d bursts observed a mixed-generation forwarding swap", n)
	}
}
