package bmv2

import (
	"runtime"
	"sync"
	"testing"

	"netcl/internal/p4"
)

// shardProg builds a small stateful program: a per-flow accumulator
// register driven by a register action, plus an exact-match forwarding
// table — the shape of every NetCL app (stateful slot + MAT dispatch).
func shardProg() *p4.Program {
	pp := &p4.Program{Name: "s", Target: p4.TargetTNA}
	pp.Headers = []*p4.HeaderDecl{{Name: "h", Fields: []*p4.Field{
		{Name: "flow", Bits: 16},
		{Name: "seq", Bits: 16},
		{Name: "delta", Bits: 32},
		{Name: "out", Bits: 32},
	}}}
	pp.Metadata = []*p4.Field{
		{Name: "egress_port", Bits: 16}, {Name: "mcast_grp", Bits: 16}, {Name: "drop_flag", Bits: 1},
	}
	pp.Parser = &p4.Parser{Name: "P", States: []*p4.ParserState{
		{Name: "start", Extracts: []string{"h"}, Next: "accept"},
	}}
	ctl := &p4.Control{Name: "In"}
	ctl.Registers = []*p4.Register{{Name: "acc", Bits: 32, Size: 1 << 10}}
	ctl.RegActs = []*p4.RegisterAction{{
		Name: "accum", Register: "acc",
		Body: []p4.Stmt{
			&p4.Assign{LHS: p4.FR("m"), RHS: &p4.Bin{Op: "+", X: p4.FR("m"), Y: p4.FR("hdr", "h", "delta")}},
			&p4.Assign{LHS: p4.FR("o"), RHS: p4.FR("m")},
		},
	}}
	ctl.Actions = []*p4.ActionDecl{
		{Name: "set_port", Params: []*p4.Field{{Name: "p", Bits: 16}},
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("meta", "egress_port"), RHS: p4.FR("p")}}},
	}
	ctl.Tables = []*p4.Table{{
		Name:    "fwd",
		Keys:    []*p4.TableKey{{Expr: p4.FR("hdr", "h", "flow"), Match: p4.MatchExact}},
		Actions: []string{"set_port"},
		Default: &p4.ActionCall{Name: "set_port", Args: []uint64{9}},
	}}
	ctl.Apply = []p4.Stmt{
		&p4.Assign{LHS: p4.FR("hdr", "h", "out"),
			RHS: &p4.CallExpr{Recv: "accum", Method: "execute",
				Args: []p4.Expr{&p4.Cast{Bits: 32, X: p4.FR("hdr", "h", "flow")}}}},
		&p4.ApplyTable{Table: "fwd"},
	}
	pp.Ingress = ctl
	return pp
}

func shardPkt(flow, seq uint16, delta uint32) []byte {
	return []byte{
		byte(flow >> 8), byte(flow),
		byte(seq >> 8), byte(seq),
		byte(delta >> 24), byte(delta >> 16), byte(delta >> 8), byte(delta),
		0, 0, 0, 0,
	}
}

func shardFlowKey(pkt []byte) uint64 {
	return uint64(pkt[0])<<8 | uint64(pkt[1])
}

// resultHash folds one processing outcome into a flow's running hash
// chain (FNV-1a over the result bytes and egress decision).
func resultHash(h uint64, res *Result, err error) uint64 {
	const prime = 1099511628211
	step := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	if err != nil {
		step(0xEE)
		return h
	}
	for _, b := range res.Data {
		step(b)
	}
	step(byte(res.Port))
	step(byte(res.Port >> 8))
	step(byte(res.Mcast))
	if res.Dropped {
		step(1)
	}
	if res.NoMatch {
		step(2)
	}
	return h
}

// TestShardedPerFlowDeterminism: interleaved flows on 4 shards must
// produce, per flow, byte-identical results to a fresh single-shard
// run of the same per-flow packet sequence.
func TestShardedPerFlowDeterminism(t *testing.T) {
	const flows, perFlow = 32, 64
	sw := New(shardProg())
	if sw.CompileErr() != nil {
		t.Fatalf("compile refused: %v", sw.CompileErr())
	}
	sh, err := NewSharded(sw, ShardedConfig{Shards: 4, QueueDepth: 16, FlowKey: shardFlowKey})
	if err != nil {
		t.Fatal(err)
	}

	hashes := make([]uint64, flows) // hashes[f] written only by f's shard
	var pkts [][]byte
	for seq := 0; seq < perFlow; seq++ {
		for f := 0; f < flows; f++ {
			pkts = append(pkts, shardPkt(uint16(f), uint16(seq), uint32(f*1000+seq)))
		}
	}
	for _, pkt := range pkts {
		f := shardFlowKey(pkt)
		cb := func(res *Result, err error) { hashes[f] = resultHash(hashes[f], res, err) }
		for !sh.Submit(pkt, cb) {
			runtime.Gosched() // closed-loop test: retry on backpressure
		}
	}
	sh.Drain()

	// Replay the same per-flow sequences on a fresh single-shard
	// switch: flows are disjoint in register state, so flow-major
	// order reproduces what each flow observed.
	ref := New(shardProg())
	want := make([]uint64, flows)
	for f := 0; f < flows; f++ {
		for seq := 0; seq < perFlow; seq++ {
			res, err := ref.Process(shardPkt(uint16(f), uint16(seq), uint32(f*1000+seq)), 0)
			want[f] = resultHash(want[f], res, err)
		}
	}
	for f := 0; f < flows; f++ {
		if hashes[f] != want[f] {
			t.Errorf("flow %d: sharded hash %x != single-shard hash %x", f, hashes[f], want[f])
		}
	}

	// Register state must agree cell by cell too.
	for f := 0; f < flows; f++ {
		got, err := sh.RegisterRead("acc", f)
		if err != nil {
			t.Fatal(err)
		}
		wantV, err := ref.RegisterRead("acc", f)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantV {
			t.Errorf("acc[%d] = %d, want %d", f, got, wantV)
		}
	}

	st := sh.Stats()
	if st.Processed != uint64(len(pkts)) {
		t.Errorf("processed %d packets, submitted %d", st.Processed, len(pkts))
	}
	sh.Close()
}

// TestShardedConcurrentControlPlane hammers every control-plane
// mutation against in-flight packet processing: run under -race, this
// is the proof that table RCU snapshots and register quiescing keep
// the engine data-race-free.
func TestShardedConcurrentControlPlane(t *testing.T) {
	sw := New(shardProg())
	sh, err := NewSharded(sw, ShardedConfig{Shards: 4, QueueDepth: 32, FlowKey: shardFlowKey})
	if err != nil {
		t.Fatal(err)
	}

	const producers, perProducer = 3, 400
	var submitted uint64
	var wg sync.WaitGroup
	var mu sync.Mutex // guards submitted across producers
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			n := uint64(0)
			for i := 0; i < perProducer; i++ {
				// Each producer owns a disjoint flow range, so per-flow
				// FIFO submission order is well defined.
				pkt := shardPkt(uint16(p*100+i%50), uint16(i), uint32(i))
				for !sh.Submit(pkt, nil) {
					runtime.Gosched()
				}
				n++
			}
			mu.Lock()
			submitted += n
			mu.Unlock()
		}(p)
	}

	// Control-plane hammer: register reads/writes (quiesced), table
	// insert/delete and default changes (RCU), interleaved with the
	// producers above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			flow := uint64(i % 50)
			if err := sh.InsertEntry("fwd", &p4.Entry{
				Keys:   []p4.KeyValue{{Value: flow, PrefixLen: -1}},
				Action: &p4.ActionCall{Name: "set_port", Args: []uint64{flow + 1}},
			}); err != nil {
				t.Error(err)
				return
			}
			if _, err := sh.RegisterRead("acc", int(flow)); err != nil {
				t.Error(err)
				return
			}
			if err := sh.RegisterWrite("acc", 900+i%10, uint64(i)); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				sh.DeleteEntry("fwd", flow)
			}
			if i%7 == 0 {
				if err := sh.SetDefaultAction("fwd", "set_port", []uint64{uint64(7 + i%2)}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	wg.Wait()
	sh.Drain()
	st := sh.Stats()
	if st.Processed != submitted {
		t.Errorf("processed %d != submitted %d", st.Processed, submitted)
	}
	if got := sw.PacketsIn; got != submitted {
		t.Errorf("switch counted %d packets in, want %d", got, submitted)
	}
	sh.Close()
}

// TestShardedBackpressure: a full shard queue makes Submit fail fast
// and count the rejection.
func TestShardedBackpressure(t *testing.T) {
	sw := New(shardProg())
	sh, err := NewSharded(sw, ShardedConfig{Shards: 1, QueueDepth: 1, FlowKey: shardFlowKey})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	blocker := func(*Result, error) {
		once.Do(func() { close(entered) })
		<-gate
	}
	for !sh.Submit(shardPkt(1, 0, 1), blocker) {
		runtime.Gosched()
	}
	<-entered // worker is parked in the callback
	// Fill the 1-deep queue, then observe rejection.
	for !sh.Submit(shardPkt(1, 1, 1), nil) {
		runtime.Gosched()
	}
	rejected := false
	for i := 0; i < 100 && !rejected; i++ {
		rejected = !sh.Submit(shardPkt(1, 2, 1), nil)
	}
	if !rejected {
		t.Error("Submit never reported backpressure on a full queue")
	}
	close(gate)
	sh.Drain()
	if st := sh.Stats(); st.QueueFull == 0 {
		t.Error("queue-full counter not incremented")
	}
	sh.Close()
}
