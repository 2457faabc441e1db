package bmv2

// burst_test.go pins the burst execution path (machine.go
// processBurst, sharded.go worker drain) to the single-packet path:
// byte-identical results, identical error behavior, identical counter
// totals, and the ≤1 allocation/packet budget that makes bursting a
// pure win. Packet streams include seeded garbage and truncations so
// the error paths inside a burst are exercised, and results fold into
// an FNV-1a hash chain so any divergence anywhere in the stream
// changes the final digest.

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"netcl/internal/p4"
)

// chainResult folds one packet's outcome into the hash chain.
func chainResult(h64 interface{ Write([]byte) (int, error) }, res *Result, err error) {
	if err != nil {
		h64.Write([]byte{0xEE})
		return
	}
	h64.Write([]byte{
		byte(res.Port >> 8), byte(res.Port),
		byte(res.Mcast >> 8), byte(res.Mcast),
	})
	if res.Dropped {
		h64.Write([]byte{0xDD})
	}
	h64.Write(res.Data)
}

// chaosStream builds a packet stream of valid matcher packets salted
// with truncated and garbage datagrams.
func chaosStream(rng *rand.Rand, n int) [][]byte {
	pkts := make([][]byte, n)
	for i := range pkts {
		switch rng.Intn(8) {
		case 0: // truncated: parse must fail identically in both modes
			pkts[i] = matcherPkt(uint8(rng.Intn(5)), rng.Uint32(), 0)[:rng.Intn(11)]
		case 1: // garbage bytes of header size
			b := make([]byte, 11+rng.Intn(16))
			rng.Read(b)
			pkts[i] = b
		default:
			pkts[i] = matcherPkt(uint8(1+rng.Intn(4)), rng.Uint32(), uint16(rng.Intn(1<<16)))
		}
	}
	return pkts
}

// TestBurstMatchesSingle: the same chaos stream processed packet-at-a-
// time and in random-size bursts (including > MaxBurst, exercising the
// chunk loop) must produce identical hash chains and counters.
func TestBurstMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(0xb0b))
	ents := randMatcherEntries(rng)
	single := New(matcherProg(ents))
	burst := New(matcherProg(ents))
	if single.CompileErr() != nil || burst.CompileErr() != nil {
		t.Fatalf("not compiled: %v", single.CompileErr())
	}

	stream := chaosStream(rng, 4096)
	ports := make([]int, len(stream))
	for i := range ports {
		ports[i] = rng.Intn(4)
	}

	h1 := fnv.New64a()
	for i, pkt := range stream {
		res, err := single.Process(pkt, ports[i])
		chainResult(h1, res, err)
	}

	h2 := fnv.New64a()
	res := make([]Result, 40)
	errs := make([]error, 40)
	mutated := false
	for off := 0; off < len(stream); {
		n := 1 + rng.Intn(40) // sizes above MaxBurst hit the chunk loop
		if off+n > len(stream) {
			n = len(stream) - off
		}
		burst.ProcessBurst(stream[off:off+n], ports[off:off+n], res[:n], errs[:n])
		for i := 0; i < n; i++ {
			r := res[i]
			chainResult(h2, &r, errs[i])
		}
		off += n
		if !mutated && off > len(stream)/2 {
			// A mid-stream control-plane write must not perturb the
			// data path: the inserted entry can never match (empty
			// range), so outputs stay comparable, but the insert still
			// forces a diagram rebuild under live bursts.
			mutated = true
			if _, err := burst.Write(NewWriteBatch().Insert("rng1", entry("set_out", 9999, 0,
				p4.KeyValue{Value: 5, Hi: 1}))); err != nil {
				t.Fatal(err)
			}
		}
	}

	if h1.Sum64() != h2.Sum64() {
		t.Fatalf("burst processing diverged from single-packet: %x vs %x", h1.Sum64(), h2.Sum64())
	}
	if single.PacketsIn != burst.PacketsIn || single.PacketsOut != burst.PacketsOut ||
		single.PacketsDropped != burst.PacketsDropped {
		t.Fatalf("counter mismatch: single in/out/drop %d/%d/%d, burst %d/%d/%d",
			single.PacketsIn, single.PacketsOut, single.PacketsDropped,
			burst.PacketsIn, burst.PacketsOut, burst.PacketsDropped)
	}
}

// portEchoProg writes meta.ingress_port into the packet, making the
// ingress port observable in the output bytes.
func portEchoProg() *p4.Program {
	pp := matcherProg(nil)
	pp.Metadata = append(pp.Metadata, &p4.Field{Name: "ingress_port", Bits: 16})
	pp.Ingress.Apply = []p4.Stmt{
		&p4.Assign{LHS: p4.FR("hdr", "h", "out"), RHS: p4.FR("meta", "ingress_port")},
		&p4.Assign{LHS: p4.FR("meta", "egress_port"), RHS: &p4.IntLit{Val: 9, Bits: 16}},
	}
	return pp
}

// TestIngressPortVisible: the engine and the reference interpreter
// must expose the same meta.ingress_port to the program — the engine
// used to silently drop it. Covers Process, ProcessBurst, and the
// sharded SubmitPort path.
func TestIngressPortVisible(t *testing.T) {
	comp := New(portEchoProg())
	if comp.CompileErr() != nil {
		t.Fatalf("not compiled: %v", comp.CompileErr())
	}
	ref := NewReference(New(portEchoProg()))

	for _, port := range []int{0, 1, 7, 300, 65535} {
		for name, process := range map[string]func([]byte, int) (*Result, error){
			"engine": comp.Process, "reference": ref.Process,
		} {
			res, err := process(matcherPkt(1, 0, 0), port)
			if err != nil {
				t.Fatal(err)
			}
			if got := matcherOut(t, res); got != uint32(port) {
				t.Fatalf("%s: port %d echoed as %d", name, port, got)
			}
		}
	}

	// Burst path: per-packet ports, not one port for the burst.
	pkts := [][]byte{matcherPkt(1, 0, 0), matcherPkt(1, 0, 0), matcherPkt(1, 0, 0)}
	ports := []int{3, 1, 4}
	res := make([]Result, 3)
	errs := make([]error, 3)
	comp.ProcessBurst(pkts, ports, res, errs)
	for i := range pkts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got := matcherOut(t, &res[i]); got != uint32(ports[i]) {
			t.Fatalf("burst pkt %d: port %d echoed as %d", i, ports[i], got)
		}
	}

	// Sharded path: SubmitPort must carry the port to the worker.
	sh, err := NewSharded(New(portEchoProg()), ShardedConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	got := make(chan uint32, 64)
	for i := 0; i < 64; i++ {
		port := i % 5
		for !sh.SubmitPort(matcherPkt(1, uint32(i), 0), port, func(r *Result, err error) {
			if err != nil {
				t.Error(err)
				got <- 0xFFFF_FFFF
				return
			}
			got <- matcherOut(t, r)
		}) {
		}
	}
	sh.Drain()
	seen := map[uint32]int{}
	for i := 0; i < 64; i++ {
		seen[<-got]++
	}
	for p := 0; p < 5; p++ {
		want := 64/5 + b2i(p < 64%5)
		if seen[uint32(p)] != want {
			t.Fatalf("port %d echoed %d times, want %d (all: %v)", p, seen[uint32(p)], want, seen)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestShardedBurstEquivalence: a sharded engine with burst draining
// enabled must agree packet-for-packet with the inline compiled
// engine. Flow-keyed submission keeps per-flow order deterministic, so
// outputs are comparable flow by flow.
func TestShardedBurstEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5a5a))
	ents := randMatcherEntries(rng)

	inline := New(matcherProg(ents))
	shSw := New(matcherProg(ents))
	sh, err := NewSharded(shSw, ShardedConfig{
		Shards: 4,
		// Flow identity: the full match key, so identical packets
		// serialize and per-flow results are comparable.
		FlowKey: func(pkt []byte) uint64 {
			var k uint64
			for _, b := range pkt {
				k = k<<8 | uint64(b)
			}
			return k
		},
		Burst: MaxBurst,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	type outcome struct {
		port int
		data string
		err  bool
	}
	flows := make([][]byte, 64)
	for i := range flows {
		flows[i] = matcherPkt(uint8(1+rng.Intn(4)), rng.Uint32(), uint16(rng.Intn(1<<16)))
	}
	want := make([]outcome, len(flows))
	for i, pkt := range flows {
		res, err := inline.Process(pkt, 1)
		if err != nil {
			want[i] = outcome{err: true}
			continue
		}
		want[i] = outcome{port: res.Port, data: string(res.Data)}
	}

	gotCh := make(chan [2]int, len(flows)*8) // (flow, ok)
	gotOut := make([]outcome, len(flows))
	var submitted int
	for rep := 0; rep < 8; rep++ {
		for i, pkt := range flows {
			i := i
			for !sh.SubmitPort(pkt, 1, func(r *Result, err error) {
				if err != nil {
					gotOut[i] = outcome{err: true}
				} else {
					gotOut[i] = outcome{port: r.Port, data: string(r.Data)}
				}
				gotCh <- [2]int{i, 1}
			}) {
			}
			submitted++
		}
	}
	sh.Drain()
	for n := 0; n < submitted; n++ {
		<-gotCh
	}
	for i := range flows {
		if gotOut[i] != want[i] {
			t.Fatalf("flow %d: sharded burst %+v, inline %+v", i, gotOut[i], want[i])
		}
	}
	if got := sh.Stats().Processed; got != uint64(submitted) {
		t.Fatalf("processed %d, submitted %d", got, submitted)
	}
}

// TestCompiledBurstAllocs pins the burst-mode allocation budget: at
// most one allocation per packet (the escaping deparse buffer).
func TestCompiledBurstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime perturbs allocation accounting")
	}
	rng := rand.New(rand.NewSource(7))
	ents := randMatcherEntries(rng)
	sw := New(matcherProg(ents))
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}
	pkts := make([][]byte, MaxBurst)
	ports := make([]int, MaxBurst)
	for i := range pkts {
		pkts[i] = matcherPkt(uint8(1+i%4), rng.Uint32(), uint16(rng.Intn(1<<16)))
	}
	res := make([]Result, MaxBurst)
	errs := make([]error, MaxBurst)
	sw.ProcessBurst(pkts, ports, res, errs) // warm the machine pool
	avg := testing.AllocsPerRun(200, func() {
		sw.ProcessBurst(pkts, ports, res, errs)
	})
	perPkt := avg / MaxBurst
	if perPkt > 1.0 {
		t.Fatalf("burst mode allocates %.2f/packet, budget is 1 (deparse buffer)", perPkt)
	}
}

// TestDropKeepsDeparseBuffer: a dropped packet leaves Result.Data
// empty with its capacity kept, so the next forwarded packet through
// the same Result deparses into that buffer without allocating, in
// ProcessInto and in ProcessBurst alike.
func TestDropKeepsDeparseBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime perturbs allocation accounting")
	}
	pp := prog()
	pp.Ingress.Apply = append(pp.Ingress.Apply, &p4.If{
		Cond: &p4.Bin{Op: "==", X: p4.FR("hdr", "h", "tag"), Y: &p4.IntLit{Val: 5, Bits: 8}},
		Then: []p4.Stmt{&p4.Assign{LHS: p4.FR("meta", "drop_flag"), RHS: &p4.IntLit{Val: 1, Bits: 1}}},
	})
	sw := New(pp)
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}
	drop, fwd := [][]byte{mkPkt(5, 10)}, [][]byte{mkPkt(1, 10)}
	res, errs := []Result{{Data: make([]byte, 0, 64)}}, make([]error, 1)
	check := func(what string, dropped bool) {
		if errs[0] != nil || res[0].Dropped != dropped || (dropped && len(res[0].Data) != 0) || cap(res[0].Data) != 64 {
			t.Fatalf("%s: %+v, %v", what, res[0], errs[0])
		}
	}
	into := testing.AllocsPerRun(100, func() {
		errs[0] = sw.ProcessInto(drop[0], 0, &res[0])
		check("ProcessInto drop", true)
		errs[0] = sw.ProcessInto(fwd[0], 0, &res[0])
		check("ProcessInto forward", false)
	})
	burst := testing.AllocsPerRun(100, func() {
		sw.ProcessBurst(drop, nil, res, errs)
		check("ProcessBurst drop", true)
		sw.ProcessBurst(fwd, nil, res, errs)
		check("ProcessBurst forward", false)
	})
	if into != 0 || burst != 0 {
		t.Errorf("a drop then a forward allocates %.1f (ProcessInto) and %.1f (ProcessBurst), want 0", into, burst)
	}
}
