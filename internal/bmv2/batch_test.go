package bmv2

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcl/internal/p4"
)

func kv(v uint64) p4.KeyValue { return p4.KeyValue{Value: v, PrefixLen: -1} }

// deleteEntry applies a one-op delete batch and returns how many
// entries it removed.
func deleteEntry(t testing.TB, sw *Switch, table string, keys ...uint64) int {
	t.Helper()
	res, err := sw.Write(NewWriteBatch().Delete(table, keys...))
	if err != nil {
		t.Fatal(err)
	}
	return res.Removed[0]
}

// matcherProgReg is matcherProg plus a control-plane register, so batch
// tests can mix table ops with register writes.
func matcherProgReg(entries map[string][]*p4.Entry) *p4.Program {
	pp := matcherProg(entries)
	pp.Ingress.Registers = append(pp.Ingress.Registers,
		&p4.Register{Name: "r0", Bits: 32, Size: 8})
	return pp
}

// TestBatchRollback: a batch that fails mid-way must leave every kind
// of staged state untouched — entries, registers, and default actions —
// and name the failing op.
func TestBatchRollback(t *testing.T) {
	ents := map[string][]*p4.Entry{"ex2": {
		entry("set_out", 100, 0, kv(1), kv(2)),
	}}
	sw := New(matcherProgReg(ents))
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}

	b := NewWriteBatch().
		Insert("ex2", entry("set_out", 300, 0, kv(7), kv(8))).
		RegisterWrite("r0", 2, 42).
		SetDefault("ex2", "set_out", []uint64{555}).
		Delete("ex2", 1, 2).
		Insert("no_such_table", entry("set_out", 1, 0, kv(9), kv(9)))
	_, err := sw.Write(b)
	if err == nil {
		t.Fatal("batch with unknown table must fail")
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 4 {
		t.Fatalf("want BatchError index 4, got %v", err)
	}

	// Entry store rolled back: the staged insert is gone, the staged
	// delete undone.
	if got := sw.Entries("ex2"); len(got) != 1 || got[0].Action.Args[0] != 100 {
		t.Fatalf("entries after rollback: %+v", got)
	}
	// Register write never applied.
	if v, err := sw.RegisterRead("r0", 2); err != nil || v != 0 {
		t.Fatalf("register leaked through rollback: %d %v", v, err)
	}
	// Published snapshot unchanged: old entry hits, staged insert and
	// default are invisible.
	res, err := sw.Process(matcherPkt(1, 1, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := matcherOut(t, res); got != 100 {
		t.Errorf("old entry lost: out=%d", got)
	}
	res, err = sw.Process(matcherPkt(1, 7, 8), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := matcherOut(t, res); got != 0xFFFF_FFFF {
		t.Errorf("rolled-back insert visible: out=%d", got)
	}
	res, err = sw.Process(matcherPkt(1, 50, 50), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := matcherOut(t, res); got != 0xFFFF_FFFF {
		t.Errorf("rolled-back default visible: out=%d", got)
	}
}

// TestBatchModify: Modify replaces the full-tuple binding in place and
// errors (aborting the batch) when no entry matches.
func TestBatchModify(t *testing.T) {
	ents := map[string][]*p4.Entry{"ex2": {
		entry("set_out", 100, 0, kv(1), kv(2)),
		entry("set_out", 200, 0, kv(1), kv(3)),
	}}
	sw := New(matcherProgReg(ents))
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}

	res, err := sw.Write(NewWriteBatch().
		Modify("ex2", entry("set_out", 111, 0, kv(1), kv(2))))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 1 || res.Removed[0] != 1 {
		t.Fatalf("modify removed counts: %v", res.Removed)
	}
	out, err := sw.Process(matcherPkt(1, 1, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := matcherOut(t, out); got != 111 {
		t.Errorf("modify not visible: out=%d", got)
	}
	if got := sw.Entries("ex2"); len(got) != 2 {
		t.Fatalf("modify changed entry count: %+v", got)
	}

	// Modify of an absent tuple is an error, and because it rides in a
	// batch the preceding insert is rolled back with it.
	_, err = sw.Write(NewWriteBatch().
		Insert("ex2", entry("set_out", 300, 0, kv(7), kv(8))).
		Modify("ex2", entry("set_out", 1, 0, kv(40), kv(40))))
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("want BatchError index 1, got %v", err)
	}
	if got := sw.Entries("ex2"); len(got) != 2 {
		t.Fatalf("failed modify leaked insert: %+v", got)
	}
}

// TestBatchRegisterCombining: duplicate register cells in one batch
// collapse to a single op (last value wins), and the surviving value is
// what commits.
func TestBatchRegisterCombining(t *testing.T) {
	sw := New(matcherProgReg(nil))
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}
	b := NewWriteBatch()
	for v := uint64(1); v <= 100; v++ {
		b.RegisterWrite("r0", 3, v)
	}
	b.RegisterWrite("r0", 4, 7)
	if b.Len() != 2 {
		t.Fatalf("write-combining failed: %d ops", b.Len())
	}
	if _, err := sw.Write(b); err != nil {
		t.Fatal(err)
	}
	if v, _ := sw.RegisterRead("r0", 3); v != 100 {
		t.Errorf("combined cell: %d want 100", v)
	}
	if v, _ := sw.RegisterRead("r0", 4); v != 7 {
		t.Errorf("other cell: %d want 7", v)
	}
}

// pairProg applies two single-key exact tables to every packet; the
// atomicity test keeps their entries in lockstep and readers check the
// two outputs always agree.
func pairProg() *p4.Program {
	pp := &p4.Program{Name: "pair", Target: p4.TargetTNA}
	pp.Headers = []*p4.HeaderDecl{{Name: "h", Fields: []*p4.Field{
		{Name: "k", Bits: 32},
		{Name: "o1", Bits: 32},
		{Name: "o2", Bits: 32},
	}}}
	pp.Metadata = []*p4.Field{
		{Name: "egress_port", Bits: 16}, {Name: "mcast_grp", Bits: 16}, {Name: "drop_flag", Bits: 1},
	}
	pp.Parser = &p4.Parser{Name: "P", States: []*p4.ParserState{
		{Name: "start", Extracts: []string{"h"}, Next: "accept"},
	}}
	ctl := &p4.Control{Name: "In"}
	ctl.Actions = []*p4.ActionDecl{
		{Name: "set_o1", Params: []*p4.Field{{Name: "v", Bits: 32}},
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "h", "o1"), RHS: p4.FR("v")}}},
		{Name: "set_o2", Params: []*p4.Field{{Name: "v", Bits: 32}},
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "h", "o2"), RHS: p4.FR("v")}}},
		{Name: "zero_o1",
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "h", "o1"), RHS: &p4.IntLit{Val: 0, Bits: 32}}}},
		{Name: "zero_o2",
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "h", "o2"), RHS: &p4.IntLit{Val: 0, Bits: 32}}}},
	}
	k := p4.FR("hdr", "h", "k")
	ctl.Tables = []*p4.Table{
		{Name: "ta", Keys: []*p4.TableKey{{Expr: k, Match: p4.MatchExact}},
			Actions: []string{"set_o1", "zero_o1"}, Default: &p4.ActionCall{Name: "zero_o1"}},
		{Name: "tb", Keys: []*p4.TableKey{{Expr: k, Match: p4.MatchExact}},
			Actions: []string{"set_o2", "zero_o2"}, Default: &p4.ActionCall{Name: "zero_o2"}},
	}
	ctl.Apply = []p4.Stmt{
		&p4.ApplyTable{Table: "ta"},
		&p4.ApplyTable{Table: "tb"},
		&p4.Assign{LHS: p4.FR("meta", "egress_port"), RHS: &p4.IntLit{Val: 1, Bits: 16}},
	}
	pp.Ingress = ctl
	return pp
}

// TestBatchAtomicity: while a writer commits batches that update two
// tables in lockstep, concurrent readers must always observe both
// updates or neither — never a mix of generations. Run under -race
// this also exercises the publication path for data races.
func TestBatchAtomicity(t *testing.T) {
	sw := New(pairProg())
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}
	seed := NewWriteBatch().
		Insert("ta", entry("set_o1", 0, 0, kv(1))).
		Insert("tb", entry("set_o2", 0, 0, kv(1)))
	if _, err := sw.Write(seed); err != nil {
		t.Fatal(err)
	}

	const gens = 2000
	done := make(chan struct{})
	var writerErr error
	go func() {
		defer close(done)
		for g := uint64(1); g <= gens; g++ {
			b := NewWriteBatch().
				Modify("ta", entry("set_o1", g, 0, kv(1))).
				Modify("tb", entry("set_o2", g, 0, kv(1)))
			if _, err := sw.Write(b); err != nil {
				writerErr = err
				return
			}
		}
	}()

	pkt := []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	var wg sync.WaitGroup
	var mixed, readerErrs atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := sw.Process(pkt, 0)
				if err != nil {
					readerErrs.Add(1)
					return
				}
				o1 := binary.BigEndian.Uint32(res.Data[4:8])
				o2 := binary.BigEndian.Uint32(res.Data[8:12])
				if o1 != o2 {
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
		t.Fatalf("%d readers errored", n)
	}
	if n := mixed.Load(); n != 0 {
		t.Fatalf("%d readers observed a half-applied batch", n)
	}
	// Final state: both tables on the last generation.
	res, err := sw.Process(pkt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if o1 := binary.BigEndian.Uint32(res.Data[4:8]); o1 != gens {
		t.Errorf("final generation: %d want %d", o1, gens)
	}
}

// TestBatchODeltaGuard: the cost of a one-entry update must not scale
// with table size. A 100k-entry table may cost at most a small constant
// factor over a 2k-entry one per update (path-copying is O(depth), and
// HAMT depth grows by ~1 level); linear-rebuild behavior would show up
// as a ~50x ratio and fail loudly.
func TestBatchODeltaGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	perUpdate := func(n int) time.Duration {
		ents := make([]*p4.Entry, n)
		for i := range ents {
			ents[i] = entry("set_out", uint64(i), 0, kv(uint64(i)), kv(uint64(i&0xFFFF)))
		}
		sw := New(matcherProg(map[string][]*p4.Entry{"ex2": ents}))
		if sw.CompileErr() != nil {
			t.Fatalf("not compiled: %v", sw.CompileErr())
		}
		const updates = 2000
		// Warm up the modify path once before timing.
		if _, err := sw.Write(NewWriteBatch().
			Modify("ex2", entry("set_out", 1, 0, kv(0), kv(0)))); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < updates; i++ {
			b := NewWriteBatch().
				Modify("ex2", entry("set_out", uint64(i), 0, kv(0), kv(0)))
			if _, err := sw.Write(b); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start) / updates
	}
	small := perUpdate(2_048)
	big := perUpdate(100_000)
	ratio := float64(big) / float64(small)
	t.Logf("per-update: 2k=%v 100k=%v ratio=%.2f", small, big, ratio)
	if ratio > 10 {
		t.Fatalf("per-update cost scales with table size: 2k=%v 100k=%v (ratio %.1f)",
			small, big, ratio)
	}
}

// TestRegisterDrain: RegisterNames + ReadRegisters together form the
// state-drain half of a failover (churn scenarios snapshot a crashed
// switch through them), so pin enumeration order, full-array reads
// that see batched writes, snapshot isolation, and the unknown-name
// error.
func TestRegisterDrain(t *testing.T) {
	sw := New(matcherProgReg(nil))
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}

	names := sw.RegisterNames()
	if len(names) != 1 || names[0] != "r0" {
		t.Fatalf("RegisterNames = %v, want [r0]", names)
	}

	b := NewWriteBatch().
		RegisterWrite("r0", 0, 11).
		RegisterWrite("r0", 3, 44).
		RegisterWrite("r0", 7, 77)
	if _, err := sw.Write(b); err != nil {
		t.Fatal(err)
	}

	vals, err := sw.ReadRegisters("r0")
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{11, 0, 0, 44, 0, 0, 0, 77}
	if len(vals) != len(want) {
		t.Fatalf("ReadRegisters returned %d cells, want %d", len(vals), len(want))
	}
	for i, v := range vals {
		if v != want[i] {
			t.Errorf("r0[%d] = %d, want %d", i, v, want[i])
		}
	}

	// The returned slice is a snapshot, not a live view.
	if _, err := sw.Write(NewWriteBatch().RegisterWrite("r0", 0, 999)); err != nil {
		t.Fatal(err)
	}
	if vals[0] != 11 {
		t.Errorf("drained snapshot mutated: r0[0] = %d", vals[0])
	}

	if _, err := sw.ReadRegisters("no_such_reg"); err == nil {
		t.Error("ReadRegisters on unknown name did not error")
	}
}
