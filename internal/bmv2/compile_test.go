package bmv2

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"netcl/internal/p4"
)

// TestCompiledEngineSelected: the shared test program must compile
// (the rest of interp_test.go then exercises the engine, there being
// nothing else for it to run on).
func TestCompiledEngineSelected(t *testing.T) {
	if err := New(prog()).CompileErr(); err != nil {
		t.Fatalf("compile refused: %v", err)
	}
}

// matcherProg builds a program exercising both snapshot shapes: a
// two-key exact table (hash trie) and single-key LPM, ternary and
// range tables (entries + decision diagram, or the scan). The sel
// field picks the table; each action writes a distinct out value.
func matcherProg(entries map[string][]*p4.Entry) *p4.Program {
	pp := &p4.Program{Name: "m", Target: p4.TargetTNA}
	pp.Headers = []*p4.HeaderDecl{{Name: "h", Fields: []*p4.Field{
		{Name: "sel", Bits: 8},
		{Name: "k1", Bits: 32},
		{Name: "k2", Bits: 16},
		{Name: "out", Bits: 32},
	}}}
	pp.Metadata = []*p4.Field{
		{Name: "egress_port", Bits: 16}, {Name: "mcast_grp", Bits: 16}, {Name: "drop_flag", Bits: 1},
	}
	pp.Parser = &p4.Parser{Name: "P", States: []*p4.ParserState{
		{Name: "start", Extracts: []string{"h"}, Next: "accept"},
	}}
	ctl := &p4.Control{Name: "In"}
	ctl.Actions = []*p4.ActionDecl{
		{Name: "set_out", Params: []*p4.Field{{Name: "v", Bits: 32}},
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "h", "out"), RHS: p4.FR("v")}}},
		{Name: "miss_out",
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "h", "out"), RHS: &p4.IntLit{Val: 0xFFFF_FFFF, Bits: 32}}}},
	}
	k1 := p4.FR("hdr", "h", "k1")
	k2 := p4.FR("hdr", "h", "k2")
	ctl.Tables = []*p4.Table{
		{Name: "ex2", Keys: []*p4.TableKey{{Expr: k1, Match: p4.MatchExact}, {Expr: k2, Match: p4.MatchExact}},
			Actions: []string{"set_out", "miss_out"}, Default: &p4.ActionCall{Name: "miss_out"}, Entries: entries["ex2"]},
		{Name: "lpm1", Keys: []*p4.TableKey{{Expr: k1, Match: p4.MatchLPM}},
			Actions: []string{"set_out", "miss_out"}, Default: &p4.ActionCall{Name: "miss_out"}, Entries: entries["lpm1"]},
		{Name: "tern1", Keys: []*p4.TableKey{{Expr: k1, Match: p4.MatchTernary}},
			Actions: []string{"set_out", "miss_out"}, Default: &p4.ActionCall{Name: "miss_out"}, Entries: entries["tern1"]},
		{Name: "rng1", Keys: []*p4.TableKey{{Expr: k2, Match: p4.MatchRange}},
			Actions: []string{"set_out", "miss_out"}, Default: &p4.ActionCall{Name: "miss_out"}, Entries: entries["rng1"]},
	}
	sel := p4.FR("hdr", "h", "sel")
	eq := func(v uint64) p4.Expr { return &p4.Bin{Op: "==", X: sel, Y: &p4.IntLit{Val: v, Bits: 8}} }
	ctl.Apply = []p4.Stmt{
		&p4.If{Cond: eq(1), Then: []p4.Stmt{&p4.ApplyTable{Table: "ex2"}}},
		&p4.If{Cond: eq(2), Then: []p4.Stmt{&p4.ApplyTable{Table: "lpm1"}}},
		&p4.If{Cond: eq(3), Then: []p4.Stmt{&p4.ApplyTable{Table: "tern1"}}},
		&p4.If{Cond: eq(4), Then: []p4.Stmt{&p4.ApplyTable{Table: "rng1"}}},
		&p4.Assign{LHS: p4.FR("meta", "egress_port"), RHS: &p4.IntLit{Val: 9, Bits: 16}},
	}
	pp.Ingress = ctl
	return pp
}

func matcherPkt(sel uint8, k1 uint32, k2 uint16) []byte {
	return []byte{
		sel,
		byte(k1 >> 24), byte(k1 >> 16), byte(k1 >> 8), byte(k1),
		byte(k2 >> 8), byte(k2),
		0, 0, 0, 0,
	}
}

func matcherOut(t *testing.T, res *Result) uint32 {
	t.Helper()
	if len(res.Data) < 11 {
		t.Fatalf("short output: %d bytes", len(res.Data))
	}
	return uint32(res.Data[7])<<24 | uint32(res.Data[8])<<16 | uint32(res.Data[9])<<8 | uint32(res.Data[10])
}

func entry(action string, arg uint64, prio int, keys ...p4.KeyValue) *p4.Entry {
	return &p4.Entry{Keys: keys, Action: &p4.ActionCall{Name: action, Args: []uint64{arg}}, Priority: prio}
}

func TestExactIndexHitMiss(t *testing.T) {
	ents := map[string][]*p4.Entry{"ex2": {
		entry("set_out", 100, 0, p4.KeyValue{Value: 1, PrefixLen: -1}, p4.KeyValue{Value: 2, PrefixLen: -1}),
		entry("set_out", 200, 0, p4.KeyValue{Value: 1, PrefixLen: -1}, p4.KeyValue{Value: 3, PrefixLen: -1}),
		// Duplicate tuple: first-inserted must keep winning.
		entry("set_out", 999, 0, p4.KeyValue{Value: 1, PrefixLen: -1}, p4.KeyValue{Value: 2, PrefixLen: -1}),
		// Wrong arity: never matches.
		entry("set_out", 888, 0, p4.KeyValue{Value: 1, PrefixLen: -1}),
	}}
	sw := New(matcherProg(ents))
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}
	check := func(k1 uint32, k2 uint16, want uint32) {
		t.Helper()
		res, err := sw.Process(matcherPkt(1, k1, k2), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := matcherOut(t, res); got != want {
			t.Errorf("ex2(%d,%d): out=%d want %d", k1, k2, got, want)
		}
	}
	check(1, 2, 100) // hit, first of duplicate tuple
	check(1, 3, 200) // hit on full tuple
	check(2, 2, 0xFFFF_FFFF)
	check(1, 4, 0xFFFF_FFFF) // second key differs -> miss

	// Runtime insert must land in the hash index without a rebuild.
	if _, err := sw.Write(NewWriteBatch().Insert("ex2", entry("set_out", 300, 0,
		p4.KeyValue{Value: 7, PrefixLen: -1}, p4.KeyValue{Value: 8, PrefixLen: -1}))); err != nil {
		t.Fatal(err)
	}
	check(7, 8, 300)
	// Full-tuple delete must drop it again (and only it).
	if n := deleteEntry(t, sw, "ex2", 7, 8); n != 1 {
		t.Fatalf("delete removed %d", n)
	}
	check(7, 8, 0xFFFF_FFFF)
	check(1, 2, 100)
}

func TestDeleteEntryFullTuple(t *testing.T) {
	ents := map[string][]*p4.Entry{"ex2": {
		entry("set_out", 1, 0, p4.KeyValue{Value: 5, PrefixLen: -1}, p4.KeyValue{Value: 1, PrefixLen: -1}),
		entry("set_out", 2, 0, p4.KeyValue{Value: 5, PrefixLen: -1}, p4.KeyValue{Value: 2, PrefixLen: -1}),
	}}
	sw := New(matcherProg(ents))
	// A bare first-key delete must not wipe every entry sharing k1=5.
	if n := deleteEntry(t, sw, "ex2", 5); n != 0 {
		t.Errorf("first-key-only delete removed %d entries", n)
	}
	if n := deleteEntry(t, sw, "ex2", 5, 2); n != 1 {
		t.Errorf("tuple delete removed %d", n)
	}
	res, err := sw.Process(matcherPkt(1, 5, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := matcherOut(t, res); got != 1 {
		t.Errorf("surviving entry: out=%d", got)
	}
}

func TestLPMLongestPrefixTieBreak(t *testing.T) {
	ents := map[string][]*p4.Entry{"lpm1": {
		entry("set_out", 8, 0, p4.KeyValue{Value: 0x0A000000, PrefixLen: 8}),
		entry("set_out", 24, 0, p4.KeyValue{Value: 0x0A000100, PrefixLen: 24}),
		// Same prefix length as the /24: the earlier entry must win.
		entry("set_out", 25, 0, p4.KeyValue{Value: 0x0A000100, PrefixLen: 24}),
		entry("set_out", 0, 0, p4.KeyValue{Value: 0, PrefixLen: 0}),
		// Prefix longer than the 32-bit key: can never match.
		entry("set_out", 40, 0, p4.KeyValue{Value: 0x0A000100, PrefixLen: 40}),
	}}
	sw := New(matcherProg(ents))
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}
	check := func(k1 uint32, want uint32) {
		t.Helper()
		res, err := sw.Process(matcherPkt(2, k1, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := matcherOut(t, res); got != want {
			t.Errorf("lpm(%#x): out=%d want %d", k1, got, want)
		}
	}
	check(0x0A000105, 24) // /24 wins over /8 and /0; first of the tie
	check(0x0A000205, 8)  // /8 wins over /0
	check(0x0B000000, 0)  // only the default route matches
}

func TestTernaryPriorityOrdering(t *testing.T) {
	ents := map[string][]*p4.Entry{"tern1": {
		entry("set_out", 1, 5, p4.KeyValue{Value: 0x10, Mask: 0xF0}),
		entry("set_out", 2, 1, p4.KeyValue{Value: 0x12, Mask: 0xFF}),
		// A priority past 2^30 used to underflow the old sentinel and
		// lose to "nothing matched"; it must still beat a miss.
		entry("set_out", 3, 1<<31, p4.KeyValue{Value: 0x80, Mask: 0xFF}),
	}}
	sw := New(matcherProg(ents))
	check := func(k1 uint32, want uint32) {
		t.Helper()
		res, err := sw.Process(matcherPkt(3, k1, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := matcherOut(t, res); got != want {
			t.Errorf("tern(%#x): out=%d want %d", k1, got, want)
		}
	}
	check(0x12, 2) // both match; lower priority value wins
	check(0x15, 1)
	check(0x80, 3) // huge-priority entry must hit, not fall to default
	check(0x81, 0xFFFF_FFFF)
}

func TestRangeBounds(t *testing.T) {
	ents := map[string][]*p4.Entry{"rng1": {
		entry("set_out", 1, 1, p4.KeyValue{Value: 10, Hi: 20}),
		entry("set_out", 2, 0, p4.KeyValue{Value: 20, Hi: 30}),
	}}
	sw := New(matcherProg(ents))
	check := func(k2 uint16, want uint32) {
		t.Helper()
		res, err := sw.Process(matcherPkt(4, 0, k2), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := matcherOut(t, res); got != want {
			t.Errorf("range(%d): out=%d want %d", k2, got, want)
		}
	}
	check(9, 0xFFFF_FFFF) // below low bound
	check(10, 1)          // inclusive low
	check(20, 2)          // overlap: lower priority value wins
	check(30, 2)          // inclusive high
	check(31, 0xFFFF_FFFF)
}

// TestMatcherDifferentialFuzz drives random entries and keys through
// the engine's matchers and the reference interpreter, asserting
// byte-identical outputs, and holds each diagram to the scan over its
// own snapshot. Entries include wrong arity, duplicate tuples,
// out-of-range prefix lengths, overlapping masks and ranges, and
// extreme priorities. The ternary masks sit in the low byte of a
// 32-bit key, and one more rule, which no probe hits, tests the high
// byte: its 8 bits are free inside the root's care for every other
// rule, so tern1 is the table that runs on the scan here.
func TestMatcherDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0FFEE))
	kv := func(v uint64) p4.KeyValue { return p4.KeyValue{Value: v, PrefixLen: -1} }
	for trial := 0; trial < 20; trial++ {
		ents := map[string][]*p4.Entry{}
		for i := 0; i < 12; i++ {
			e := entry("set_out", uint64(1000+i), 0, kv(uint64(rng.Intn(8))), kv(uint64(rng.Intn(4))))
			if rng.Intn(6) == 0 {
				e.Keys = e.Keys[:1] // wrong arity
			}
			ents["ex2"] = append(ents["ex2"], e)
		}
		for i := 0; i < 12; i++ {
			plen := rng.Intn(41) // includes > key width
			ents["lpm1"] = append(ents["lpm1"],
				entry("set_out", uint64(2000+i), 0, p4.KeyValue{Value: uint64(rng.Uint32()), PrefixLen: plen}))
		}
		for i := 0; i < 12; i++ {
			prio := rng.Intn(8)
			if rng.Intn(5) == 0 {
				prio = 1<<30 + rng.Intn(1<<10)
			}
			ents["tern1"] = append(ents["tern1"],
				entry("set_out", uint64(3000+i), prio,
					p4.KeyValue{Value: uint64(rng.Intn(64)), Mask: uint64(rng.Intn(256))}))
		}
		ents["tern1"] = append(ents["tern1"], entry("set_out", 3999, 0, p4.KeyValue{Value: 0xA5 << 24, Mask: 0xFF << 24}))
		for i := 0; i < 12; i++ {
			lo := uint64(rng.Intn(64))
			ents["rng1"] = append(ents["rng1"],
				entry("set_out", uint64(4000+i), rng.Intn(8),
					p4.KeyValue{Value: lo, Hi: lo + uint64(rng.Intn(32))}))
		}
		pp := matcherProg(ents)
		fast := New(pp)
		slowSw := New(pp)
		slow := NewReference(slowSw)
		if fast.CompileErr() != nil {
			t.Fatalf("trial %d not compiled: %v", trial, fast.CompileErr())
		}
		if snapFor(t, fast, "tern1").dd != nil {
			t.Fatalf("trial %d: tern1 built a diagram; nothing here runs on the scan", trial)
		}
		for i := 0; i < 300; i++ {
			sel := uint8(1 + rng.Intn(4))
			k1 := uint32(rng.Intn(16))
			if sel == 2 {
				k1 = rng.Uint32() // wide keys for LPM
			}
			k2 := uint16(rng.Intn(80))
			switch sel {
			case 2:
				diagramVsScan(t, "lpm1", fast, "lpm1", uint64(k1))
			case 4:
				diagramVsScan(t, "rng1", fast, "rng1", uint64(k2))
			}
			pkt := matcherPkt(sel, k1, k2)
			fr, ferr := fast.Process(pkt, 0)
			sr, serr := slow.Process(pkt, 0)
			if (ferr == nil) != (serr == nil) {
				t.Fatalf("trial %d pkt %d: error mismatch %v vs %v", trial, i, ferr, serr)
			}
			if ferr != nil {
				continue
			}
			if !bytes.Equal(fr.Data, sr.Data) || fr.Port != sr.Port || fr.Mcast != sr.Mcast ||
				fr.Dropped != sr.Dropped || fr.NoMatch != sr.NoMatch {
				t.Fatalf("trial %d pkt sel=%d k1=%#x k2=%d: compiled %+v != reference %+v",
					trial, sel, k1, k2, fr, sr)
			}
		}
		// Mutate entries at runtime and re-verify coherence on both.
		for i := 0; i < 6; i++ {
			e := entry("set_out", uint64(5000+i), rng.Intn(4), kv(uint64(rng.Intn(8))), kv(uint64(rng.Intn(4))))
			if _, err := fast.Write(NewWriteBatch().Insert("ex2", e)); err != nil {
				t.Fatal(err)
			}
			if _, err := slowSw.Write(NewWriteBatch().Insert("ex2", e)); err != nil {
				t.Fatal(err)
			}
		}
		delK1, delK2 := uint64(rng.Intn(8)), uint64(rng.Intn(4))
		if nf, ns := deleteEntry(t, fast, "ex2", delK1, delK2), deleteEntry(t, slowSw, "ex2", delK1, delK2); nf != ns {
			t.Fatalf("trial %d: delete count %d vs %d", trial, nf, ns)
		}
		for i := 0; i < 100; i++ {
			pkt := matcherPkt(1, uint32(rng.Intn(16)), uint16(rng.Intn(8)))
			fr, ferr := fast.Process(pkt, 0)
			sr, serr := slow.Process(pkt, 0)
			if ferr != nil || serr != nil {
				t.Fatalf("trial %d post-mutate errors: %v %v", trial, ferr, serr)
			}
			if !bytes.Equal(fr.Data, sr.Data) {
				t.Fatalf("trial %d post-mutate divergence", trial)
			}
		}
	}
}

// TestUndeclaredNameRefused: a table applied inside an action whose
// parameter p the table's own action reads. Scope is lexical, so that
// p is undeclared where it is read: p4.Validate refuses the program,
// and a refused switch must answer every packet entry point and
// NewSharded with that error — it runs nothing, so it counts nothing.
func TestUndeclaredNameRefused(t *testing.T) {
	pp := &p4.Program{Name: "dyn", Target: p4.TargetTNA}
	pp.Headers = []*p4.HeaderDecl{{Name: "h", Fields: []*p4.Field{{Name: "x", Bits: 8}}}}
	pp.Metadata = []*p4.Field{{Name: "egress_port", Bits: 16}, {Name: "mcast_grp", Bits: 16}, {Name: "drop_flag", Bits: 1}}
	pp.Parser = &p4.Parser{Name: "P", States: []*p4.ParserState{{Name: "start", Extracts: []string{"h"}, Next: "accept"}}}
	ctl := &p4.Control{Name: "In"}
	ctl.Actions = []*p4.ActionDecl{
		{Name: "leaf", Body: []p4.Stmt{
			&p4.Assign{LHS: p4.FR("hdr", "h", "x"), RHS: p4.FR("p")},
		}},
		{Name: "outer", Params: []*p4.Field{{Name: "p", Bits: 8}}, Body: []p4.Stmt{
			&p4.ApplyTable{Table: "t"},
		}},
	}
	ctl.Tables = []*p4.Table{{
		Name:    "t",
		Keys:    []*p4.TableKey{{Expr: p4.FR("hdr", "h", "x"), Match: p4.MatchExact}},
		Actions: []string{"leaf"},
		Default: &p4.ActionCall{Name: "leaf"},
	}}
	ctl.Apply = []p4.Stmt{
		&p4.CallStmt{Method: "outer", Args: []p4.Expr{&p4.IntLit{Val: 7, Bits: 8}}},
		&p4.Assign{LHS: p4.FR("meta", "egress_port"), RHS: &p4.IntLit{Val: 1, Bits: 16}},
	}
	pp.Ingress = ctl
	sw := New(pp)
	cerr := sw.CompileErr()
	var ce *p4.CheckError
	if !errors.As(cerr, &ce) || ce.Construct != "name p" {
		t.Fatalf("CompileErr = %v, want Validate's refusal of name p", cerr)
	}
	pkt := []byte{0x00}
	if _, err := sw.Process(pkt, 0); !errors.Is(err, cerr) {
		t.Errorf("Process: %v, want the compile error", err)
	}
	if err := sw.ProcessInto(pkt, 0, &Result{}); !errors.Is(err, cerr) {
		t.Errorf("ProcessInto: %v, want the compile error", err)
	}
	res, errs := make([]Result, 3), make([]error, 3)
	sw.ProcessBurst([][]byte{pkt, pkt, pkt}, nil, res, errs)
	for i := range errs {
		if !errors.Is(errs[i], cerr) || res[i].Data != nil {
			t.Errorf("ProcessBurst slot %d: %+v, %v, want the compile error", i, res[i], errs[i])
		}
	}
	if _, err := NewSharded(sw, ShardedConfig{Shards: 2}); !errors.Is(err, cerr) {
		t.Errorf("NewSharded: %v, want the compile error", err)
	}
	if sw.PacketsIn != 0 || sw.PacketsOut != 0 || sw.PacketsDropped != 0 {
		t.Errorf("refused packets were counted: in/out/drop %d/%d/%d", sw.PacketsIn, sw.PacketsOut, sw.PacketsDropped)
	}
}

// TestLexicalScope: scope is lexical on both engines. outer(l = 7)
// calls leaf, which reads the control local l (5), not its caller's
// parameter, then applies table t, whose key l and action tact see
// the local too, and reads its own l. The bytes are written out by
// hand.
func TestLexicalScope(t *testing.T) {
	pp := &p4.Program{Name: "lex", Target: p4.TargetTNA}
	pp.Headers = []*p4.HeaderDecl{{Name: "h", Fields: []*p4.Field{{Name: "x", Bits: 8}, {Name: "y", Bits: 8}, {Name: "z", Bits: 8}}}}
	pp.Metadata = []*p4.Field{{Name: "egress_port", Bits: 16}, {Name: "mcast_grp", Bits: 16}, {Name: "drop_flag", Bits: 1}}
	pp.Parser = &p4.Parser{Name: "P", States: []*p4.ParserState{{Name: "start", Extracts: []string{"h"}, Next: "accept"}}}
	ctl := &p4.Control{Name: "In"}
	ctl.Locals = []*p4.Field{{Name: "l", Bits: 8}}
	ctl.Actions = []*p4.ActionDecl{
		{Name: "tact", Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "h", "z"), RHS: p4.FR("l")}}},
		{Name: "leaf", Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "h", "y"), RHS: p4.FR("l")}}},
		{Name: "outer", Params: []*p4.Field{{Name: "l", Bits: 8}}, Body: []p4.Stmt{
			&p4.CallStmt{Method: "leaf"},
			&p4.ApplyTable{Table: "t"},
			&p4.Assign{LHS: p4.FR("hdr", "h", "x"), RHS: p4.FR("l")},
		}},
	}
	ctl.Tables = []*p4.Table{{
		Name:    "t",
		Keys:    []*p4.TableKey{{Expr: p4.FR("l"), Match: p4.MatchExact}},
		Actions: []string{"tact"},
		Entries: []*p4.Entry{{Keys: []p4.KeyValue{{Value: 5}}, Action: &p4.ActionCall{Name: "tact"}}},
	}}
	ctl.Apply = []p4.Stmt{
		&p4.Assign{LHS: p4.FR("l"), RHS: &p4.IntLit{Val: 5}},
		&p4.CallStmt{Method: "outer", Args: []p4.Expr{&p4.IntLit{Val: 7}}},
		&p4.Assign{LHS: p4.FR("meta", "egress_port"), RHS: &p4.IntLit{Val: 1}},
	}
	pp.Ingress = ctl
	want := []byte{7, 5, 5, 0xee}
	for _, eng := range []struct {
		name    string
		process func([]byte, int) (*Result, error)
	}{
		{"compiled", New(pp).Process},
		{"reference", NewReference(New(pp)).Process},
	} {
		res, err := eng.process([]byte{0, 0, 0, 0xee}, 0)
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if !bytes.Equal(res.Data, want) || res.Port != 1 {
			t.Errorf("%s: % x port %d, want % x port 1", eng.name, res.Data, res.Port, want)
		}
	}
}

// TestCompiledAllocsPerPacket: steady-state allocations per packet are
// O(1) — the Result struct and its exact-sized data buffer.
func TestCompiledAllocsPerPacket(t *testing.T) {
	sw := New(prog())
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}
	pkt := mkPkt(1, 10)
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := sw.Process(pkt, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("allocs/packet = %.1f, want <= 3", allocs)
	}
}
