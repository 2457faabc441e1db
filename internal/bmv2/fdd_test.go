package bmv2

// fdd_test.go proves the decision-diagram matcher (fdd.go) equivalent
// to both of its oracles: the engine's own linear scan, run over the
// same snapshot and keys the diagram is walked with, and the reference
// interpreter's applyTable, run over a second switch. Entry sets and
// probe keys are fuzzed across every non-exact match kind, priorities,
// sloppy prefixes, and holed masks; runtime mutations are applied
// mid-fuzz so rebuilt diagrams are exercised too. The tests assert
// that diagrams actually materialized (sn.dd != nil), so a regression
// that silently stops building them fails loudly instead of passing
// vacuously through the scan.

import (
	"bytes"
	"math/rand"
	"testing"

	"netcl/internal/p4"
)

// snapFor returns the published snapshot of the named table.
func snapFor(t *testing.T, sw *Switch, name string) *tsnap {
	t.Helper()
	tb := tableFor(t, sw, name)
	return sw.prog.gen.Load().snaps[tb.gslot]
}

func tableFor(t *testing.T, sw *Switch, name string) *ctable {
	t.Helper()
	if sw.prog == nil {
		t.Fatal("switch has no compiled program")
	}
	for _, tb := range sw.prog.tabs {
		if tb.name == name {
			return tb
		}
	}
	t.Fatalf("table %q not compiled", name)
	return nil
}

// randLPMEntry builds a k1 (32-bit) LPM entry; one in four keeps junk
// bits below the prefix, which every matcher must ignore identically.
func randLPMEntry(rng *rand.Rand, out uint64) *p4.Entry {
	plen := rng.Intn(33)
	v := uint64(rng.Uint32())
	if plen < 32 && rng.Intn(4) != 0 {
		v &^= 1<<(32-uint(plen)) - 1
	}
	return entry("set_out", out, 0, p4.KeyValue{Value: v, PrefixLen: plen})
}

// randTernEntry builds a k1 ternary entry whose mask is a prefix with
// up to three holes punched into it — few enough free high bits that
// the diagram stays eligible, varied enough to exercise the subset
// enumeration. Values occasionally keep bits outside the mask.
func randTernEntry(rng *rand.Rand, out uint64) *p4.Entry {
	plen := rng.Intn(33)
	mask := uint64(0)
	if plen > 0 {
		mask = (1<<uint(plen) - 1) << (32 - uint(plen))
	}
	for h := rng.Intn(4); h > 0 && plen > 0; h-- {
		mask &^= 1 << (32 - uint(1+rng.Intn(plen)))
	}
	v := uint64(rng.Uint32())
	if rng.Intn(3) != 0 {
		v &= mask
	}
	return entry("set_out", out, rng.Intn(8), p4.KeyValue{Value: v, Mask: mask})
}

// randRangeEntry builds a k2 (16-bit) range entry; some are empty
// (hi < lo) and some overflow the key domain.
func randRangeEntry(rng *rand.Rand, out uint64) *p4.Entry {
	lo := uint64(rng.Intn(1 << 16))
	hi := lo + uint64(rng.Intn(1<<12)) - 8
	return entry("set_out", out, rng.Intn(8), p4.KeyValue{Value: lo, Hi: hi})
}

func randMatcherEntries(rng *rand.Rand) map[string][]*p4.Entry {
	ents := map[string][]*p4.Entry{}
	for i, n := 0, 1+rng.Intn(24); i < n; i++ {
		ents["lpm1"] = append(ents["lpm1"], randLPMEntry(rng, uint64(1000+i)))
	}
	for i, n := 0, 1+rng.Intn(24); i < n; i++ {
		ents["tern1"] = append(ents["tern1"], randTernEntry(rng, uint64(2000+i)))
	}
	for i, n := 0, 1+rng.Intn(16); i < n; i++ {
		ents["rng1"] = append(ents["rng1"], randRangeEntry(rng, uint64(3000+i)))
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		ents["ex2"] = append(ents["ex2"], entry("set_out", uint64(4000+i), 0,
			p4.KeyValue{Value: uint64(rng.Intn(8)), PrefixLen: -1},
			p4.KeyValue{Value: uint64(rng.Intn(8)), PrefixLen: -1}))
	}
	return ents
}

// probeKeys biases fuzz probes toward rule boundaries: every entry
// endpoint, its neighbors, and uniform random fill.
func probeKeys(rng *rand.Rand, ents map[string][]*p4.Entry) (k1s []uint32, k2s []uint16) {
	for _, e := range append(ents["lpm1"], ents["tern1"]...) {
		v := uint32(e.Keys[0].Value)
		k1s = append(k1s, v, v-1, v+1, v|uint32(rng.Intn(256)))
	}
	for _, e := range ents["rng1"] {
		lo, hi := uint16(e.Keys[0].Value), uint16(e.Keys[0].Hi)
		k2s = append(k2s, lo, lo-1, lo+1, hi, hi+1)
	}
	for i := 0; i < 32; i++ {
		k1s = append(k1s, rng.Uint32())
		k2s = append(k2s, uint16(rng.Intn(1<<16)))
	}
	return k1s, k2s
}

// diffOne runs one packet through the engine and through the reference
// interpreter (over its own switch) and demands byte-identical results.
func diffOne(t *testing.T, stage string, sw *Switch, ref *Reference, pkt []byte) {
	t.Helper()
	got, err := sw.Process(append([]byte(nil), pkt...), 1)
	want, refErr := ref.Process(append([]byte(nil), pkt...), 1)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: error mismatch: %v vs reference %v (pkt %x)", stage, err, refErr, pkt)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got.Data, want.Data) || got.Port != want.Port ||
		got.Dropped != want.Dropped || got.Mcast != want.Mcast {
		t.Fatalf("%s: diverged on pkt %x:\n  engine:    %+v\n  reference: %+v", stage, pkt, got, want)
	}
}

// diagramVsScan walks the table's published diagram and scans the same
// snapshot with the same key words, as apply reads them from the
// frame, and demands the same entry, or a miss from
// both. A table without a diagram fails: the comparison would be the
// scan against itself.
func diagramVsScan(t *testing.T, stage string, sw *Switch, table string, vals ...uint64) {
	t.Helper()
	tb := tableFor(t, sw, table)
	sn := sw.prog.gen.Load().snaps[tb.gslot]
	if sn.dd == nil {
		t.Fatalf("%s: %s: no decision diagram built", stage, table)
	}
	if got, want := sn.dd.match(vals, sn.ents), tb.scan(sn, vals); got != want {
		t.Fatalf("%s: %s%v: diagram picked %+v, scan %+v", stage, table, vals, got, want)
	}
}

// TestFDDDifferentialFuzz: the diagram vs the scan over the same
// snapshot vs the reference interpreter, over random single-key rule
// sets of every non-exact kind, before and after runtime mutations.
func TestFDDDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eedf))
	rounds := 12
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		ents := randMatcherEntries(rng)
		fddSw := New(matcherProg(ents))
		refSw := New(matcherProg(ents))
		ref := NewReference(refSw)
		if fddSw.CompileErr() != nil {
			t.Fatalf("not compiled: %v", fddSw.CompileErr())
		}
		sws := []*Switch{fddSw, refSw}

		fuzz := func(stage string) {
			k1s, k2s := probeKeys(rng, ents)
			for i := 0; i < 300; i++ {
				sel := uint8(1 + rng.Intn(4))
				k1 := k1s[rng.Intn(len(k1s))]
				k2 := k2s[rng.Intn(len(k2s))]
				diagramVsScan(t, stage, fddSw, "lpm1", uint64(k1))
				diagramVsScan(t, stage, fddSw, "tern1", uint64(k1))
				diagramVsScan(t, stage, fddSw, "rng1", uint64(k2))
				diffOne(t, stage, fddSw, ref, matcherPkt(sel, k1, k2))
			}
		}
		fuzz("static")

		// Runtime mutations rebuild the diagrams; replay the fuzz after.
		for i := 0; i < 6; i++ {
			var table string
			var e *p4.Entry
			switch rng.Intn(3) {
			case 0:
				table, e = "lpm1", randLPMEntry(rng, uint64(5000+i))
			case 1:
				table, e = "tern1", randTernEntry(rng, uint64(6000+i))
			default:
				table, e = "rng1", randRangeEntry(rng, uint64(7000+i))
			}
			ents[table] = append(ents[table], e)
			for _, sw := range sws {
				if _, err := sw.Write(NewWriteBatch().Insert(table, e)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := len(ents["lpm1"]); n > 0 {
			victim := ents["lpm1"][rng.Intn(n)]
			for _, sw := range sws {
				deleteEntry(t, sw, "lpm1", victim.Keys[0].Value)
			}
		}
		fuzz("mutated")
	}
}

// mixProg exercises one table whose key tuple mixes all four match
// kinds over shared fields — the order (exact, lpm, range, ternary)
// makes the reference's order-dependent score fold maximally awkward:
// the LPM assignment clobbers nothing, then range and ternary each
// subtract the priority.
func mixProg(entries []*p4.Entry) *p4.Program {
	pp := matcherProg(nil)
	ctl := pp.Ingress
	sel := p4.FR("hdr", "h", "sel")
	k1 := p4.FR("hdr", "h", "k1")
	k2 := p4.FR("hdr", "h", "k2")
	ctl.Tables = append(ctl.Tables, &p4.Table{
		Name: "mix4",
		Keys: []*p4.TableKey{
			{Expr: sel, Match: p4.MatchExact},
			{Expr: k1, Match: p4.MatchLPM},
			{Expr: k2, Match: p4.MatchRange},
			{Expr: k1, Match: p4.MatchTernary},
		},
		Actions: []string{"set_out", "miss_out"},
		Default: &p4.ActionCall{Name: "miss_out"},
		Entries: entries,
	})
	ctl.Apply = []p4.Stmt{
		&p4.ApplyTable{Table: "mix4"},
		&p4.Assign{LHS: p4.FR("meta", "egress_port"), RHS: &p4.IntLit{Val: 9, Bits: 16}},
	}
	return pp
}

// TestFDDMixedKeysDifferential fuzzes the four-kind mixed table.
func TestFDDMixedKeysDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0517))
	rounds := 8
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		var ents []*p4.Entry
		for i, n := 0, 1+rng.Intn(16); i < n; i++ {
			le := randLPMEntry(rng, 0)
			re := randRangeEntry(rng, 0)
			te := randTernEntry(rng, 0)
			ents = append(ents, entry("set_out", uint64(100+i), rng.Intn(8),
				p4.KeyValue{Value: uint64(rng.Intn(4)), PrefixLen: -1},
				le.Keys[0], re.Keys[0], te.Keys[0]))
		}
		fddSw := New(mixProg(ents))
		ref := NewReference(New(mixProg(ents)))
		if fddSw.CompileErr() != nil {
			t.Fatalf("not compiled: %v", fddSw.CompileErr())
		}
		k1s := []uint32{}
		k2s := []uint16{}
		for _, e := range ents {
			k1s = append(k1s, uint32(e.Keys[1].Value), uint32(e.Keys[1].Value)+1, uint32(e.Keys[3].Value))
			k2s = append(k2s, uint16(e.Keys[2].Value), uint16(e.Keys[2].Hi), uint16(e.Keys[2].Hi)+1)
		}
		for i := 0; i < 400; i++ {
			sel := uint8(rng.Intn(5))
			k1 := k1s[rng.Intn(len(k1s))]
			if rng.Intn(3) == 0 {
				k1 = rng.Uint32()
			}
			k2 := k2s[rng.Intn(len(k2s))]
			if rng.Intn(3) == 0 {
				k2 = uint16(rng.Intn(1 << 16))
			}
			diagramVsScan(t, "mix4", fddSw, "mix4", uint64(sel), uint64(k1), uint64(k2), uint64(k1))
			diffOne(t, "mix4", fddSw, ref, matcherPkt(sel, k1, k2))
		}
	}
}

// TestFDDIneligibleFallsBack: the two rule sets a diagram is refused
// for — a ternary mask with too many scattered free bits (subset
// enumeration would explode) and a table over the build's work budget
// (here a single-LPM table, which once had a matcher of its own) — get
// a snapshot without one and match by the scan, still with the
// reference interpreter's answers.
func TestFDDIneligibleFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// More endpoints than fddMaxWork: distinct /32 hosts, under a few
	// covering prefixes so that longest-prefix order still decides.
	big := []*p4.Entry{
		entry("set_out", 1, 0, p4.KeyValue{Value: 0, PrefixLen: 0}),
		entry("set_out", 2, 0, p4.KeyValue{Value: 0x0A00_0000, PrefixLen: 8}),
		entry("set_out", 3, 0, p4.KeyValue{Value: 0x0A00_0000, PrefixLen: 20}),
	}
	for i := 0; i <= fddMaxWork/2; i++ {
		big = append(big, entry("set_out", uint64(100+i), 0,
			p4.KeyValue{Value: 0x0A00_0000 + uint64(i)*3, PrefixLen: 32}))
	}
	for _, tc := range []struct {
		table string
		sel   uint8
		ents  []*p4.Entry
		probe func(i int) uint32
	}{
		{"tern1", 3, []*p4.Entry{
			// 0xAAAAAAAA and 0x55555555: each leaves the other's 16 bits
			// free inside the root's care.
			entry("set_out", 77, 0, p4.KeyValue{Value: 0x2AAA_AAAA, Mask: 0xAAAA_AAAA}),
			entry("set_out", 88, 1, p4.KeyValue{Value: 0, Mask: 0}),
			entry("set_out", 99, 2, p4.KeyValue{Value: 0x1555_5555, Mask: 0x5555_5555}),
		}, func(i int) uint32 {
			k1 := rng.Uint32()
			if i%2 == 0 {
				k1 = (k1 & 0xAAAA_AAAA) | 0x2AAA_AAAA&0xAAAA_AAAA // force rule-0 hits
			}
			return k1
		}},
		{"lpm1", 2, big, func(i int) uint32 {
			if i%4 == 0 {
				return rng.Uint32()
			}
			return 0x0A00_0000 + uint32(rng.Intn(3*fddMaxWork/2+4096)) // hosts, gaps, past the /20
		}},
	} {
		ents := map[string][]*p4.Entry{tc.table: tc.ents}
		sw := New(matcherProg(ents))
		if sw.CompileErr() != nil {
			t.Fatalf("not compiled: %v", sw.CompileErr())
		}
		if snapFor(t, sw, tc.table).dd != nil {
			t.Fatalf("%s: ineligible rule set unexpectedly built a diagram", tc.table)
		}
		ref := NewReference(New(matcherProg(ents)))
		for i := 0; i < 200; i++ {
			diffOne(t, "ineligible "+tc.table, sw, ref, matcherPkt(tc.sel, tc.probe(i), 0))
		}
	}
}

// TestBatchRebuildAmortized pins the control-plane cost model: a
// commit builds the diagram nodes whose rule set changed, once per
// batch whatever its op count. lpm1 has one level, so every changed
// rule set is its root's: one WriteBatch touching it N times builds one
// node, while N single-op inserts build N. A regression to per-op
// rebuilds turns control-plane bursts quadratic and fails here;
// TestBatchNodesODelta pins the multi-level half.
func TestBatchRebuildAmortized(t *testing.T) {
	const n = 16
	sw := New(matcherProg(nil))
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}
	tb := tableFor(t, sw, "lpm1")
	rng := rand.New(rand.NewSource(42))

	before := tb.builds
	b := NewWriteBatch()
	for i := 0; i < n; i++ {
		b.Insert("lpm1", randLPMEntry(rng, uint64(i)))
	}
	if _, err := sw.Write(b); err != nil {
		t.Fatal(err)
	}
	if got := tb.builds - before; got != 1 {
		t.Fatalf("batched %d inserts built %d nodes, want 1", n, got)
	}
	if snapFor(t, sw, "lpm1").dd == nil {
		t.Fatal("batch commit did not build the diagram")
	}

	before = tb.builds
	for i := 0; i < n; i++ {
		if _, err := sw.Write(NewWriteBatch().Insert("lpm1", randLPMEntry(rng, uint64(100+i)))); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.builds - before; got != n {
		t.Fatalf("%d single inserts built %d nodes, want %d", n, got, n)
	}
}
