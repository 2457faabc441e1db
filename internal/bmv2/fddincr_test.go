package bmv2

// fddincr_test.go holds the incremental diagram to its cost model and
// to the cold build: a commit builds only the nodes whose rule set it
// changed, the maintained diagram is the one a cold build of the same
// store gives, and the writer-side arena stays within a constant
// factor of the live diagram however long the churn runs.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"netcl/internal/p4"
)

// aclShapeProg is a route + firewall program: route is a 32-bit LPM
// table, fw a ternary (sip) / range (dport) / ternary (proto) table.
func aclShapeProg() *p4.Program {
	pp := &p4.Program{Name: "acl", Target: p4.TargetTNA}
	pp.Headers = []*p4.HeaderDecl{{Name: "f", Fields: []*p4.Field{
		{Name: "dip", Bits: 32}, {Name: "sip", Bits: 32}, {Name: "dport", Bits: 16},
		{Name: "proto", Bits: 8}, {Name: "hop", Bits: 8},
	}}}
	pp.Metadata = []*p4.Field{
		{Name: "egress_port", Bits: 16}, {Name: "mcast_grp", Bits: 16}, {Name: "drop_flag", Bits: 1},
	}
	pp.Parser = &p4.Parser{Name: "P", States: []*p4.ParserState{
		{Name: "start", Extracts: []string{"f"}, Next: "accept"},
	}}
	ctl := &p4.Control{Name: "In"}
	ctl.Actions = []*p4.ActionDecl{
		{Name: "set_hop", Params: []*p4.Field{{Name: "h", Bits: 8}},
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "f", "hop"), RHS: p4.FR("h")}}},
		{Name: "deny",
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("meta", "drop_flag"), RHS: &p4.IntLit{Val: 1, Bits: 1}}}},
		{Name: "permit"},
	}
	ctl.Tables = []*p4.Table{
		{Name: "route", Keys: []*p4.TableKey{{Expr: p4.FR("hdr", "f", "dip"), Match: p4.MatchLPM}},
			Actions: []string{"set_hop", "deny"}, Default: &p4.ActionCall{Name: "deny"}},
		{Name: "fw", Keys: []*p4.TableKey{
			{Expr: p4.FR("hdr", "f", "sip"), Match: p4.MatchTernary},
			{Expr: p4.FR("hdr", "f", "dport"), Match: p4.MatchRange},
			{Expr: p4.FR("hdr", "f", "proto"), Match: p4.MatchTernary},
		}, Actions: []string{"permit", "deny"}, Default: &p4.ActionCall{Name: "permit"}},
	}
	ctl.Apply = []p4.Stmt{&p4.ApplyTable{Table: "route"}, &p4.ApplyTable{Table: "fw"}}
	pp.Ingress = ctl
	return pp
}

// aclRoute draws a route: a /8 to /32 prefix.
func aclRoute(rng *rand.Rand, hop uint64) *p4.Entry {
	plen := 8 + rng.Intn(25)
	v := uint64(rng.Uint32()) &^ (1<<(32-uint(plen)) - 1)
	return entry("set_hop", hop, 0, p4.KeyValue{Value: v, PrefixLen: plen})
}

// aclRule draws a firewall rule: a /0 to /24 source, a dport range of
// up to 1 024 ports, and one of four protocols under mask 0x3 (six
// free high bits: 64 intervals on the last level).
func aclRule(rng *rand.Rand, prio int, deny bool) *p4.Entry {
	smask := uint64(0)
	if plen := rng.Intn(25); plen > 0 {
		smask = (1<<uint(plen) - 1) << (32 - uint(plen))
	}
	lo := uint64(rng.Intn(1 << 15))
	e := &p4.Entry{Keys: []p4.KeyValue{
		{Value: uint64(rng.Uint32()) & smask, Mask: smask},
		{Value: lo, Hi: lo + uint64(rng.Intn(1<<10))},
		{Value: uint64(rng.Intn(4)), Mask: 0x3},
	}, Action: &p4.ActionCall{Name: "permit"}, Priority: prio}
	if deny {
		e.Action.Name = "deny"
	}
	return e
}

// aclShape is a switch holding routes and rules, and the batch that
// churns both: replace one route and re-target two, replace one rule
// and flip two. The control plane names an entry by its key values,
// so taken keeps them distinct.
type aclShape struct {
	sw     *Switch
	rng    *rand.Rand
	routes []*p4.Entry
	rules  []*p4.Entry
	taken  map[[3]uint64]bool
	serial uint64
}

func newACLShape(tb testing.TB, nroutes, nrules int) *aclShape {
	a := &aclShape{sw: New(aclShapeProg()), rng: rand.New(rand.NewSource(7)), taken: map[[3]uint64]bool{}}
	if err := a.sw.CompileErr(); err != nil {
		tb.Fatal(err)
	}
	b := NewWriteBatch()
	for i := 0; i < nroutes; i++ {
		a.routes = append(a.routes, a.fresh(func() *p4.Entry { return aclRoute(a.rng, uint64(i)) }))
		b.Insert("route", a.routes[i])
	}
	for i, prio := range a.rng.Perm(nrules) {
		a.rules = append(a.rules, a.fresh(func() *p4.Entry { return aclRule(a.rng, prio, i%3 == 0) }))
		b.Insert("fw", a.rules[i])
	}
	if _, err := a.sw.Write(b); err != nil {
		tb.Fatal(err)
	}
	return a
}

// fresh draws entries until one has key values no live entry has.
func (a *aclShape) fresh(draw func() *p4.Entry) *p4.Entry {
	for {
		e := draw()
		var k [3]uint64
		copy(k[:], entryKeyVals(e))
		if !a.taken[k] {
			a.taken[k] = true
			return e
		}
	}
}

func (a *aclShape) forget(e *p4.Entry) {
	var k [3]uint64
	copy(k[:], entryKeyVals(e))
	delete(a.taken, k)
}

func (a *aclShape) batch() *WriteBatch {
	b := NewWriteBatch()
	a.serial++
	i := a.rng.Intn(len(a.routes))
	b.Delete("route", a.routes[i].Keys[0].Value)
	a.forget(a.routes[i])
	a.routes[i] = a.fresh(func() *p4.Entry { return aclRoute(a.rng, a.serial) })
	b.Insert("route", a.routes[i])
	for k := 0; k < 2; k++ {
		r := a.routes[a.rng.Intn(len(a.routes))]
		nr := entry("set_hop", a.serial, 0, r.Keys...)
		b.Modify("route", nr)
		a.replace(a.routes, r, nr)
	}
	i = a.rng.Intn(len(a.rules))
	old := a.rules[i]
	b.Delete("fw", entryKeyVals(old)...)
	a.forget(old)
	a.rules[i] = a.fresh(func() *p4.Entry { return aclRule(a.rng, old.Priority, a.rng.Intn(2) == 0) })
	b.Insert("fw", a.rules[i])
	for k := 0; k < 2; k++ {
		r := a.rules[a.rng.Intn(len(a.rules))]
		nr := &p4.Entry{Keys: r.Keys, Action: &p4.ActionCall{Name: "deny"}, Priority: r.Priority}
		if r.Action.Name == "deny" {
			nr.Action.Name = "permit"
		}
		b.Modify("fw", nr)
		a.replace(a.rules, r, nr)
	}
	return b
}

// replace swaps old for nr in the model; a modify replaces every entry
// with the same key values, and the generators never repeat one.
func (a *aclShape) replace(es []*p4.Entry, old, nr *p4.Entry) {
	for i := range es {
		if es[i] == old {
			es[i] = nr
		}
	}
}

// BenchmarkWriteNonExact commits the acl-shaped 8-op route/fw batch
// (one route replaced and two re-targeted, one rule replaced and two
// flipped) against 128 LPM routes and 64 ternary/range/ternary rules.
// nodes/op is the diagram nodes both tables built per commit (ctable
// builds): what the batch changed, never the whole diagram.
func BenchmarkWriteNonExact(b *testing.B) {
	a := newACLShape(b, 128, 64)
	built := func() (n uint64) {
		for _, tb := range a.sw.prog.tabs {
			n += tb.builds
		}
		return n
	}
	before := built()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.sw.Write(a.batch()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(built()-before)/float64(b.N), "nodes/op")
}

// TestBatchNodesODelta is the count-based O(delta) guard: inserting one
// narrow rule into a 3-field ternary/range/ternary table builds the
// same small number of diagram nodes at 64 rules as at 1 024 — the
// root, and one node per level on the new rule's path.
func TestBatchNodesODelta(t *testing.T) {
	for _, n := range []int{64, 1024} {
		a := newACLShape(t, 0, 0)
		b := NewWriteBatch()
		for i, prio := range a.rng.Perm(n) {
			// /16 to /24 sources and one protocol, so that 1 024 rules
			// fit the work budget.
			r := aclRule(a.rng, prio, i%3 == 0)
			plen := 16 + a.rng.Intn(9)
			r.Keys[0].Mask = (1<<uint(plen) - 1) << (32 - uint(plen))
			r.Keys[0].Value = uint64(a.rng.Uint32()) & r.Keys[0].Mask
			r.Keys[2].Mask = 0xFF
			b.Insert("fw", r)
		}
		if _, err := a.sw.Write(b); err != nil {
			t.Fatal(err)
		}
		tb := tableFor(t, a.sw, "fw")
		narrow := &p4.Entry{Keys: []p4.KeyValue{
			{Value: 0x0A01_0203, Mask: 0xFFFF_FFFF},
			{Value: 40000, Hi: 40000},
			{Value: 1, Mask: 0xFF},
		}, Action: &p4.ActionCall{Name: "deny"}, Priority: n}
		before := tb.builds
		if _, err := a.sw.Write(NewWriteBatch().Insert("fw", narrow)); err != nil {
			t.Fatal(err)
		}
		built := tb.builds - before
		t.Logf("%d rules: %d nodes reachable, %d built by one narrow insert", n, tb.fb.reach, built)
		if snapFor(t, a.sw, "fw").dd == nil {
			t.Fatalf("%d rules: no diagram", n)
		}
		if built > 16 {
			t.Fatalf("%d rules: one narrow insert built %d nodes, want <= 16", n, built)
		}
	}
}

// ddShape counts the nodes and edges reachable from a diagram's root.
func ddShape(dd *fdd) (nodes, edges int) {
	seen := map[int32]bool{}
	var walk func(n int32)
	walk = func(n int32) {
		if n < 0 || seen[n] {
			return
		}
		seen[n] = true
		nodes++
		edges += len(dd.nodes[n].next)
		for _, c := range dd.nodes[n].next {
			walk(c)
		}
	}
	walk(dd.root)
	return nodes, edges
}

// TestFDDHistoryIndependent: after every commit of a random op
// sequence, the maintained diagram and a cold build of the same store
// agree on whether there is a diagram at all, on its reachable node and
// edge counts, and — by diagramVsScan — on every probe.
func TestFDDHistoryIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(0x41570))
	commits := 300
	if testing.Short() {
		commits = 60
	}
	sw := New(wfProg())
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}
	tables := []string{"lpm1", "tern1", "rng1", "mix4"}
	var scans, resets int
	draw := func(table string, out uint64) *p4.Entry {
		switch table {
		case "lpm1":
			return randLPMEntry(rng, out)
		case "tern1":
			e := randTernEntry(rng, out)
			if rng.Intn(40) == 0 {
				e.Keys[0].Mask = 0x0000_FFFF // unrepresentable: the scan until deleted
			}
			return e
		case "rng1":
			return randRangeEntry(rng, out)
		}
		return entry("set_out", out, rng.Intn(8), kv(uint64(5+rng.Intn(3))),
			randLPMEntry(rng, 0).Keys[0], randRangeEntry(rng, 0).Keys[0], randTernEntry(rng, 0).Keys[0])
	}
	for c := 0; c < commits; c++ {
		b := NewWriteBatch()
		for n := 1 + rng.Intn(4); n > 0; n-- {
			table := tables[rng.Intn(len(tables))]
			live := sw.Entries(table)
			switch k := rng.Intn(4); {
			case k == 0 && len(live) > 0:
				b.Delete(table, entryKeyVals(live[rng.Intn(len(live))])...)
			case k == 1 && len(live) > 0:
				e := draw(table, uint64(c))
				e.Keys = live[rng.Intn(len(live))].Keys
				b.Modify(table, e)
			default:
				b.Insert(table, draw(table, uint64(c)))
			}
		}
		ids := len(tableFor(t, sw, "mix4").fb.rules)
		if _, err := sw.Write(b); err != nil {
			continue // a modify of a tuple an earlier op deleted: refused whole
		}
		if len(tableFor(t, sw, "mix4").fb.rules) < ids {
			resets++
		}
		ents := map[string][]*p4.Entry{}
		for _, table := range tables {
			ents[table] = sw.Entries(table)
		}
		pp := wfProg()
		for _, table := range tables {
			pp.Ingress.TableByName(table).Entries = ents[table]
		}
		cold := New(pp)
		for _, table := range tables {
			got, want := snapFor(t, sw, table).dd, snapFor(t, cold, table).dd
			if (got == nil) != (want == nil) {
				t.Fatalf("commit %d: %s: maintained diagram %v, cold %v", c, table, got != nil, want != nil)
			}
			if got == nil {
				scans++
				continue
			}
			gn, ge := ddShape(got)
			wn, we := ddShape(want)
			if gn != wn || ge != we {
				t.Fatalf("commit %d: %s: maintained %d nodes / %d edges, cold %d / %d", c, table, gn, ge, wn, we)
			}
			for i := 0; i < 40; i++ {
				k1, k2 := uint64(rng.Uint32()), uint64(rng.Intn(1<<16))
				if len(ents[table]) > 0 && i%2 == 0 {
					e := ents[table][rng.Intn(len(ents[table]))]
					k1 = e.Keys[0].Value + uint64(rng.Intn(3)) - 1
					if table == "mix4" {
						k1, k2 = e.Keys[1].Value, e.Keys[2].Hi+uint64(rng.Intn(2))
					}
				}
				switch table {
				case "rng1":
					diagramVsScan(t, "history", sw, table, k2&0xFFFF)
				case "mix4":
					diagramVsScan(t, "history", sw, table, uint64(5+rng.Intn(3)), k1&0xFFFF_FFFF, k2&0xFFFF, k1&0xFFFF_FFFF)
				default:
					diagramVsScan(t, "history", sw, table, k1&0xFFFF_FFFF)
				}
			}
		}
	}
	if scans == 0 || resets == 0 {
		t.Fatalf("vacuous: %d snapshots without a diagram, %d mix4 rule resets", scans, resets)
	}
}

// TestFDDTieOrderAcrossCompaction: overlapping ternary rules of one
// priority tie, and the earliest-inserted live one must win, before
// and after id compactions renumber the rules. Each commit inserts two
// such rules and deletes the oldest live ones, so the ids outrun the
// live rules and compact every few commits; after each commit the
// engine must answer every probe as the reference interpreter does.
// The diagram breaks ties by store order, the scan by id, so the
// second half keeps two rules no diagram can hold and runs on the scan,
// and the live ids must stay in store order throughout.
func TestFDDTieOrderAcrossCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sw := New(matcherProg(nil))
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}
	ref := NewReference(sw)
	var live []*p4.Entry
	compactions := [2]int{}
	for c := 0; c < 40; c++ {
		b := NewWriteBatch()
		if c == 20 {
			// Two masks no diagram can hold, each leaving the other's 8 bits
			// free inside the root's care, of a priority that loses every tie.
			b.Insert("tern1", entry("set_out", 1, 1, p4.KeyValue{Mask: 0x0000_00FF}))
			b.Insert("tern1", entry("set_out", 1, 1, p4.KeyValue{Mask: 0x0000_FF00}))
		}
		for i := 0; i < 2; i++ {
			// Mask 0 matches every key; mask 1<<31 half of them.
			e := entry("set_out", uint64(100+2*c+i), 0, p4.KeyValue{Value: uint64(2*c + i), Mask: uint64(rng.Intn(2)) << 31})
			b.Insert("tern1", e)
			live = append(live, e)
		}
		for len(live) > 6 {
			b.Delete("tern1", entryKeyVals(live[0])...)
			live = live[1:]
		}
		ids := len(tableFor(t, sw, "tern1").fb.rules)
		if _, err := sw.Write(b); err != nil {
			t.Fatal(err)
		}
		fb := tableFor(t, sw, "tern1").fb
		if len(fb.rules) < ids {
			compactions[c/20]++
		}
		// Ids follow store order, so that the scan's id order and the
		// diagram's set order both give a tie to the earlier record.
		for i := 1; i < len(fb.live); i++ {
			if x, y := fb.live[i-1], fb.live[i]; x >= y || fb.rules[x].seq >= fb.rules[y].seq {
				t.Fatalf("commit %d: live rule ids %v out of store order", c, fb.live)
			}
		}
		if (snapFor(t, sw, "tern1").dd == nil) != (c >= 20) {
			t.Fatalf("commit %d: diagram %v", c, snapFor(t, sw, "tern1").dd != nil)
		}
		for i := 0; i < 8; i++ {
			diffOne(t, fmt.Sprintf("commit %d", c), sw, ref, matcherPkt(3, rng.Uint32(), 0))
		}
	}
	if compactions[0] < 2 || compactions[1] < 2 {
		t.Fatalf("vacuous: %v id compactions with and without a diagram", compactions)
	}
}

// TestFDDBudgetHistoryIndependent: a commit that builds few nodes but
// pushes the reachable diagram over the work budget loses its diagram,
// as a cold build of the same store does, and gets it back when the
// rule goes. Each rule is a distinct /32 under one sel and one range,
// costing 2 intervals at the LPM level, 3 at the range level and 1 at
// the ternary level: 6n+7 in all, so n rules fit and n+1 do not.
func TestFDDBudgetHistoryIndependent(t *testing.T) {
	rule := func(i int) *p4.Entry {
		return entry("set_out", uint64(i), 0, kv(5), p4.KeyValue{Value: uint64(i) * 4, PrefixLen: 32},
			p4.KeyValue{Value: 10, Hi: 20}, p4.KeyValue{})
	}
	n := (fddMaxWork - 7) / 6
	var ents []*p4.Entry
	for i := 0; i <= n; i++ {
		ents = append(ents, rule(i))
	}
	if snapFor(t, New(mixProg(ents[:n])), "mix4").dd == nil || snapFor(t, New(mixProg(ents)), "mix4").dd != nil {
		t.Fatalf("cold builds: %d rules should fit the work budget and %d not", n, n+1)
	}
	sw := New(mixProg(ents[:n]))
	tb := tableFor(t, sw, "mix4")
	before := tb.builds
	if _, err := sw.Write(NewWriteBatch().Insert("mix4", ents[n])); err != nil {
		t.Fatal(err)
	}
	if snapFor(t, sw, "mix4").dd != nil {
		t.Fatalf("maintained diagram kept past the work budget (%d nodes built)", tb.builds-before)
	}
	deleteEntry(t, sw, "mix4", 5, uint64(n)*4, 10, 0)
	if snapFor(t, sw, "mix4").dd == nil {
		t.Fatal("diagram not back under the work budget")
	}
}

// TestFDDArenaBounded churns the acl-shaped tables for 10 000 commits
// and checks, after each, the bound DESIGN.md §11 states: the node
// arena and the memo hold at most twice the nodes reachable from the
// published root, and the rule ids at most twice the live entries.
func TestFDDArenaBounded(t *testing.T) {
	commits := 10_000
	if testing.Short() {
		commits = 1_000
	}
	a := newACLShape(t, 128, 64)
	for c := 0; c < commits; c++ {
		if _, err := a.sw.Write(a.batch()); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"route", "fw"} {
			fb := tableFor(t, a.sw, name).fb
			if len(fb.nodes) > 2*fb.reach || len(fb.memo) > len(fb.nodes) || len(fb.rules) > 2*len(fb.live) {
				t.Fatalf("commit %d: %s: %d arena nodes, %d memo entries, %d reachable; %d ids, %d live",
					c, name, len(fb.nodes), len(fb.memo), fb.reach, len(fb.rules), len(fb.live))
			}
		}
	}
}

// TestFDDNoColdRebuild: the acl batch's commits never rebuild the
// firewall diagram cold. Each builds at most the nodes it publishes
// whose level and rule set the diagram before it lacked — a cold build
// builds them all — and after every commit the arena, the memo and the
// rule ids keep TestFDDArenaBounded's bounds: reclaiming dead nodes and
// ids must not cost the memo the live ones.
func TestFDDNoColdRebuild(t *testing.T) {
	commits := 2_000
	if testing.Short() {
		commits = 1_000
	}
	a := newACLShape(t, 128, 64)
	fw := tableFor(t, a.sw, "fw")
	prev := ddKeys(fw.fb, snapFor(t, a.sw, "fw").dd)
	var most float64
	for c := 0; c < commits; c++ {
		before := fw.builds
		if _, err := a.sw.Write(a.batch()); err != nil {
			t.Fatal(err)
		}
		cur := ddKeys(fw.fb, snapFor(t, a.sw, "fw").dd)
		fresh := 0
		for k := range cur {
			if !prev[k] {
				fresh++
			}
		}
		if built := fw.builds - before; built > uint64(fresh) {
			t.Fatalf("commit %d built %d nodes, %d of the %d it published are new", c, built, fresh, len(cur))
		}
		most, prev = max(most, float64(fresh)/float64(len(cur))), cur
		for _, name := range []string{"route", "fw"} {
			fb := tableFor(t, a.sw, name).fb
			if len(fb.nodes) > 2*fb.reach || len(fb.memo) > len(fb.nodes) || len(fb.rules) > 2*len(fb.live) {
				t.Fatalf("commit %d: %s: %d arena nodes, %d memo entries, %d reachable; %d ids, %d live",
					c, name, len(fb.nodes), len(fb.memo), fb.reach, len(fb.rules), len(fb.live))
			}
		}
	}
	t.Logf("%d commits: at most %.0f%% of the firewall's reachable nodes new in one", commits, 100*most)
}

// ddKeys names each node reachable in fb's arena from the root of the
// diagram dd that fb's last commit published by its level and the
// serials of its rule set (serials name records across a compaction,
// rule ids do not). A compaction leaves only those nodes in the arena.
func ddKeys(fb *fddBuilder, dd *fdd) map[[2]uint64]bool {
	keys, seen := map[[2]uint64]bool{}, map[int32]bool{}
	var walk func(n int32)
	walk = func(n int32) {
		if n < 0 || seen[n] {
			return
		}
		seen[n] = true
		m, h := fb.meta[n], uint64(0)
		for _, id := range fb.sets[m.off : m.off+m.n] {
			h += fddMix(int32(fb.rules[id].seq))
		}
		keys[[2]uint64{uint64(m.level), h}] = true
		for _, c := range fb.nodes[n].next {
			walk(c)
		}
	}
	switch {
	case dd == nil:
	case len(fb.nodes) == fb.reach:
		for n := range fb.nodes {
			walk(int32(n))
		}
	default:
		walk(dd.root)
	}
	return keys
}

// TestFDDConcurrentCommits: packets run against lpm1 and mix4 while a
// writer churns both, so that under -race the data path's reads of a
// published arena prefix race the writer's appends past it. A /0
// route and a catch-all mix4 rule stay installed throughout: every
// packet must hit some rule, never the default.
func TestFDDConcurrentCommits(t *testing.T) {
	catch := []*p4.Entry{entry("set_out", 1, 0, p4.KeyValue{Value: 0, PrefixLen: 0})}
	mix := []*p4.Entry{entry("set_out", 2, 100, kv(5), p4.KeyValue{Value: 0, PrefixLen: 0},
		p4.KeyValue{Value: 0, Hi: 0xFFFF}, p4.KeyValue{})}
	pp := wfProg()
	pp.Ingress.TableByName("lpm1").Entries = catch
	pp.Ingress.TableByName("mix4").Entries = mix
	sw := New(pp)
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}
	done := make(chan struct{})
	var writerErr error
	// The writer's compactions, by what they reclaimed: only commits that
	// copy the arena while readers walk it make -race see the race.
	nodeCompactions, idCompactions := 0, 0
	tabs := []*ctable{tableFor(t, sw, "lpm1"), tableFor(t, sw, "mix4")}
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(3))
		type added struct {
			table string
			keys  []uint64
		}
		var live []added
		for c := 0; c < 400; c++ {
			b := NewWriteBatch()
			if len(live) > 8 {
				i := rng.Intn(len(live))
				b.Delete(live[i].table, live[i].keys...)
				live = append(live[:i], live[i+1:]...)
			}
			// The top prefix bit set: no delete ever names a catch-all.
			e := randLPMEntry(rng, uint64(10+c))
			e.Keys[0].PrefixLen = max(e.Keys[0].PrefixLen, 1)
			e.Keys[0].Value |= 1 << 31
			m := entry("set_out", uint64(10+c), rng.Intn(8), kv(5), e.Keys[0],
				randRangeEntry(rng, 0).Keys[0], randTernEntry(rng, 0).Keys[0])
			b.Insert("lpm1", e).Insert("mix4", m)
			live = append(live, added{"lpm1", entryKeyVals(e)}, added{"mix4", entryKeyVals(m)})
			var nodes, ids [2]int
			for i, tb := range tabs {
				nodes[i], ids[i] = len(tb.fb.nodes), len(tb.fb.rules)
			}
			if _, err := sw.Write(b); err != nil {
				writerErr = err
				return
			}
			for i, tb := range tabs {
				if len(tb.fb.nodes) < nodes[i] && sw.prog.gen.Load().snaps[tb.gslot].dd != nil {
					nodeCompactions++
				}
				if len(tb.fb.rules) < ids[i] {
					idCompactions++
				}
			}
		}
	}()
	var wg sync.WaitGroup
	var misses, errs atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				sel := uint8(2)
				if rng.Intn(2) == 0 {
					sel = 5
				}
				res, err := sw.Process(matcherPkt(sel, rng.Uint32(), uint16(rng.Uint32())), 0)
				if err != nil {
					errs.Add(1)
					return
				}
				if len(res.Data) < 11 || [4]byte(res.Data[7:11]) == [4]byte{0xFF, 0xFF, 0xFF, 0xFF} {
					misses.Add(1)
				}
			}
		}(r)
	}
	<-done
	wg.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	if errs.Load() != 0 || misses.Load() != 0 {
		t.Fatalf("%d packet errors, %d packets missed every rule", errs.Load(), misses.Load())
	}
	t.Logf("%d node compactions, %d id compactions", nodeCompactions, idCompactions)
	if nodeCompactions < 3 || idCompactions < 3 {
		t.Fatalf("vacuous: the writer crossed %d node compactions and %d id compactions, want 3 of each",
			nodeCompactions, idCompactions)
	}
}

// TestFDDKeylessCompaction: a keyless non-exact table's diagram is a
// bare leaf, with no node to copy. Entries of the wrong arity, which
// the store accepts and a delete can name, are inserted and deleted
// until the dead rule ids force compactions; each commit must keep the
// keyless entry winning and the ids bounded.
func TestFDDKeylessCompaction(t *testing.T) {
	pp := matcherProgReg(nil)
	pp.Ingress.Tables = append(pp.Ingress.Tables, &p4.Table{Name: "nokey",
		Actions: []string{"set_out", "miss_out"}, Default: &p4.ActionCall{Name: "miss_out"}})
	pp.Ingress.Apply = append([]p4.Stmt{&p4.If{
		Cond: &p4.Bin{Op: "==", X: p4.FR("hdr", "h", "sel"), Y: &p4.IntLit{Val: 7, Bits: 8}},
		Then: []p4.Stmt{&p4.ApplyTable{Table: "nokey"}},
	}}, pp.Ingress.Apply...)
	sw := New(pp)
	if sw.CompileErr() != nil {
		t.Fatalf("not compiled: %v", sw.CompileErr())
	}
	fb := tableFor(t, sw, "nokey").fb
	if _, err := sw.Write(NewWriteBatch().Insert("nokey", entry("set_out", 7, 0))); err != nil {
		t.Fatal(err)
	}
	compactions := 0
	for c := 0; c < 20; c++ {
		ids := len(fb.rules)
		if _, err := sw.Write(NewWriteBatch().Insert("nokey", entry("set_out", 8, 0, kv(uint64(c))))); err != nil {
			t.Fatal(err)
		}
		if deleteEntry(t, sw, "nokey", uint64(c)) != 1 {
			t.Fatalf("commit %d: the one-key entry was not deleted", c)
		}
		if len(fb.rules) < ids {
			compactions++
		}
		if len(fb.rules) > 2*len(fb.live) {
			t.Fatalf("commit %d: %d ids, %d live", c, len(fb.rules), len(fb.live))
		}
		res, err := sw.Process(matcherPkt(7, 0, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := matcherOut(t, res); got != 7 {
			t.Fatalf("commit %d: out %d, want the keyless entry's 7", c, got)
		}
	}
	if compactions < 3 {
		t.Fatalf("vacuous: %d id compactions", compactions)
	}
}
