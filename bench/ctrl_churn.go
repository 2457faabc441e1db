package main

import (
	"fmt"
	"math/rand"
	"time"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
	"netcl/internal/p4rt"
)

// ctrl_churn: the write side of the table layer. The acl_fwd program
// plus a 100 000-entry exact flow table; one p4rt TCP client commits
// 64-op batches one at a time (a closed loop: one client, one batch
// outstanding): 56 insert/modify/delete ops on the flow table and 8 on
// the LPM and ternary tables. After each commit 32 probe packets aimed
// at the entries just changed must observe exactly the committed rule
// set (read-your-writes against the benchmark's model). Request = one
// committed control op.
const (
	ctrlFlows     = 100_000
	ctrlBatchOps  = 64
	ctrlExactOps  = 56 // 19 inserts, 19 deletes, 18 modifies
	ctrlInserts   = 19
	ctrlDeletes   = 19
	ctrlProbes    = 32
	ctrlProbeEach = 8 // probes per kind of flow op; the other 8 follow the route/fw ops
	// ctrlBatchesPerRound is frozen: ~0.15 s a round at the seed commit.
	ctrlBatchesPerRound = 64
)

var ctrlChurnDef = &workloadDef{
	name:  "ctrl_churn",
	why:   "The write side of the same bmv2 tables plus the p4rt codec and TCP path: a matcher that speeds acl_fwd by making snapshot rebuilds dearer shows here as a loss.",
	work:  fmt.Sprintf("%d batches x %d ops (%d flow-table, %d route/fw) + %d probes each, %d-entry flow table", ctrlBatchesPerRound, ctrlBatchOps, ctrlExactOps, ctrlBatchOps-ctrlExactOps, ctrlProbes, ctrlFlows),
	setup: setupCtrlChurn,
}

type ctrlChurn struct {
	prog   *p4.Program
	sw     *bmv2.Switch
	srv    *p4rt.Server
	cl     *p4rt.TCPClient
	rng    *rand.Rand
	nstage int

	// The model: the rule set every committed batch has produced.
	routes []aclRoute
	rules  []aclRule
	keys   *aclKeys
	flows  map[uint32]uint8 // flow key -> class
	live   []uint32         // flow keys, for drawing victims
	pos    map[uint32]int32 // flow key -> index in live
	serial int

	aimed []aclPacket
	pkts  [][]byte
	ports []int
	res   []bmv2.Result
	errs  []error
	log   frameLog
}

func flowEntry(key uint32, cls uint8) *p4.Entry {
	return &p4.Entry{
		Keys:   []p4.KeyValue{{Value: uint64(key), PrefixLen: -1}},
		Action: &p4.ActionCall{Name: "set_cls", Args: []uint64{uint64(cls)}},
	}
}

func setupCtrlChurn(c *ctx) (instance, error) {
	rng := rand.New(rand.NewSource(c.seed))
	u := &ctrlChurn{rng: rng, flows: map[uint32]uint8{}, pos: map[uint32]int32{}}
	u.routes, u.rules, u.keys = genACL(rng)
	nflows := max(c.scaled(ctrlFlows), 4*ctrlExactOps)
	entries := make([]*p4.Entry, 0, nflows)
	for len(u.live) < nflows {
		key, cls := u.newFlow()
		entries = append(entries, flowEntry(key, cls))
	}
	u.prog = aclProgram(entries)
	rep := c.cs.fit(nil, 0, u.prog)
	if !rep.Fits {
		return nil, fmt.Errorf("acl+flow program does not fit: %s", rep.Reason)
	}
	u.nstage = rep.StagesUsed
	u.sw = bmv2.New(u.prog)
	if _, err := u.sw.Write(aclInstall(u.routes, u.rules)); err != nil {
		return nil, err
	}
	var err error
	if u.srv, err = p4rt.Serve("127.0.0.1:0", &p4rt.Direct{SW: u.sw}); err != nil {
		return nil, err
	}
	if u.cl, err = p4rt.Dial(u.srv.Addr()); err != nil {
		u.close()
		return nil, err
	}
	u.pkts = make([][]byte, ctrlProbes)
	u.ports = make([]int, ctrlProbes)
	u.res = make([]bmv2.Result, ctrlProbes)
	u.errs = make([]error, ctrlProbes)
	for i := range u.res {
		u.ports[i] = aclInPort
		u.res[i].Data = make([]byte, 0, aclHdrLen)
	}
	return u, nil
}

func (u *ctrlChurn) close() {
	if u.cl != nil {
		u.cl.Close()
	}
	if u.srv != nil {
		u.srv.Close()
	}
}

// newFlow draws a key the model does not hold and adds it.
func (u *ctrlChurn) newFlow() (uint32, uint8) {
	for {
		key := u.rng.Uint32()
		if _, ok := u.flows[key]; !ok {
			cls := uint8(1 + u.rng.Intn(255))
			u.flows[key] = cls
			u.pos[key] = int32(len(u.live))
			u.live = append(u.live, key)
			return key, cls
		}
	}
}

func (u *ctrlChurn) dropFlow(key uint32) {
	i := u.pos[key]
	last := u.live[len(u.live)-1]
	u.live[i], u.pos[last] = last, i
	u.live = u.live[:len(u.live)-1]
	delete(u.pos, key)
	delete(u.flows, key)
}

func (u *ctrlChurn) probe(p aclPacket) { u.aimed = append(u.aimed, p) }

// flowProbe aims a probe at one flow key.
func (u *ctrlChurn) flowProbe(key uint32) {
	p := genPacket(u.rng, u.routes)
	p.sip = key
	u.probe(p)
}

// nextBatch draws the next 64 ops, applies them to the model, and aims
// the probes at what changed. kinds selects which tables it touches
// (the probes of the traced run isolate the two).
func (u *ctrlChurn) nextBatch(exact, nonExact bool) *p4rt.WriteBatch {
	b := p4rt.NewWriteBatch()
	u.aimed = u.aimed[:0]
	u.serial++
	if exact {
		for i := 0; i < ctrlExactOps; i++ {
			switch {
			case i < ctrlInserts:
				key, cls := u.newFlow()
				b.Insert("flow", flowEntry(key, cls))
				if i < ctrlProbeEach {
					u.flowProbe(key)
				}
			case i < ctrlInserts+ctrlDeletes:
				key := u.live[u.rng.Intn(len(u.live))]
				u.dropFlow(key)
				b.Delete("flow", uint64(key))
				if i < ctrlInserts+ctrlProbeEach {
					u.flowProbe(key)
				}
			default:
				key := u.live[u.rng.Intn(len(u.live))]
				cls := u.flows[key]%255 + 1
				u.flows[key] = cls
				b.Modify("flow", flowEntry(key, cls))
				if i < ctrlInserts+ctrlDeletes+ctrlProbeEach {
					u.flowProbe(key)
				}
			}
		}
	}
	if nonExact {
		// Route table: replace one route, re-target two. Firewall: replace
		// one rule (the newcomer takes over its priority), flip two.
		ri := u.rng.Intn(len(u.routes))
		old := u.routes[ri]
		delete(u.keys.prefixes, old.prefix)
		b.Delete("route", uint64(old.prefix))
		u.routes[ri] = genRoute(u.rng, u.serial, u.keys)
		b.Insert("route", u.routes[ri].entry())
		u.probe(u.under(old.prefix, old.plen))
		u.probe(u.under(u.routes[ri].prefix, u.routes[ri].plen))
		for k := 0; k < 2; k++ {
			r := &u.routes[u.rng.Intn(len(u.routes))]
			r.hop, r.port = r.hop%250+1, r.port%32+1
			b.Modify("route", r.entry())
			u.probe(u.under(r.prefix, r.plen))
		}
		fi := u.rng.Intn(len(u.rules))
		oldRule := u.rules[fi]
		delete(u.keys.rules, oldRule.key())
		b.Delete("fw", uint64(oldRule.sip), uint64(oldRule.lo), uint64(oldRule.proto))
		u.rules[fi] = genRule(u.rng, u.serial, oldRule.prio, u.keys)
		b.Insert("fw", u.rules[fi].entry())
		u.probe(u.matching(oldRule))
		u.probe(u.matching(u.rules[fi]))
		for k := 0; k < 2; k++ {
			r := &u.rules[u.rng.Intn(len(u.rules))]
			r.deny = !r.deny
			b.Modify("fw", r.entry())
			u.probe(u.matching(*r))
		}
	}
	return b
}

// under draws a packet whose destination falls under a prefix.
func (u *ctrlChurn) under(prefix uint32, plen int) aclPacket {
	p := genPacket(u.rng, u.routes)
	p.dip = prefix | u.rng.Uint32()&^prefixMask(plen)
	return p
}

// matching draws a packet a firewall rule matches.
func (u *ctrlChurn) matching(r aclRule) aclPacket {
	p := genPacket(u.rng, u.routes)
	p.sip = r.sip | u.rng.Uint32()&^r.smask
	p.dport = r.lo + uint16(u.rng.Intn(int(r.hi-r.lo)+1))
	p.proto = r.proto
	return p
}

// observe sends the probes through the switch and checks each against
// the model: the committed rule set, and nothing else, must be visible.
func (u *ctrlChurn) observe(c *ctx) bool {
	n := len(u.aimed)
	for i, p := range u.aimed {
		u.pkts[i] = append(u.pkts[i][:0], p.bytes()...)
	}
	c.tr.begin("bmv2.probe", layerBmv2, int64(u.serial))
	u.sw.ProcessBurst(u.pkts[:n], u.ports[:n], u.res[:n], u.errs[:n])
	c.tr.end(n)
	ok := true
	for i, p := range u.aimed {
		want := aclEval(p, u.routes, u.rules)
		want.cls = u.flows[p.sip]
		if !aclCheck(&u.res[i], u.errs[i], want) {
			ok = false
		}
		if c.tr != nil {
			u.log.addFrame(u.pkts[i], aclInPort)
		}
	}
	return ok
}

func (u *ctrlChurn) round(c *ctx) (roundOut, error) {
	var out roundOut
	per := c.scaled(ctrlBatchesPerRound)
	for i := 0; i < per; i++ {
		b := u.nextBatch(true, true)
		if c.sabotage && i == 0 {
			b.Ops = b.Ops[1:] // the first insert never reaches the switch
		}
		out.attempted += ctrlBatchOps
		t0 := time.Now()
		c.tr.begin("p4rt.write", layerP4rt, int64(u.serial))
		_, err := u.cl.Write(b)
		c.tr.end(1)
		lat := time.Since(t0)
		if err != nil {
			return out, fmt.Errorf("batch %d: %w", u.serial, err)
		}
		if u.observe(c) {
			out.requests += ctrlBatchOps
			c.lat = append(c.lat, float64(lat)/1e3)
		}
	}
	return out, nil
}

func (u *ctrlChurn) stages() int { return u.nstage }

func (u *ctrlChurn) probes(c *ctx, budget time.Duration) error {
	direct := &p4rt.Direct{SW: u.sw}
	quiet := &ctx{} // probe batches are checked too, but leave no spans
	var failOps int
	// write commits one batch under a span that counts it as calls calls.
	write := func(name string, cl p4rt.Client, b *p4rt.WriteBatch, calls int) {
		c.tr.begin(name, layerProbe, int64(u.serial))
		_, err := cl.Write(b)
		c.tr.end(calls)
		if err != nil || !u.observe(quiet) {
			failOps += b.Len()
		}
	}
	deadline := time.Now().Add(budget / 2)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		// A mixed batch over TCP and one through Direct; then the two
		// kinds of op apart, in process: per op on the exact table, per
		// batch on the tables that rebuild.
		write("p4rt.tcp_batch", u.cl, u.nextBatch(true, true), 1)
		write("p4rt.direct_batch", direct, u.nextBatch(true, true), 1)
		write("bmv2.write_exact", direct, u.nextBatch(true, false), ctrlExactOps)
		write("bmv2.write_nonexact", direct, u.nextBatch(false, true), 1)
	}
	tcp, dir := c.tr.perCall("p4rt.tcp_batch")/1e3, c.tr.perCall("p4rt.direct_batch")/1e3
	c.layer["p4rt.tcp_batch_rtt_us"] = tcp
	c.layer["p4rt.direct_batch_us"] = dir
	c.layer["p4rt.tcp_overhead_us"] = tcp - dir
	c.layer["bmv2.write_us_per_op"] = c.tr.perCall("bmv2.write_exact") / 1e3
	c.layer["bmv2.write_nonexact_us_per_batch"] = c.tr.perCall("bmv2.write_nonexact") / 1e3
	c.layer["bmv2.fail_ops"] = float64(failOps)

	fresh := func() (*bmv2.Switch, error) { return u.sw, nil }
	return probeBmv2(c, budget/2, u.prog, fresh, &u.log)
}

// budget: the commit spans are p4rt's; the part of each that is the
// switch applying the batch is what the same batch costs via Direct.
func (u *ctrlChurn) budget(c *ctx) map[string]float64 {
	shares := spanShares(c)
	_, batches := c.tr.total("p4rt.write")
	move(shares, layerP4rt, layerBmv2, float64(batches)*c.layer["p4rt.direct_batch_us"]*1e3)
	return shares
}
