package main

import (
	"fmt"
	"math/rand"
	"time"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
)

// acl.go is the benchmark's own route+firewall program, its rule and
// packet generators, and its oracle: a linear-scan evaluator that
// shares no code with bmv2's matchers.
//
// The program parses one 15-byte header, picks the next hop by longest
// prefix on the destination (128 prefixes), then permits or drops by a
// ternary/range firewall on source, destination port and protocol (64
// rules). ctrl_churn runs the same program plus an exact-match flow
// table that classifies by source.

const (
	aclRoutes  = 128
	aclRules   = 64
	aclHdrLen  = 15
	aclPackets = 65536
	aclBurst   = 32
	aclInPort  = 1
	// Byte offsets in the header.
	aclOffHop = 13
	aclOffCls = 14
)

type aclRoute struct {
	prefix uint32
	plen   int
	hop    uint8
	port   uint16
}

type aclRule struct {
	sip, smask uint32
	lo, hi     uint16
	proto      uint8 // matched under mask 0x3
	deny       bool
	prio       int
}

// aclPacket is the parsed form the generators and the oracle use.
type aclPacket struct {
	dip, sip     uint32
	sport, dport uint16
	proto        uint8
}

func (p aclPacket) bytes() []byte {
	return []byte{
		byte(p.dip >> 24), byte(p.dip >> 16), byte(p.dip >> 8), byte(p.dip),
		byte(p.sip >> 24), byte(p.sip >> 16), byte(p.sip >> 8), byte(p.sip),
		byte(p.sport >> 8), byte(p.sport), byte(p.dport >> 8), byte(p.dport),
		p.proto, 0, 0,
	}
}

// aclVerdict is what the program must do with a packet.
type aclVerdict struct {
	drop bool
	hop  uint8
	port uint16
	cls  uint8
}

// aclProgram builds the program; flows, when non-nil, adds the exact
// flow table preloaded with those entries.
func aclProgram(flows []*p4.Entry) *p4.Program {
	pp := &p4.Program{Name: "acl", Target: p4.TargetTNA}
	pp.Headers = []*p4.HeaderDecl{{Name: "f", Fields: []*p4.Field{
		{Name: "dip", Bits: 32}, {Name: "sip", Bits: 32},
		{Name: "sport", Bits: 16}, {Name: "dport", Bits: 16},
		{Name: "proto", Bits: 8}, {Name: "hop", Bits: 8}, {Name: "cls", Bits: 8},
	}}}
	pp.Metadata = []*p4.Field{
		{Name: "egress_port", Bits: 16}, {Name: "mcast_grp", Bits: 16}, {Name: "drop_flag", Bits: 1},
	}
	pp.Parser = &p4.Parser{Name: "P", States: []*p4.ParserState{
		{Name: "start", Extracts: []string{"f"}, Next: "accept"},
	}}
	ctl := &p4.Control{Name: "In"}
	ctl.Actions = []*p4.ActionDecl{
		{Name: "set_hop", Params: []*p4.Field{{Name: "h", Bits: 8}, {Name: "p", Bits: 16}},
			Body: []p4.Stmt{
				&p4.Assign{LHS: p4.FR("hdr", "f", "hop"), RHS: p4.FR("h")},
				&p4.Assign{LHS: p4.FR("meta", "egress_port"), RHS: p4.FR("p")},
			}},
		{Name: "deny",
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("meta", "drop_flag"), RHS: &p4.IntLit{Val: 1, Bits: 1}}}},
		{Name: "permit"},
		{Name: "set_cls", Params: []*p4.Field{{Name: "c", Bits: 8}},
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "f", "cls"), RHS: p4.FR("c")}}},
	}
	ctl.Tables = []*p4.Table{
		{Name: "route", Keys: []*p4.TableKey{{Expr: p4.FR("hdr", "f", "dip"), Match: p4.MatchLPM}},
			Actions: []string{"set_hop", "deny"}, Default: &p4.ActionCall{Name: "deny"}, Size: 1024},
		{Name: "fw", Keys: []*p4.TableKey{
			{Expr: p4.FR("hdr", "f", "sip"), Match: p4.MatchTernary},
			{Expr: p4.FR("hdr", "f", "dport"), Match: p4.MatchRange},
			{Expr: p4.FR("hdr", "f", "proto"), Match: p4.MatchTernary},
		}, Actions: []string{"permit", "deny"}, Default: &p4.ActionCall{Name: "permit"}, Size: 512},
	}
	ctl.Apply = []p4.Stmt{&p4.ApplyTable{Table: "route"}, &p4.ApplyTable{Table: "fw"}}
	if flows != nil {
		ctl.Tables = append(ctl.Tables, &p4.Table{
			Name: "flow", Keys: []*p4.TableKey{{Expr: p4.FR("hdr", "f", "sip"), Match: p4.MatchExact}},
			Actions: []string{"set_cls", "permit"}, Default: &p4.ActionCall{Name: "permit"},
			Entries: flows, Size: 1 << 17,
		})
		ctl.Apply = append(ctl.Apply, &p4.ApplyTable{Table: "flow"})
	}
	pp.Ingress = ctl
	return pp
}

func (r aclRoute) entry() *p4.Entry {
	return &p4.Entry{
		Keys:   []p4.KeyValue{{Value: uint64(r.prefix), PrefixLen: r.plen}},
		Action: &p4.ActionCall{Name: "set_hop", Args: []uint64{uint64(r.hop), uint64(r.port)}},
	}
}

func (r aclRule) entry() *p4.Entry {
	act := "permit"
	if r.deny {
		act = "deny"
	}
	return &p4.Entry{
		Keys: []p4.KeyValue{
			{Value: uint64(r.sip), Mask: uint64(r.smask)},
			{Value: uint64(r.lo), Hi: uint64(r.hi)},
			{Value: uint64(r.proto), Mask: 0x3},
		},
		Action: &p4.ActionCall{Name: act}, Priority: r.prio,
	}
}

func prefixMask(plen int) uint32 {
	if plen <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(plen))
}

// aclKeys holds the key values of the live routes and rules. The
// control plane names an entry by its key values alone, so they are
// kept distinct; with that, and unique priorities, the oracle's winner
// is unique and does not depend on insertion order.
type aclKeys struct {
	prefixes map[uint32]bool
	rules    map[[3]uint32]bool
}

func newACLKeys() *aclKeys {
	return &aclKeys{prefixes: map[uint32]bool{}, rules: map[[3]uint32]bool{}}
}

func (r aclRule) key() [3]uint32 { return [3]uint32{r.sip, uint32(r.lo), uint32(r.proto)} }

// genRoute draws a route whose prefix value no live route has.
func genRoute(rng *rand.Rand, i int, taken *aclKeys) aclRoute {
	for {
		plen := 8 + rng.Intn(25)
		prefix := rng.Uint32() & prefixMask(plen)
		if !taken.prefixes[prefix] {
			taken.prefixes[prefix] = true
			return aclRoute{prefix: prefix, plen: plen, hop: uint8(1 + i%250), port: uint16(1 + i%32)}
		}
	}
}

// genRule draws a firewall rule with the given (unique) priority.
func genRule(rng *rand.Rand, i, prio int, taken *aclKeys) aclRule {
	for {
		smask := prefixMask(rng.Intn(25))
		lo := uint16(rng.Intn(1 << 15))
		r := aclRule{
			sip: rng.Uint32() & smask, smask: smask,
			lo: lo, hi: lo + uint16(rng.Intn(1<<10)),
			proto: uint8(rng.Intn(4)), deny: i%3 == 0, prio: prio,
		}
		if !taken.rules[r.key()] {
			taken.rules[r.key()] = true
			return r
		}
	}
}

func genACL(rng *rand.Rand) ([]aclRoute, []aclRule, *aclKeys) {
	taken := newACLKeys()
	routes := make([]aclRoute, aclRoutes)
	for i := range routes {
		routes[i] = genRoute(rng, i, taken)
	}
	rules := make([]aclRule, aclRules)
	for i, prio := range rng.Perm(aclRules) {
		rules[i] = genRule(rng, i, prio, taken)
	}
	return routes, rules, taken
}

// genPacket draws a packet: 15 in 16 fall under some route, so most
// traverse both tables.
func genPacket(rng *rand.Rand, routes []aclRoute) aclPacket {
	dip := rng.Uint32()
	if rng.Intn(16) != 0 {
		r := routes[rng.Intn(len(routes))]
		dip = r.prefix | dip&^prefixMask(r.plen)
	}
	return aclPacket{dip: dip, sip: rng.Uint32(), sport: uint16(rng.Intn(1 << 16)),
		dport: uint16(rng.Intn(1 << 15)), proto: uint8(rng.Intn(4))}
}

// aclEval is the oracle: a linear scan over routes and rules.
func aclEval(p aclPacket, routes []aclRoute, rules []aclRule) aclVerdict {
	v := aclVerdict{drop: true}
	best := -1
	for _, r := range routes {
		if r.plen > best && p.dip&prefixMask(r.plen) == r.prefix {
			best, v.hop, v.port, v.drop = r.plen, r.hop, r.port, false
		}
	}
	win := -1
	for i, r := range rules {
		if p.sip&r.smask == r.sip && p.dport >= r.lo && p.dport <= r.hi && p.proto&0x3 == r.proto {
			if win < 0 || r.prio < rules[win].prio {
				win = i
			}
		}
	}
	if win >= 0 && rules[win].deny {
		v.drop = true
	}
	return v
}

// aclCheck compares one switch result with the oracle's verdict.
func aclCheck(res *bmv2.Result, err error, want aclVerdict) bool {
	if err != nil {
		return false
	}
	if want.drop {
		return res.Dropped
	}
	return !res.Dropped && len(res.Data) >= aclHdrLen && res.Port == int(want.port) &&
		res.Data[aclOffHop] == want.hop && res.Data[aclOffCls] == want.cls
}

// acl_fwd ---------------------------------------------------------------

// acl_fwd: bare forwarding through Switch.ProcessBurst, no simulator:
// 65 536 seeded packets replayed in bursts of 32 from one goroutine (a
// closed loop), every verdict and next hop checked. Request = a packet.
var aclFwdDef = &workloadDef{
	name:  "acl_fwd",
	why:   "Smallest packet, non-exact match dominated: the read side of bmv2 tables, where a matcher or pipeline change must show and netsim/runtime changes must not.",
	work:  fmt.Sprintf("%d packets of %d bytes in bursts of %d, %d LPM routes, %d ternary/range rules", aclPackets, aclHdrLen, aclBurst, aclRoutes, aclRules),
	setup: setupACLFwd,
}

type aclFwd struct {
	prog   *p4.Program
	sw     *bmv2.Switch
	routes []aclRoute
	rules  []aclRule
	pkts   [][]byte
	want   []aclVerdict
	ports  []int
	res    []bmv2.Result
	errs   []error
	nstage int
	log    frameLog
}

func setupACLFwd(c *ctx) (instance, error) {
	rng := rand.New(rand.NewSource(c.seed))
	a := &aclFwd{prog: aclProgram(nil)}
	a.routes, a.rules, _ = genACL(rng)
	rep := c.cs.fit(nil, 0, a.prog)
	if !rep.Fits {
		return nil, fmt.Errorf("acl program does not fit: %s", rep.Reason)
	}
	a.nstage = rep.StagesUsed
	a.sw = bmv2.New(a.prog)
	if _, err := a.sw.Write(aclInstall(a.routes, a.rules)); err != nil {
		return nil, err
	}
	n := max(c.scaled(aclPackets), aclBurst)
	a.pkts = make([][]byte, n)
	a.want = make([]aclVerdict, n)
	for i := range a.pkts {
		p := genPacket(rng, a.routes)
		a.pkts[i], a.want[i] = p.bytes(), aclEval(p, a.routes, a.rules)
	}
	a.ports = make([]int, aclBurst)
	for i := range a.ports {
		a.ports[i] = aclInPort
	}
	a.res = make([]bmv2.Result, aclBurst)
	for i := range a.res {
		a.res[i].Data = make([]byte, 0, aclHdrLen)
	}
	a.errs = make([]error, aclBurst)
	return a, nil
}

func aclInstall(routes []aclRoute, rules []aclRule) *bmv2.WriteBatch {
	b := bmv2.NewWriteBatch()
	for _, r := range routes {
		b.Insert("route", r.entry())
	}
	for _, r := range rules {
		b.Insert("fw", r.entry())
	}
	return b
}

func (a *aclFwd) round(c *ctx) (roundOut, error) {
	var out roundOut
	for i := 0; i < len(a.pkts); i += aclBurst {
		j := min(i+aclBurst, len(a.pkts))
		t0 := time.Now()
		c.tr.begin("bmv2.burst", layerBmv2, int64(i))
		a.sw.ProcessBurst(a.pkts[i:j], a.ports[:j-i], a.res, a.errs)
		c.tr.end(j - i)
		// A packet's latency is its burst's: the next burst waits for it.
		c.lat = append(c.lat, float64(time.Since(t0))/1e3)
		if c.sabotage && i == 0 && !a.res[0].Dropped {
			a.res[0].Data[aclOffHop] ^= 0x01
		} else if c.sabotage && i == 0 {
			a.res[0].Dropped = false
		}
		for k := i; k < j; k++ {
			out.attempted++
			if aclCheck(&a.res[k-i], a.errs[k-i], a.want[k]) {
				out.requests++
			}
		}
	}
	return out, nil
}

func (a *aclFwd) stages() int { return a.nstage }
func (a *aclFwd) close()      {}

func (a *aclFwd) probes(c *ctx, budget time.Duration) error {
	for i, p := range a.pkts {
		if i >= logCap {
			break
		}
		a.log.addFrame(p, aclInPort)
	}
	fresh := func() (*bmv2.Switch, error) {
		sw := bmv2.New(a.prog)
		_, err := sw.Write(aclInstall(a.routes, a.rules))
		return sw, err
	}
	return probeBmv2(c, budget, a.prog, fresh, &a.log)
}

func (a *aclFwd) budget(c *ctx) map[string]float64 { return spanShares(c) }
