package apps

// paxos.go is the PAXOS application's host protocol, written once for
// every driver that runs it: the client command packer, the learner
// delivery decoder, and the leaf/spine P4xos bed of RunFabricPaxos and
// RunChurnPaxosReelect. Each driver keeps its own dedup and scoring
// policy in the callback it hands the decoder.

import (
	"errors"
	"fmt"

	"netcl/internal/netsim"
	"netcl/internal/passes"
	"netcl/internal/runtime"
)

// P4xos message types (PaxosSource's REQUEST and DELIVER) and the
// client/application host ids the learner kernel delivers between.
const (
	paxosRequest   = 1
	paxosDeliver   = 4
	paxosClientID  = 100
	paxosAppHostID = 101
)

// paxosValue is command c's value: the learner delivers instance i+1
// with command i when submission is serial and nothing is lost.
func paxosValue(c int) uint64 { return uint64(1000 + c) }

var errNotDelivery = errors.New("paxos: message is not a learner DELIVER")

// paxosArgs is the P4xos message codec.
type paxosArgs struct {
	*kernelArgs
	typ, inst, v []uint64
}

func newPaxosArgs(spec *runtime.MessageSpec) *paxosArgs {
	k := newKernelArgs(spec)
	return &paxosArgs{kernelArgs: k, typ: k.arg("type"), inst: k.arg("instance"), v: k.arg("v")}
}

// command packs a client REQUEST carrying val to the leader.
func (a *paxosArgs) command(val uint64) ([]byte, error) {
	a.zero()
	a.typ[0], a.v[0] = paxosRequest, val
	return a.pack(runtime.Message{Src: paxosClientID, Dst: paxosAppHostID, Device: PaxosLeader, Comp: 1}.Header())
}

// delivery decodes a learner DELIVER into its instance and command
// value.
func (a *paxosArgs) delivery(msg []byte) (inst, val uint64, err error) {
	if _, err := a.unpack(msg); err != nil {
		return 0, 0, err
	}
	if a.typ[0] != paxosDeliver {
		return 0, 0, errNotDelivery
	}
	return a.inst[0], a.v[0], nil
}

// onDeliver hands every message the application host receives to fn,
// decoded.
func onDeliver(h *netsim.Host, spec *runtime.MessageSpec, fn func(h *netsim.Host, inst, val uint64, err error)) {
	a := newPaxosArgs(spec)
	h.SetReceive(func(h *netsim.Host, msg []byte) {
		inst, val, err := a.delivery(msg)
		fn(h, inst, val, err)
	})
}

// paxosLog is the application's delivery log when clients may retry:
// at most one delivery per instance, and — since a retried command is
// chosen under a fresh instance — at most one per command value.
type paxosLog struct {
	byInst, byVal map[uint64]bool
}

func newPaxosLog() *paxosLog {
	return &paxosLog{byInst: map[uint64]bool{}, byVal: map[uint64]bool{}}
}

// deliver records one delivery in res and reports whether it carried a
// new command. checkOrder adds the serial-submission oracle
// (instance i+1 carries command i, see paxosValue), which holds only
// without loss and pipelining.
func (l *paxosLog) deliver(res *PaxosResult, inst, val uint64, checkOrder bool) bool {
	switch {
	case l.byInst[inst]:
		res.Duplicates++ // at-most-once per instance
		return false
	case l.byVal[val]:
		l.byInst[inst] = true
		res.Duplicates++ // retried command, fresh instance
		return false
	}
	l.byInst[inst], l.byVal[val] = true, true
	res.Delivered++
	if checkOrder && val != paxosValue(int(inst)-1) {
		res.WrongValue++
	}
	return true
}

// undelivered counts the commands 0..n-1 never delivered.
func (l *paxosLog) undelivered(n int) int {
	missing := 0
	for c := 0; c < n; c++ {
		if !l.byVal[paxosValue(c)] {
			missing++
		}
	}
	return missing
}

// runPaxosLoad is the client load of RunPaxos and RunFabricPaxos: the
// client submits every command at once, and the application host
// counts each delivery through a dedup log. Under faults each command
// rearms a retransmission timer until the learner delivers it or its
// retry budget runs out.
func runPaxosLoad(n *netsim.Network, spec *runtime.MessageSpec, client, appHost *netsim.Host, cfg PaxosConfig) (*PaxosResult, error) {
	cfg.Commands = orDefault(cfg.Commands, 16)
	cfg.RetransmitNs = orDefault(cfg.RetransmitNs, 400*netsim.Microsecond)
	cfg.RetryBudget = orDefault(cfg.RetryBudget, 32)
	lossy := cfg.Faults.Active()
	res := &PaxosResult{}
	log := newPaxosLog()
	onDeliver(appHost, spec, func(_ *netsim.Host, inst, val uint64, err error) {
		if err == nil {
			log.deliver(res, inst, val, !lossy)
		}
	})

	tx := newPaxosArgs(spec)
	var submit func(c, attempt int)
	submit = func(c, attempt int) {
		if log.byVal[paxosValue(c)] {
			return
		}
		if attempt > 0 {
			res.Retries++
		}
		msg, err := tx.command(paxosValue(c))
		if err != nil {
			return
		}
		client.Send(msg)
		if lossy && attempt < cfg.RetryBudget {
			n.At(cfg.RetransmitNs, func() { submit(c, attempt+1) })
		}
	}
	for c := 0; c < cfg.Commands; c++ {
		submit(c, 0)
		res.Submitted++
	}
	if err := n.RunAll(); err != nil {
		return nil, err
	}
	res.Undelivered = log.undelivered(cfg.Commands)
	res.PacketsLost = n.FaultsDropped
	if lossy && res.Undelivered > 0 {
		return res, fmt.Errorf("paxos: %d/%d commands undelivered after retry budget (%d)",
			res.Undelivered, cfg.Commands, cfg.RetryBudget)
	}
	return res, nil
}

// paxosStandby is the physical id of the spare spine that takes over
// the coordinator role (compiled with PaxosLeader's logical id).
const paxosStandby = 6

// paxosBed is the leaf/spine P4xos deployment: the three acceptors as
// leaves, the leader and learner as spines — every role one fabric hop
// from every other — plus, for re-election, a standby spine compiled
// as the leader. Multicast groups come from the topology's adjacency,
// not hand-numbered ports. The client homes on an acceptor leaf, not
// the leader, so its uplink survives the coordinator's death and its
// requests transit the fabric on the logical id, which can be
// re-routed.
type paxosBed struct {
	n                        *netsim.Network
	topo                     *netsim.Topo
	spec                     *runtime.MessageSpec
	leader, learner, standby *netsim.Device // standby is nil without one
	client, appHost          *netsim.Host
}

func buildPaxosBed(target passes.Target, withStandby bool) (*paxosBed, error) {
	spines := []uint16{PaxosLeader, PaxosLearner}
	if withStandby {
		spines = append(spines, paxosStandby)
	}
	leaves := []uint16{PaxosAcceptor1, PaxosAcceptor2, PaxosAcceptor3}
	app := ByName("PAXOS")
	fab, err := compileFabric(target, map[uint16]uint16{paxosStandby: PaxosLeader},
		func(uint16) *App { return app }, append(append([]uint16{}, leaves...), spines...)...)
	if err != nil {
		return nil, fmt.Errorf("paxos fabric: %w", err)
	}
	b := &paxosBed{n: netsim.NewNetwork(), spec: fab.spec}
	b.n.MaxEvents = 10_000_000
	b.topo, err = netsim.BuildLeafSpine(b.n, netsim.LeafSpineSpec{
		LeafIDs: leaves, SpineIDs: spines, LeafProg: fab.prog, SpineProg: fab.prog,
	})
	if err != nil {
		return nil, err
	}
	b.leader, b.learner = b.n.Device(PaxosLeader), b.n.Device(PaxosLearner)
	b.client, b.appHost = b.n.AddHost(paxosClientID), b.n.AddHost(paxosAppHostID)
	b.topo.AttachHost(b.client, b.n.Device(PaxosAcceptor1), netsim.LinkClass{})
	b.topo.AttachHost(b.appHost, b.learner, netsim.LinkClass{})
	if err := b.topo.InstallRoutes(netsim.RouteOptions{ECMP: true, HostRoutes: true}); err != nil {
		return nil, err
	}
	// The standby's acceptor group is static config: it only fires once
	// leader traffic is re-routed there, so it is set at build time.
	coords := []*netsim.Device{b.leader}
	if withStandby {
		b.standby = b.n.Device(paxosStandby)
		coords = append(coords, b.standby)
	}
	for _, coord := range coords {
		var accPorts []int
		for _, acc := range b.topo.Tiers[0] {
			accPorts = append(accPorts, b.topo.PortTo(coord, acc))
		}
		coord.SetMulticastGroup(20, accPorts)
	}
	for _, acc := range b.topo.Tiers[0] {
		acc.SetMulticastGroup(30, []int{b.topo.PortTo(acc, b.learner)})
	}
	return b, nil
}
