package apps

import (
	"testing"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
	"netcl/internal/passes"
	"netcl/internal/runtime"
	"netcl/internal/wire"
)

// paxosShoot pushes one message through a single paxos device.
func paxosShoot(t *testing.T, sw *bmv2.Switch, spec *runtime.MessageSpec, args [][]uint64) (*bmv2.Result, [][]uint64, wire.Header) {
	t.Helper()
	msg, err := runtime.Pack(spec, wire.Header{
		Src: 100, Dst: 101, From: wire.None, To: wire.AnyDevice, Comp: 1,
	}, args)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Process(runtime.Frame(msg, 1, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped {
		return res, nil, wire.Header{}
	}
	out, _ := runtime.Deframe(res.Data)
	vals := make([][]uint64, len(spec.Args))
	for i, a := range spec.Args {
		vals[i] = make([]uint64, a.Count)
	}
	hdr, err := runtime.Unpack(spec, out, vals)
	if err != nil {
		t.Fatal(err)
	}
	return res, vals, hdr
}

// TestAcceptorRoundDiscipline: an acceptor accepts rounds >= the
// highest seen per instance and rejects lower ones (Paxos phase 2
// safety).
func TestAcceptorRoundDiscipline(t *testing.T) {
	app := ByName("PAXOS")
	prog, specs, _, err := CompileApp(app, passes.TargetTNA, PaxosAcceptor1)
	if err != nil {
		t.Fatal(err)
	}
	sw := bmv2.New(prog)
	spec := specs[1]
	vals := func(v uint64) []uint64 {
		out := make([]uint64, 8)
		out[0] = v
		return out
	}
	// Round 5 on instance 3: accepted, 2B multicast.
	res, _, _ := paxosShoot(t, sw, spec, [][]uint64{{2}, {3}, {5}, {0}, {0}, vals(111)})
	if res.Dropped || res.Mcast != 30 {
		t.Fatalf("round 5 should be accepted and multicast to learners (mcast=%d)", res.Mcast)
	}
	// Lower round 3: rejected (dropped).
	res, _, _ = paxosShoot(t, sw, spec, [][]uint64{{2}, {3}, {3}, {0}, {0}, vals(222)})
	if !res.Dropped {
		t.Fatal("stale round must be dropped")
	}
	// Value from round 5 must be preserved.
	v, err := sw.RegisterRead("reg_AccValue__0", 3)
	if err != nil || v != 111 {
		t.Fatalf("accepted value overwritten: %d %v", v, err)
	}
	// Equal round: accepted again (idempotent re-accept).
	res, out, _ := paxosShoot(t, sw, spec, [][]uint64{{2}, {3}, {5}, {0}, {0}, vals(333)})
	if res.Dropped {
		t.Fatal("equal round must be re-accepted")
	}
	if out[0][0] != 3 { // type promoted to PHASE2B
		t.Errorf("type after accept: %d", out[0][0])
	}
	// Higher round supersedes.
	res, _, _ = paxosShoot(t, sw, spec, [][]uint64{{2}, {3}, {9}, {0}, {0}, vals(999)})
	if res.Dropped {
		t.Fatal("higher round must be accepted")
	}
	v, _ = sw.RegisterRead("reg_AccValue__0", 3)
	if v != 999 {
		t.Errorf("higher-round value not stored: %d", v)
	}
	r, _ := sw.RegisterRead("reg_Round", 3)
	if r != 9 {
		t.Errorf("round register: %d", r)
	}
}

// TestLearnerQuorumAndExactlyOnce: two distinct votes deliver once;
// duplicates and later votes do not re-deliver.
func TestLearnerQuorumAndExactlyOnce(t *testing.T) {
	app := ByName("PAXOS")
	prog, specs, _, err := CompileApp(app, passes.TargetTNA, PaxosLearner)
	if err != nil {
		t.Fatal(err)
	}
	sw := bmv2.New(prog)
	if err := sw.InsertEntry("netcl_fwd", &p4.Entry{
		Keys:   []p4.KeyValue{{Value: 101}},
		Action: &p4.ActionCall{Name: "set_port", Args: []uint64{4}},
	}); err != nil {
		t.Fatal(err)
	}
	spec := specs[1]
	vote := func(mask uint64) [][]uint64 {
		v := make([]uint64, 8)
		v[0] = 4242
		return [][]uint64{{3}, {7}, {0}, {0}, {mask}, v}
	}
	// First vote: stores the value, drops.
	res, _, _ := paxosShoot(t, sw, spec, vote(1))
	if !res.Dropped {
		t.Fatal("first vote should not deliver")
	}
	// Duplicate of the same vote: still no quorum.
	res, _, _ = paxosShoot(t, sw, spec, vote(1))
	if !res.Dropped {
		t.Fatal("duplicate vote should not deliver")
	}
	// Second distinct vote: quorum => deliver to the app host.
	res, out, hdr := paxosShoot(t, sw, spec, vote(2))
	if res.Dropped {
		t.Fatal("quorum should deliver")
	}
	if hdr.Act != wire.ActSendHost || hdr.Dst != 101 {
		t.Errorf("delivery action: act=%d dst=%d", hdr.Act, hdr.Dst)
	}
	if out[0][0] != 4 { // DELIVER
		t.Errorf("delivered type: %d", out[0][0])
	}
	// Third vote: already done, no re-delivery.
	res, _, _ = paxosShoot(t, sw, spec, vote(4))
	if !res.Dropped {
		t.Fatal("third vote must not re-deliver")
	}
	if v, _ := sw.RegisterRead("reg_LrnValue__0", 7); v != 4242 {
		t.Errorf("learned value: %d", v)
	}
}
