package p4_test

import (
	"errors"
	"fmt"
	"testing"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
	"netcl/internal/p4c"
)

// validateSrc is a program Validate accepts with the control members
// and apply body of a row spliced in.
const validateSrc = `header h_t { bit<8> x; }
struct metadata_t { bit<16> egress_port; bit<16> mcast_grp; bit<1> drop_flag; }
parser P(packet_in pkt) {
    state start { pkt.extract(hdr.h); transition select(hdr.h.x) { 1: other; default: accept; } }
    state other { transition accept; }
}
control In() {
    Register<bit<32>, bit<32>>(8) r;
    %s
    apply { %s }
}
`

// TestValidate: the base program checks, fits and runs; each row is
// refused by Validate with a *p4.CheckError naming its construct, and
// the same error is p4c.Fit's Reason and bmv2.New's CompileErr. Before
// Validate refused recursion, recursion through a table overflowed the
// engine's stack on its first packet, and direct recursion Fit's.
func TestValidate(t *testing.T) {
	parse := func(members, apply string) *p4.Program {
		t.Helper()
		prog, err := p4.Parse("v", fmt.Sprintf(validateSrc, members, apply))
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	base := parse("action a() { hdr.h.x = 8w1; }", "a();")
	if _, err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	if sw := bmv2.New(base); sw.CompileErr() != nil {
		t.Fatal(sw.CompileErr())
	}
	const regact = `RegisterAction<bit<32>, bit<32>, bit<32>>(r) ra = {
        void apply(inout bit<32> m, out bit<32> o) { %s }
    };`
	for _, tc := range []struct {
		name, members, apply string
		mutate               func(*p4.Program)
		construct            string
	}{
		{name: "undeclared action", members: "action a() {} table t { actions = { a; missing; } default_action = a(); }",
			apply: "t.apply();", construct: "table t"},
		{name: "direct recursion", members: "action a() { a(); }", apply: "a();", construct: "action a"},
		{name: "mutual recursion through a register action",
			members: fmt.Sprintf(regact, "b();") + " action b() { ra.execute(32w0); }",
			apply:   "b();", construct: "action b"},
		{name: "recursion through a table", members: "action a() { t.apply(); } table t { actions = { a; } default_action = a(); }",
			apply: "t.apply();", construct: "action a"},
		{name: "transition to an undeclared state", apply: "", construct: "parser state other",
			mutate: func(p *p4.Program) { p.Parser.States[1].Next = "nowhere" }},
		{name: "empty select target", apply: "", construct: "parser state start",
			mutate: func(p *p4.Program) { p.Parser.States[0].Select.Default = "" }},
		{name: "hash algorithm outside the closed set", apply: "", construct: "hash h",
			mutate: func(p *p4.Program) {
				p.Ingress.Hashes = append(p.Ingress.Hashes, &p4.HashDecl{Name: "h", Algo: "crc8", Bits: 8})
			}},
		{name: "header declared twice", apply: "", construct: "header h",
			mutate: func(p *p4.Program) { p.Headers = append(p.Headers, p.Headers[0]) }},
	} {
		prog := parse(tc.members, tc.apply)
		if tc.mutate != nil {
			tc.mutate(prog)
		}
		_, err := prog.Validate()
		var ce *p4.CheckError
		if !errors.As(err, &ce) || ce.Construct != tc.construct {
			t.Errorf("%s: Validate = %v, want a refusal of %q", tc.name, err, tc.construct)
			continue
		}
		if rep := p4c.Fit(prog, p4c.Tofino1()); rep.Reason != err.Error() {
			t.Errorf("%s: Fit's Reason = %q, want %q", tc.name, rep.Reason, err)
		}
		if cerr := bmv2.New(prog).CompileErr(); cerr == nil || cerr.Error() != err.Error() {
			t.Errorf("%s: New's CompileErr = %v, want %v", tc.name, cerr, err)
		}
	}
}
