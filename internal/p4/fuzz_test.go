package p4_test

import (
	"testing"

	"netcl/internal/apps"
	"netcl/internal/bmv2"
	"netcl/internal/p4"
	"netcl/internal/p4c"
	"netcl/internal/passes"
)

// FuzzP4Parse feeds arbitrary text to the P4 parser. Parse must never
// panic, and a program it accepts must go through Validate, Print and
// p4c.Fit without panicking. A program Validate accepts must print to
// text that parses and checks again (ROADMAP 8(c)), bmv2.New must not
// panic on it, and a switch New accepts must process one fixed packet
// without panicking. The seeds are the six handwritten baselines, the
// twelve generated programs (every registry app and device, TNA and
// v1model) and eight small edge cases.
func FuzzP4Parse(f *testing.F) {
	for _, file := range []string{"agg.p4", "cache.p4", "pacc.p4", "plrn.p4", "pldr.p4", "calc.p4"} {
		src, err := (&apps.App{BaselineFile: file}).Baseline()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for _, target := range []passes.Target{passes.TargetTNA, passes.TargetV1Model} {
		for _, app := range apps.All() {
			for _, dev := range app.Devices {
				prog, _, _, err := apps.CompileApp(app, target, dev)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(p4.Print(prog))
			}
		}
	}
	// A program with no parser or ingress, a parsed program Validate
	// refuses (its call of an undeclared action prints as text that
	// does not parse back), a hash algorithm outside the closed set, and
	// recursion through a table and direct recursion, which overflowed
	// the engine's stack and Fit's before Validate refused them.
	f.Add("")
	f.Add("parser A(){}control A(){apply{if(A()){}}}")
	f.Add("parser A(){}control A(){Hash<bit<16>>(HashAlgorithm_t.CRC8) h;apply{}}")
	f.Add("parser P(){state start{transition accept;}}control C(){action a(){t.apply();}table t{actions={a;}default_action=a();}apply{t.apply();}}")
	f.Add("parser P(){state start{transition accept;}}control C(){action a(){a();}apply{a();}}")
	// Token edges: a sized literal wider than any width field narrower
	// than int would hold, a nested ">>" template closer, and an error
	// that quotes a token.
	f.Add("header h_t{bit<8> f;}parser P(){state start{transition accept;}}control C(){apply{hdr.h.f=4294967297w1;}}")
	f.Add("parser P(){state start{transition accept;}}control C(){Register<bit<32>>(4) r;apply{}}")
	f.Add("parser P(){state start{transition accept;}}\ncontrol C(){\napply{x = = 1;}}")
	pkt := make([]byte, 64)
	for i := range pkt {
		pkt[i] = byte(i)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := p4.Parse("fuzz", src)
		if err != nil {
			return
		}
		_, verr := prog.Validate()
		text := p4.Print(prog)
		p4c.Fit(prog, p4c.Tofino1())
		if verr != nil {
			return
		}
		re, err := p4.Parse("fuzz", text)
		if err != nil {
			t.Fatalf("a checked program prints text that does not parse: %v\n%s", err, text)
		}
		if _, err := re.Validate(); err != nil {
			t.Fatalf("a checked program prints text that does not check: %v\n%s", err, text)
		}
		if sw := bmv2.New(prog); sw.CompileErr() == nil {
			sw.ProcessInto(pkt, 1, &bmv2.Result{})
		}
	})
}
