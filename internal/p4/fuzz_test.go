package p4_test

import (
	"testing"

	"netcl/internal/apps"
	"netcl/internal/p4"
	"netcl/internal/p4c"
	"netcl/internal/passes"
)

// FuzzP4Parse feeds arbitrary text to the P4 parser. Parse must never
// panic, and a program it accepts must go through Print and p4c.Fit
// without panicking. The seeds are the six handwritten baselines, the
// twelve generated programs (every registry app and device, TNA and
// v1model) and two small edge cases.
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
	// A program with no parser or ingress, an accepted program whose
	// printed text does not parse back (ROADMAP 8(c)), and a hash
	// algorithm outside the closed set.
	f.Add("")
	f.Add("parser A(){}control A(){apply{if(A()){}}}")
	f.Add("parser A(){}control A(){Hash<bit<16>>(HashAlgorithm_t.CRC8) h;apply{}}")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := p4.Parse("fuzz", src)
		if err != nil {
			return
		}
		p4.Print(prog)
		p4c.Fit(prog, p4c.Tofino1())
	})
}
