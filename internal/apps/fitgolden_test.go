package apps

// fitgolden_test.go pins the full p4c.Fit report of every shipped P4
// program: the twelve generated programs of TestP4Golden, their
// Parse(Print(p)) round trips and the six handwritten baselines. A
// fitter refactor that claims to keep its placement must leave every
// stage, every table and register placement and every Ops list in
// place. Rewrite the expectations with
//
//	go test ./internal/apps -run TestFitGolden -update

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"netcl/internal/p4"
	"netcl/internal/p4c"
	"netcl/internal/passes"
)

func TestFitGolden(t *testing.T) {
	var out bytes.Buffer
	report := func(name string, prog *p4.Program) {
		fmt.Fprintf(&out, "== %s\n%+v\n", name, *p4c.Fit(prog, p4c.Tofino1()))
	}
	for _, target := range []passes.Target{passes.TargetTNA, passes.TargetV1Model} {
		for _, p := range p4GoldenPrograms {
			name := p.name + "_" + string(target)
			prog, _, _, err := CompileApp(ByName(p.app), target, p.device)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			report(name, prog)
			re, err := p4.Parse(name, p4.Print(prog))
			if err != nil {
				t.Fatalf("%s: round trip: %v", name, err)
			}
			report(name+" round trip", re)
		}
	}
	for _, f := range baselineFiles {
		src, err := baselineFS.ReadFile("baseline/" + f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := p4.Parse(f, string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		report("baseline "+f, prog)
	}
	path := filepath.Join("testdata", "fit_reports.txt")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("Fit reports drifted from %s", path)
	}
}
