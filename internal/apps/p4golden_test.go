package apps

// p4golden_test.go pins the generated P4 text of the six shipped
// device programs on both targets: a compiler refactor that claims to
// keep meaning must leave every byte in place. Rewrite the expectations
// with
//
//	go test ./internal/apps -run TestP4Golden -update

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"netcl/internal/p4"
	"netcl/internal/passes"
)

// p4GoldenPrograms are the shipped device programs, compiled for each
// target.
var p4GoldenPrograms = []struct {
	name   string
	app    string
	device uint16
}{
	{"agg", "AGG", 1},
	{"cache", "CACHE", 1},
	{"calc", "CALC", 1},
	{"paxos_leader", "PAXOS", PaxosLeader},
	{"paxos_acceptor", "PAXOS", PaxosAcceptor1},
	{"paxos_learner", "PAXOS", PaxosLearner},
}

func TestP4Golden(t *testing.T) {
	for _, target := range []passes.Target{passes.TargetTNA, passes.TargetV1Model} {
		for _, p := range p4GoldenPrograms {
			name := p.name + "_" + string(target)
			t.Run(name, func(t *testing.T) {
				prog, _, _, err := CompileApp(ByName(p.app), target, p.device)
				if err != nil {
					t.Fatal(err)
				}
				got := []byte(p4.Print(prog))
				path := filepath.Join("testdata", "p4", name+".p4")
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create it)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s drifted from %s", name, path)
				}
			})
		}
	}
}
