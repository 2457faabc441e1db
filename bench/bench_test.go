package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The test binary doubles as the bench command: with BENCH_TEST_AS_MAIN
// set it runs main() on its arguments, so tests can check exit codes
// and the child-process runner (which re-executes os.Executable()).
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func benchCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BENCH_TEST_AS_MAIN=1")
	return cmd
}

// smoke is every workload at 1/1000 of its frozen size, one round.
func smoke(t *testing.T, def *workloadDef, seed int64, trace, sabotage bool) *result {
	t.Helper()
	res, err := runWorkload(def, runOpts{seed: seed, seconds: 0, trace: trace, scale: 1000, sabotage: sabotage})
	if err != nil {
		t.Fatalf("%s: %v", def.name, err)
	}
	return res
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the benchmark's tables; regenerate it with `go run ./bench -spec > BENCHMARK.json`")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	setup := false
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside 0..0.25", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestSmoke runs every workload untraced and traced, twice with one
// seed: the emitted names are the declared ones, nothing fails, no
// end-to-end metric is zero, and every exact metric repeats exactly.
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				a, b := smoke(t, def, 1, trace, false), smoke(t, def, 1, trace, false)
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if !a.Correct || a.Failed != 0 || a.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, a.Correct, a.Attempted, a.Failed)
				}
				if len(a.Metrics) != len(specs) {
					t.Errorf("trace=%v: %d metrics emitted, %d declared", trace, len(a.Metrics), len(specs))
				}
				for _, m := range specs {
					va, ok := a.Metrics[m.Name]
					if !ok {
						t.Errorf("trace=%v: declared metric %s was not emitted", trace, m.Name)
						continue
					}
					if va.Unit != m.Unit {
						t.Errorf("%s: unit %q, declared %q", m.Name, va.Unit, m.Unit)
					}
					if !trace && va.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
					if m.exact && va.Value != b.Metrics[m.Name].Value {
						t.Errorf("exact metric %s differs between two runs of one seed: %v, %v", m.Name, va.Value, b.Metrics[m.Name].Value)
					}
				}
			}
		})
	}
}

// TestOraclesCatchSabotage is each oracle's negative test at the level
// of a run: one flipped result byte (or one dropped control op) per
// round must show as failed operations.
func TestOraclesCatchSabotage(t *testing.T) {
	for _, def := range workloads {
		res := smoke(t, def, 1, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: sabotage went unnoticed (correct=%v, failed=%d of %d)", def.name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestSabotageExitsNonZero checks the command itself: the result line
// is still printed, says correct=false, and the exit code is not 0.
func TestSabotageExitsNonZero(t *testing.T) {
	out, err := benchCmd("--workload", "acl_fwd", "--seed", "1", "--seconds", "0", "--trace", "0", "--scale", "1000", "--sabotage").Output()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("sabotaged run: err = %v, want a non-zero exit", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last struct {
		Correct   bool
		Attempted int64
		Failed    int64
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if last.Correct || last.Failed == 0 {
		t.Errorf("last line says correct=%v failed=%d", last.Correct, last.Failed)
	}
}

// TestChildRunnerAndCompare drives the top-level command: it re-executes
// itself per workload, writes -out, fails as a whole when a child does,
// and -compare finds a run equal to itself.
func TestChildRunnerAndCompare(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	out, err := benchCmd("-only", "acl_fwd", "-seconds", "0", "-scale", "1000", "-out", a).CombinedOutput()
	if err != nil {
		t.Fatalf("bench -only acl_fwd: %v\n%s", err, out)
	}
	for _, m := range endToEnd {
		if !bytes.Contains(out, []byte(m.Name)) {
			t.Errorf("metric %s is not printed by name", m.Name)
		}
	}
	if out, err := benchCmd("-compare", a, a).CombinedOutput(); err != nil || !bytes.Contains(out, []byte("0 regress, 0 unresolved")) {
		t.Errorf("-compare of a file with itself: %v\n%s", err, out)
	}
	if err := benchCmd("-only", "no_such_workload", "-seconds", "0", "-scale", "1000").Run(); err == nil {
		t.Error("an unknown -only name exits 0")
	}
	if err := benchCmd("--workload", "no_such_workload").Run(); err == nil {
		t.Error("an unknown --workload name exits 0")
	}
}

func TestCompareVerdicts(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python's statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
	rate := metricSpec{Name: "req_per_s", Better: "higher", Bound: 0.10}
	stages := metricSpec{Name: "p4_stages", Better: "lower", Bound: 0.005, exact: true}
	steady := []float64{100, 101, 99, 100, 100}
	runs := func(v []float64) *series { // run i has seed i
		s := &series{}
		for i, x := range v {
			s.add(int64(i), x)
		}
		return s
	}
	for _, tc := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{rate, steady, []float64{95, 96, 95, 94, 95}, "ok"},
		{rate, steady, []float64{85, 86, 85, 84, 85}, "regress"},
		{rate, steady, []float64{120, 121, 119, 120, 120}, "ok"}, // better is never a regression
		{rate, steady, []float64{60, 100, 140, 80, 120}, "unresolved"},
		{stages, []float64{11, 12}, []float64{11, 12}, "ok"}, // an exact count may follow the seed
		{stages, []float64{11, 11}, []float64{11, 12}, "regress"},
		{stages, []float64{1000, 1000}, []float64{1000, 1001}, "regress"}, // equal, not merely within bound
		{stages, []float64{11, 11}, []float64{10, 10}, "improved"},
		{stages, []float64{11, 12, 13}, []float64{12, 12, 12}, "unresolved"},
	} {
		if got, _ := verdict(tc.m, runs(tc.a), runs(tc.b)); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.m.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestSeedChangesInputs: the seed feeds the generators and nothing else.
func TestSeedChangesInputs(t *testing.T) {
	s1, _ := cacheInputs(1, 1024, 256)
	s1again, _ := cacheInputs(1, 1024, 256)
	s2, _ := cacheInputs(2, 1024, 256)
	if !reflect.DeepEqual(s1, s1again) || reflect.DeepEqual(s1, s2) {
		t.Error("cache_sim: request stream does not follow the seed")
	}
	r1, f1, _ := genACL(rand.New(rand.NewSource(1)))
	r1again, f1again, _ := genACL(rand.New(rand.NewSource(1)))
	r2, f2, _ := genACL(rand.New(rand.NewSource(2)))
	if !reflect.DeepEqual(r1, r1again) || !reflect.DeepEqual(f1, f1again) || reflect.DeepEqual(r1, r2) || reflect.DeepEqual(f1, f2) {
		t.Error("acl: routes and rules do not follow the seed")
	}
	if aggBase(1, 7) != aggBase(1, 7) || aggBase(1, 7) == aggBase(2, 7) || scaleBase(1, 3) == scaleBase(2, 3) {
		t.Error("agg: chunk values do not follow the seed")
	}
}

// The oracles themselves, each against a case worked by hand or by
// brute force, and each shown to reject a wrong answer.

func TestAggOracle(t *testing.T) {
	for chunk := 0; chunk < 50; chunk++ {
		for i := 0; i < aggSlotSize; i++ {
			var sum uint64
			for w := 0; w < aggWorkers; w++ {
				sum += aggBase(9, chunk) + uint64(i) + uint64(w) // what worker w packs
			}
			if want := aggWant(9, chunk, i); want != sum&0xFFFFFFFF {
				t.Fatalf("aggWant(chunk %d, element %d) = %d, brute force %d", chunk, i, want, sum)
			}
		}
	}
}

func TestCalcOracle(t *testing.T) {
	for _, tc := range []struct {
		c    calcCall
		want uint64
	}{
		{calcCall{1, 0xFFFFFFFF, 2}, 1}, // add wraps at 32 bits
		{calcCall{2, 1, 2}, 0xFFFFFFFF}, // so does sub
		{calcCall{3, 0b1100, 0b1010}, 0b1000},
		{calcCall{4, 0b1100, 0b1010}, 0b1110},
		{calcCall{5, 0b1100, 0b1010}, 0b0110},
	} {
		if got := calcWant(tc.c); got != tc.want {
			t.Errorf("calcWant(%+v) = %d, want %d", tc.c, got, tc.want)
		}
	}
}

func TestACLOracle(t *testing.T) {
	routes := []aclRoute{
		{prefix: 0x0A000000, plen: 8, hop: 1, port: 1},
		{prefix: 0x0A010000, plen: 16, hop: 2, port: 2},
	}
	rules := []aclRule{
		{sip: 0xC0000000, smask: 0xFF000000, lo: 80, hi: 90, proto: 1, deny: true, prio: 5},
		{sip: 0xC0A80000, smask: 0xFFFF0000, lo: 0, hi: 1000, proto: 1, deny: false, prio: 2},
	}
	for _, tc := range []struct {
		p    aclPacket
		want aclVerdict
	}{
		{aclPacket{dip: 0x0A010203, sip: 1, dport: 85, proto: 1}, aclVerdict{hop: 2, port: 2}},                      // longest prefix wins, no rule matches
		{aclPacket{dip: 0x0A020203, sip: 0xC0010101, dport: 85, proto: 1}, aclVerdict{drop: true, hop: 1, port: 1}}, // denied by the /8 rule
		{aclPacket{dip: 0x0A020203, sip: 0xC0A80101, dport: 85, proto: 1}, aclVerdict{hop: 1, port: 1}},             // lower priority value wins: permit
		{aclPacket{dip: 0x0B000001, sip: 1, dport: 85, proto: 1}, aclVerdict{drop: true}},                           // no route
	} {
		got := aclEval(tc.p, routes, rules)
		if got.drop != tc.want.drop || (!got.drop && got != tc.want) {
			t.Errorf("aclEval(%+v) = %+v, want %+v", tc.p, got, tc.want)
		}
	}
}

func TestCompileOracle(t *testing.T) {
	a := "// header\ncontrol In {\n    // note\n    apply { x = 1; }\n}\n"
	if !sameCode(a, "control In {\n    apply { x = 1; }\n}\n") {
		t.Error("sameCode: comment lines must not count")
	}
	if sameCode(a, "control In {\n    apply { x = 2; }\n}\n") || sameCode(a, "control In {\n") {
		t.Error("sameCode: a changed or missing line must count")
	}
}
