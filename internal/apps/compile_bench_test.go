package apps

// compile_bench_test.go is the compile family of the work ledger: one
// sweep compiles every registry program (each app x device x target),
// prints it, parses the text back and fits the parsed program, the
// path bench's compile workload times. BenchmarkCompile reports its
// allocations; TestCompileAllocs pins them per program.
//
//	go test ./internal/apps -run '^$' -bench Compile -benchmem

import (
	"runtime"
	"testing"

	"netcl/internal/p4"
	"netcl/internal/p4c"
	"netcl/internal/passes"
)

// compileSweep compiles, prints, parses and fits every registry
// program once, returning how many it compiled.
func compileSweep(tb testing.TB) int {
	n := 0
	for _, target := range []passes.Target{passes.TargetTNA, passes.TargetV1Model} {
		for _, app := range All() {
			for _, dev := range app.Devices {
				prog, _, _, err := CompileApp(app, target, dev)
				if err != nil {
					tb.Fatal(err)
				}
				re, err := p4.Parse(app.Name, p4.Print(prog))
				if err != nil {
					tb.Fatal(err)
				}
				if rep := p4c.Fit(re, p4c.Tofino1()); target == passes.TargetTNA && !rep.Fits {
					tb.Fatalf("%s device %d does not fit: %s", app.Name, dev, rep.Reason)
				}
				n++
			}
		}
	}
	return n
}

var compiledSink int

func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		compiledSink += compileSweep(b)
	}
}

// TestCompileAllocs bounds the allocations and bytes of one program's
// compile, print, parse and fit, averaged over a sweep. A rise past a
// bound is a reviewed change of it.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	// About 3 % over the measured 6 556 allocations and 732 KB; the
	// compiler before pointer-free tokens, dense fit ids and one-sweep
	// replacement took 7 593 and 1 015 KB.
	const (
		maxAllocs = 6750
		maxBytes  = 755_000
	)
	compileSweep(t) // first-use initialisation stays out of the count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := compileSweep(t)
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / uint64(n)
	bytes := (after.TotalAlloc - before.TotalAlloc) / uint64(n)
	t.Logf("per program: %d allocations, %d bytes", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("%d allocations per program compile, bound %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("%d bytes per program compile, bound %d", bytes, maxBytes)
	}
}
