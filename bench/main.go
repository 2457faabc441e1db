// Command bench is the repository's benchmark: seven workloads over the
// whole stack, from host Pack to host Unpack, each checked against an
// oracle the benchmark owns.
//
//	go run ./bench --workload agg_sim --seed 1 --seconds 8 --trace 0
//
// is one contract run: it prints a run record and, as its last line,
// one JSON object {correct, attempted, failed, metrics} holding every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
//
//	go run ./bench [-only name] [-trace 1] [-runs n] [-out file.json]
//
// runs every workload, each in its own child process, and prints every
// metric by name with its unit.
//
//	go run ./bench -compare a.json b.json
//
// compares two -out files metric by metric against the bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// childTimeout is the contract's limit on one run.
const childTimeout = 180 * time.Second

func main() {
	// Load comes from one process with at most two driving goroutines;
	// the box has two cores. Pinned so a bigger box measures the same.
	// (calc_udp lowers it to 1 for itself; see its set-up.)
	runtime.GOMAXPROCS(2)

	workload := flag.String("workload", "", "run this one workload in this process and print the contract's result line")
	seed := flag.Int64("seed", 1, "seed of the benchmark's generators")
	seconds := flag.Int("seconds", runSeconds, "seconds one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	traceOut := flag.String("trace-out", "", "file the traced run writes its spans to (default .bench_build/traces/<workload>-seed<n>.json)")
	only := flag.String("only", "", "run only this workload (in a child process)")
	runs := flag.Int("runs", 1, "runs per workload; run i uses seed+i")
	out := flag.String("out", "", "write every run's result to this JSON file, for -compare")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	scale := flag.Int("scale", 1, "divide every frozen work count by this (the smoke test's knob)")
	sabotage := flag.Bool("sabotage", false, "corrupt one result per round before the oracle sees it (the oracles' negative test)")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as the benchmark's own tables declare it")
	flag.Parse()

	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err.Error())
		}
		if regressed {
			os.Exit(1)
		}
	case *workload != "":
		def := workloadByName(*workload)
		if def == nil {
			fatal("unknown workload " + *workload)
		}
		o := runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: *scale, sabotage: *sabotage, traceOut: *traceOut}
		if o.trace && o.traceOut == "" {
			o.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", def.name, *seed))
		}
		res, err := runWorkload(def, o)
		if err != nil {
			fatal(err.Error())
		}
		printContract(os.Stdout, res)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		err := runAll(allOpts{only: *only, seed: *seed, seconds: *seconds, trace: *trace, runs: *runs, scale: *scale, out: *out})
		if err != nil {
			fatal(err.Error())
		}
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(2)
}

// printContract prints the run record, then the contract's last line.
func printContract(w *os.File, res *result) {
	rec, _ := json.Marshal(struct {
		Record  *runRecord            `json:"record"`
		Timings map[string]timingNote `json:"timings"`
	}{res.Record, res.Timings})
	fmt.Fprintf(w, "%s\n", rec)
	last, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintf(w, "%s\n", last)
}

// gitRev asks git for HEAD; a checkout that is not a repository, or a
// box without git, records "unknown".
func gitRev() string {
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(cctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// allOpts is the top-level command's flags.
type allOpts struct {
	only                        string
	seed                        int64
	seconds, trace, runs, scale int
	out                         string
}

// outFile is what -out writes and -compare reads.
type outFile struct {
	Runs []*result `json:"runs"`
}

// runAll re-executes this binary once per workload and run, so RSS, CPU
// time and GC state do not leak between rows, and fails as a whole if
// any child exits non-zero or runs past the contract's limit.
func runAll(o allOpts) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var file outFile
	for _, def := range workloads {
		if o.only != "" && def.name != o.only {
			continue
		}
		for r := 0; r < o.runs; r++ {
			res, err := runChild(self, def.name, o.seed+int64(r), o)
			if err != nil {
				return fmt.Errorf("%s: %w", def.name, err)
			}
			file.Runs = append(file.Runs, res)
			printRun(os.Stdout, res)
		}
	}
	if len(file.Runs) == 0 {
		return fmt.Errorf("no workload named %q", o.only)
	}
	if o.out != "" {
		b, err := json.MarshalIndent(&file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, res := range file.Runs {
		if !res.Correct {
			return fmt.Errorf("%s (seed %d): %d of %d operations failed", res.Workload, res.Seed, res.Failed, res.Attempted)
		}
	}
	return nil
}

func runChild(self, name string, seed int64, o allOpts) (*result, error) {
	cctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(cctx, self,
		"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(o.seconds),
		"--trace", fmt.Sprint(o.trace), "--scale", fmt.Sprint(o.scale))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	if cctx.Err() != nil {
		return nil, fmt.Errorf("timed out after %s", childTimeout)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("child printed no result (%v)", runErr)
	}
	res := &result{Workload: name, Seed: seed, Trace: o.trace}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("child's last line: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), res); err != nil {
		return nil, fmt.Errorf("child's run record: %w", err)
	}
	if runErr != nil && res.Correct {
		return nil, fmt.Errorf("child failed: %w", runErr)
	}
	return res, nil
}

// printRun prints one run: every metric by name, value and unit, and
// for timings the sample count and tail percentile beside it.
func printRun(w *os.File, res *result) {
	rec := res.Record
	fmt.Fprintf(w, "\n%s  seed %d  trace %d  correct %v  ops_attempted %d  ops_failed %d  fail_frac %g\n",
		res.Workload, res.Seed, res.Trace, res.Correct, res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	if rec != nil {
		fmt.Fprintf(w, "  record: %s; warm-up %d round(s), %d measured; GOMAXPROCS %d, NumCPU %d, %s, git %s\n",
			rec.Work, rec.WarmupRounds, rec.Rounds, rec.GOMAXPROCS, rec.NumCPU, rec.GoVersion, rec.GitRev)
		if rec.TraceFile != "" {
			fmt.Fprintf(w, "  spans: %s\n", rec.TraceFile)
		}
	}
	specs := endToEnd
	if res.Trace != 0 {
		specs = perLayer
	}
	for _, m := range specs {
		v, ok := res.Metrics[m.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-34s %16.6g %-6s", m.Name, v.Value, v.Unit)
		if t, ok := res.Timings[m.Name]; ok && t.Samples > 0 {
			line += fmt.Sprintf("  median of %d", t.Samples)
			if t.Tail != "" {
				line += fmt.Sprintf(", %s %.6g", t.Tail, t.TailVal)
			}
		}
		fmt.Fprintln(w, line)
	}
	if t, ok := res.Timings["lat_us"]; ok {
		fmt.Fprintf(w, "  %-34s %16.6g %-6s  %d samples, %s %.6g\n", "(request latency, traced rounds)", t.Median, "us", t.Samples, t.Tail, t.TailVal)
	}
}
