// Command benchpair runs the paired comparison the choosing-metrics
// guide asks of a performance claim: it checks out an older revision
// beside the working tree, runs BENCHMARK.json's command on both for N
// alternating pairs (the side that goes first alternates; pair i uses
// seed i on both sides; the run length is BENCHMARK.json's), and
// prints, per end-to-end metric, each side's median and quartiles, the
// pairs the working tree won, and whether that amounts to a gain, a
// regression beyond the metric's bound, or neither.
//
//	go run ./tools/benchpair -old HEAD~1 -w agg_sim -n 10
//	make bench-pair OLD=HEAD~1 W=agg_sim N=10
//
// -old takes a revision (checked out with `git worktree` under
// .bench_build/, removed afterwards) or a directory that already holds
// a checkout. Every run made is printed as it finishes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the last line a contract run prints.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	old := flag.String("old", "HEAD", "revision, or directory of a checkout, to compare the working tree against")
	workloads := flag.String("w", "", "comma-separated workloads (default: all of BENCHMARK.json)")
	pairs := flag.Int("n", 10, "pairs of runs")
	flag.Parse()
	if err := run(*old, *workloads, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(old, workloads string, pairs int) error {
	if pairs < 1 {
		return fmt.Errorf("-n must be at least 1")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := strings.Split(workloads, ",")
	if workloads == "" {
		names = nil
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}

	oldDir := old
	if st, err := os.Stat(old); err != nil || !st.IsDir() {
		oldDir = filepath.Join(".bench_build", "old")
		_ = exec.Command("git", "worktree", "remove", "--force", oldDir).Run() // a previous run's leftover, if any
		if out, err := exec.Command("git", "worktree", "add", "--detach", oldDir, old).CombinedOutput(); err != nil {
			return fmt.Errorf("git worktree add %s: %v\n%s", old, err, out)
		}
		defer func() {
			if out, err := exec.Command("git", "worktree", "remove", "--force", oldDir).CombinedOutput(); err != nil {
				fmt.Fprintf(os.Stderr, "benchpair: git worktree remove: %v\n%s", err, out)
			}
		}()
	}
	dirs := [2]string{oldDir, "."}
	side := [2]string{"old", "new"}

	for _, w := range names {
		vals := map[string]*[2][]float64{}
		var failed [2]int64
		for i := 0; i < pairs; i++ {
			for k := 0; k < 2; k++ {
				s := (i + k) % 2 // old first on even pairs, new first on odd
				r, err := once(sp, dirs[s], w, i+1)
				if err != nil {
					return fmt.Errorf("%s, %s, seed %d: %w", w, side[s], i+1, err)
				}
				failed[s] += r.Failed
				fmt.Printf("run %s %s seed %d:", w, side[s], i+1)
				for _, m := range sp.EndToEnd {
					if v, ok := r.Metrics[m.Name]; ok {
						if vals[m.Name] == nil {
							vals[m.Name] = &[2][]float64{}
						}
						vals[m.Name][s] = append(vals[m.Name][s], v.Value)
						fmt.Printf(" %s=%.6g", m.Name, v.Value)
					}
				}
				fmt.Printf(" failed=%d/%d\n", r.Failed, r.Attempted)
			}
		}

		fmt.Printf("\n%s: %d pairs, %d s per run, failed operations old %d, new %d\n", w, pairs, sp.RunSeconds, failed[0], failed[1])
		fmt.Printf("%-16s %-7s %38s %38s %7s %-12s %s\n", "metric", "better", "old median [q1, q3]", "new median [q1, q3]", "new/old", "pairs won", "verdict")
		for _, m := range sp.EndToEnd {
			v := vals[m.Name]
			if v == nil {
				continue
			}
			om, nm := median(v[0]), median(v[1])
			oq1, oq3 := quartiles(v[0])
			nq1, nq3 := quartiles(v[1])
			// Oriented so that positive means the new side is better.
			sign := 1.0
			if m.Better == "lower" {
				sign = -1
			}
			// A pair equal to nine digits is a tie: simulated times repeat
			// seed by seed up to the rounding of a median over rounds.
			won, lost := 0, 0
			for i := range v[0] {
				switch d := sign * (v[1][i] - v[0][i]); {
				case d > 1e-9*math.Abs(v[0][i]):
					won++
				case d < -1e-9*math.Abs(v[0][i]):
					lost++
				}
			}
			verdict := "no change shown"
			switch gain := sign * (nm - om); {
			case gain > oq3-oq1 && 10*won >= 9*pairs:
				verdict = "gain"
				if pairs < 10 {
					verdict = "better, but a claim needs ten pairs"
				}
			case om != 0 && -gain > m.Bound*math.Abs(om):
				verdict = fmt.Sprintf("REGRESSION beyond the %.3g bound", m.Bound)
			case won == 0 && lost == 0:
				verdict = "equal in every pair"
			}
			ratio := 0.0
			if om != 0 {
				ratio = nm / om
			}
			fmt.Printf("%-16s %-7s %38s %38s %7.3f %-12s %s\n", m.Name+" ("+m.Unit+")", m.Better,
				fmt.Sprintf("%.6g [%.6g, %.6g]", om, oq1, oq3), fmt.Sprintf("%.6g [%.6g, %.6g]", nm, nq1, nq3),
				ratio, fmt.Sprintf("%d/%d, lost %d", won, pairs, lost), verdict)
		}
		fmt.Println()
	}
	return nil
}

// once runs BENCHMARK.json's command for one workload and seed in dir.
func once(sp spec, dir, workload string, seed int) (*result, error) {
	args := append(append([]string(nil), sp.Command[1:]...),
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(sp.RunSeconds), "--trace", "0")
	cmd := exec.Command(sp.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("no result line: %w", jerr)
	}
	if !r.Correct {
		return nil, fmt.Errorf("the oracle rejected the run (%d of %d operations failed)", r.Failed, r.Attempted)
	}
	return &r, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// quartiles returns Q1 and Q3 by the exclusive method (Python's
// statistics.quantiles(v, n=4)), as bench -compare does.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
