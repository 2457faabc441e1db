package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compare.go is `bench -compare a.json b.json`: per workload and
// metric it prints both medians, the ratio with its base, and a
// verdict. a is the base (the parent commit, or the first set of runs).
//
//	ok          b is no worse than a by more than the metric's bound; an
//	            exact count is equal in every run of every seed
//	regress     b is worse than a by more than the bound; an exact count
//	            differs for the worse
//	improved    an exact count differs for the better
//	unresolved  the run-to-run spread of a or b is wider than the bound,
//	            so "no worse" cannot be told from "worse"
//
// Per-layer metrics have no bound: exact counts must be equal, the rest
// are printed for information. The exit code is 1 when anything is
// regress or unresolved.

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// gives them (the exclusive method), which is what the driver uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(max(len(v), 1))
}

type runKey struct {
	workload string
	trace    int
}

// series is one metric's values over the runs of a file, with the seed
// of each run: exact metrics are compared seed by seed.
type series struct {
	seeds  []int64
	values []float64
}

func (s *series) add(seed int64, v float64) {
	s.seeds = append(s.seeds, seed)
	s.values = append(s.values, v)
}

func loadRuns(path string) (map[runKey]map[string]*series, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[runKey]map[string]*series{}
	for _, r := range f.Runs {
		k := runKey{r.Workload, r.Trace}
		if out[k] == nil {
			out[k] = map[string]*series{}
		}
		put := func(name string, v float64) {
			if out[k][name] == nil {
				out[k][name] = &series{}
			}
			out[k][name].add(r.Seed, v)
		}
		for name, m := range r.Metrics {
			put(name, m.Value)
		}
		put("fail_frac", float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	return out, nil
}

// sameBySeed reports whether every run of a seed, in a and in b, gave
// the same value.
func sameBySeed(a, b *series) bool {
	first := map[int64]float64{}
	for _, s := range []*series{a, b} {
		for i, seed := range s.seeds {
			if v, ok := first[seed]; ok && v != s.values[i] {
				return false
			}
			first[seed] = s.values[i]
		}
	}
	return true
}

// verdict judges one metric. worse is b's loss against a as a share of
// a, in the metric's own direction.
func verdict(m metricSpec, a, b *series) (string, float64) {
	ma, mb := median(a.values), median(b.values)
	if m.exact {
		// One differing run must show, and a median would hide it.
		ma, mb = mean(a.values), mean(b.values)
	}
	var worse float64
	if ma != 0 {
		worse = (mb - ma) / ma
		if m.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case m.exact && sameBySeed(a, b):
		return "ok", worse
	case m.exact && worse < 0:
		return "improved", worse
	case m.exact && worse > 0:
		return "regress", worse
	case m.exact:
		return "unresolved", worse // differs between runs of one seed, means equal: not the exact count it is declared to be
	case m.Bound == 0:
		return "info", worse
	case spread(a.values) > m.Bound || spread(b.values) > m.Bound:
		return "unresolved", worse
	case worse > m.Bound:
		return "regress", worse
	}
	return "ok", worse
}

// failFrac is judged like an exact count: any failed operation on
// either side shows.
var failFrac = metricSpec{Name: "fail_frac", Unit: "ratio", Better: "lower", exact: true}

func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	counts := map[string]int{}
	for _, def := range workloads {
		for trace := 0; trace <= 1; trace++ {
			k := runKey{def.name, trace}
			if a[k] == nil || b[k] == nil {
				continue
			}
			specs := append([]metricSpec{failFrac}, endToEnd...)
			if trace == 1 {
				specs = append([]metricSpec{failFrac}, perLayer...)
			}
			fmt.Fprintf(w, "\n%s (trace %d): a = %s (%d runs), b = %s (%d runs)\n",
				def.name, trace, pathA, len(a[k]["fail_frac"].values), pathB, len(b[k]["fail_frac"].values))
			fmt.Fprintf(w, "  %-34s %14s %14s  %-26s %8s %8s  %s\n", "metric", "a (median)", "b (median)", "b/a (base a)", "spread a", "spread b", "verdict")
			for _, m := range specs {
				va, vb := a[k][m.Name], b[k][m.Name]
				if va == nil || vb == nil {
					continue
				}
				v, _ := verdict(m, va, vb)
				counts[v]++
				ma, mb := median(va.values), median(vb.values)
				ratio := "-"
				if ma != 0 {
					ratio = fmt.Sprintf("%.4f of %.6g %s", mb/ma, ma, m.Unit)
				}
				fmt.Fprintf(w, "  %-34s %14.6g %14.6g  %-26s %7.2f%% %7.2f%%  %s\n",
					m.Name, ma, mb, ratio, 100*spread(va.values), 100*spread(vb.values), v)
			}
		}
	}
	fmt.Fprintf(w, "\n%d ok, %d improved, %d regress, %d unresolved, %d info\n",
		counts["ok"], counts["improved"], counts["regress"], counts["unresolved"], counts["info"])
	return counts["regress"] > 0 || counts["unresolved"] > 0, nil
}
