// Package metrics computes the code metrics of the paper's language
// evaluation: lines of code (Table III) and the distribution of P4
// code across construct categories (Figure 12).
package metrics

import (
	"math"
	"strings"

	"netcl/internal/p4"
)

// LoC counts the lines of code in source text, excluding blank lines
// and comment-only lines — the usual convention for the paper's
// O(10)-vs-O(100) comparison.
func LoC(src string) int {
	n := 0
	inBlock := false
	for _, line := range strings.Split(src, "\n") {
		s := strings.TrimSpace(line)
		if inBlock {
			if i := strings.Index(s, "*/"); i >= 0 {
				s = strings.TrimSpace(s[i+2:])
				inBlock = false
			} else {
				continue
			}
		}
		if i := strings.Index(s, "//"); i >= 0 {
			s = strings.TrimSpace(s[:i])
		}
		if strings.HasPrefix(s, "/*") {
			if !strings.Contains(s, "*/") {
				inBlock = true
			}
			continue
		}
		if s == "" {
			continue
		}
		n++
	}
	return n
}

// Category is a Figure 12 code category.
type Category string

// Figure 12 categories: packet-processing constructs (headers+parsing,
// MATs), stateful objects (RegisterActions etc.), imperative control,
// and the rest.
const (
	CatHeadersParsing Category = "headers+parsing"
	CatMATs           Category = "match-action tables"
	CatRegActions     Category = "register actions"
	CatControl        Category = "control logic"
	CatOther          Category = "other"
)

// Breakdown classifies a P4 program's lines by construct, returning
// percentages that sum to 100 (blank lines excluded). The
// classification is structural (from the AST-driven printer), so it is
// identical for parsed handwritten programs and generated ones.
func Breakdown(prog *p4.Program) map[Category]float64 {
	_, cats := p4.PrintClassified(prog)
	counts := map[Category]int{}
	total := 0
	for _, c := range cats {
		var cat Category
		switch c {
		case p4.CatHeader, p4.CatParser:
			cat = CatHeadersParsing
		case p4.CatMAT:
			cat = CatMATs
		case p4.CatRegAction:
			cat = CatRegActions
		case p4.CatControl:
			cat = CatControl
		case p4.CatBlank:
			continue
		default:
			cat = CatOther
		}
		counts[cat]++
		total++
	}
	out := map[Category]float64{}
	if total == 0 {
		return out
	}
	for cat, n := range counts {
		out[cat] = 100 * float64(n) / float64(total)
	}
	return out
}

// Geomean computes the geometric mean of positive values.
func Geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}
