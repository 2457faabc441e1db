// Command nclbench regenerates every table and figure of the paper's
// evaluation (§VII) and the §VI-B flag ablations, and prints them as
// one Markdown report (netcl.FormatAll). Each table sits between
// marker comments; EXPERIMENTS.md holds the same blocks byte for byte
// (TestExperimentsGolden; make experiments rewrites them), except
// Table IV, whose wall-clock times only this report prints. It takes
// no flags: performance is measured by the repository's benchmark
// (bench/README.md).
package main

import (
	"fmt"
	"os"

	"netcl"
)

func main() {
	report, err := netcl.FormatAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nclbench:", err)
		os.Exit(1)
	}
	fmt.Print(report)
}
