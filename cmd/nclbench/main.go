// Command nclbench regenerates every table and figure of the paper's
// evaluation (§VII) and prints them in one report; EXPERIMENTS.md is a
// recorded run of this tool. It takes no flags: performance is
// measured by the repository's benchmark (bench/README.md).
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
