package passes

import (
	"fmt"

	"netcl/internal/ir"
)

// Target identifies a code-generation backend.
type Target string

// Supported targets (§VI): the Tofino Native Architecture and the
// v1model software switch.
const (
	TargetTNA     Target = "tna"
	TargetV1Model Target = "v1model"
)

// ResolveTarget maps the zero value to TargetTNA and refuses a target
// no backend exists for: the pass pipeline and code generation treat
// anything that is not TNA as v1model.
func ResolveTarget(t Target) (Target, error) {
	switch t {
	case "":
		return TargetTNA, nil
	case TargetTNA, TargetV1Model:
		return t, nil
	}
	return "", fmt.Errorf("unknown target %q (want %q or %q)", t, TargetTNA, TargetV1Model)
}

// Options control the device pass pipeline. The toggles correspond to
// the compiler flags described in §VI-B: programmers can disable
// speculation or lookup duplication and recompile when the P4 compiler
// cannot fit the result.
type Options struct {
	Target Target
	// Speculate enables aggressive speculation of pure instructions
	// (default on; turning it off reduces PHV pressure).
	Speculate bool
	// DuplicateLookups enables per-access duplication of non-managed
	// lookup memory (default on; costs SRAM/TCAM, saves stages).
	DuplicateLookups bool
	// CmpToSubMSB rewrites dynamic ordered compares into sub+MSB
	// checks (default off; a fitting workaround, see §VI-B).
	CmpToSubMSB bool
}

// DefaultOptions returns the default pipeline configuration for a
// target.
func DefaultOptions(t Target) Options {
	return Options{
		Target:           t,
		Speculate:        t == TargetTNA,
		DuplicateLookups: t == TargetTNA,
		CmpToSubMSB:      false,
	}
}

// Stats reports what the pipeline did (consumed by ablation benches
// and the compiler's -v output).
type Stats struct {
	MemPartitions  int
	LookupDups     int
	Hoisted        int
	Speculated     int
	ByteSwaps      int
	CmpRewrites    int
	PhisEliminated int
	ScalarReplaced int
}

// Run executes the device pass pipeline on a module. The common stage
// (mem2reg, simplification, DAG verification) applies to all targets;
// the Tofino stage adds memory partitioning, lookup duplication,
// legality checks, hoisting, and speculation. φ-elimination runs last
// for all targets so code generation never sees φ-nodes.
func Run(mod *ir.Module, opts Options) (Stats, error) {
	var st Stats

	// Common stage: guarantees the program compiles for v1model.
	for _, f := range mod.Funcs {
		st.ScalarReplaced += SROA(f)
		Mem2Reg(f)
		Simplify(f)
		if err := ir.Verify(f); err != nil {
			return st, err
		}
	}

	if opts.Target == TargetTNA {
		st.MemPartitions = PartitionMemory(mod)
		if opts.DuplicateLookups {
			st.LookupDups = DuplicateLookups(mod)
		}
		for _, f := range mod.Funcs {
			st.ByteSwaps += DetectByteSwaps(f)
			if opts.CmpToSubMSB {
				st.CmpRewrites += CmpToSubMSB(f)
			}
			st.Hoisted += HoistCommon(f)
			if opts.Speculate {
				st.Speculated += Speculate(f)
			}
			Simplify(f)
		}
		if errs := CheckMemory(mod); len(errs) > 0 {
			return st, fmt.Errorf("%s", errs[0].Msg)
		}
	}

	// φ-elimination and final cleanup for code generation.
	for _, f := range mod.Funcs {
		st.PhisEliminated += PhiElim(f)
		foldAll(f)
		DCE(f)
		if err := ir.Verify(f); err != nil {
			return st, err
		}
	}
	return st, nil
}
