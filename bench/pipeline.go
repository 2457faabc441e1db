package main

import (
	"fmt"
	"time"

	"netcl/internal/apps"
	"netcl/internal/codegen"
	"netcl/internal/ir"
	"netcl/internal/lang"
	"netcl/internal/lower"
	"netcl/internal/p4"
	"netcl/internal/p4c"
	"netcl/internal/passes"
	"netcl/internal/runtime"
	"netcl/internal/sema"
)

// pipeline.go is the benchmark's own walk through the compiler: the
// same calls, in the same order, as the root package's Compile, but
// with every phase's public entry timed from outside. Workloads other
// than compile go through it in set-up, so a compiler change shows in
// their setup_s and nowhere in their measured phase.

// Compiler phases, in pipeline order; each is "<module>.<entry>".
const (
	phParse = iota
	phCheck
	phLower
	phPasses
	phCodegen
	phPrint
	phP4Parse
	phFit
	numPhases
)

var compilePhases = [numPhases]string{
	"lang.parse", "sema.check", "lower.module", "passes.run",
	"codegen.generate", "p4.print", "p4.parse", "p4c.fit",
}

// compileStats accumulates, per phase, time and calls, and the sizes,
// optimisation counts and fit totals of the programs that went through.
type compileStats struct {
	ns    [numPhases]int64
	calls [numPhases]int64

	lowerInstrs, passInstrs int
	tables, actions         int
	srcBytes                int

	memPartitions, lookupDups, hoisted, speculated int

	fitted, fits               int
	stages, tnaStages          int
	latencyCycles, sram, salus int
	phvBits                    int
}

// timed runs fn as one call of phase ph, under a span when tracing.
func (cs *compileStats) timed(tr *tracer, ph int, req int64, fn func()) {
	tr.begin(compilePhases[ph], layerCompiler, req)
	t0 := time.Now()
	fn()
	cs.ns[ph] += int64(time.Since(t0))
	cs.calls[ph]++
	tr.end(1)
}

// addTimes folds another sweep's phase timers into cs, leaving cs's
// counts (which describe one sweep) alone.
func (cs *compileStats) addTimes(o *compileStats) {
	for i := range cs.ns {
		cs.ns[i] += o.ns[i]
		cs.calls[i] += o.calls[i]
	}
}

// emit writes the compiler's per-layer metrics.
func (cs *compileStats) emit(out map[string]float64) {
	for i, ph := range compilePhases {
		if cs.calls[i] > 0 {
			out[ph+"_us"] = float64(cs.ns[i]) / float64(cs.calls[i]) / 1e3
		}
	}
	out["lower.ir_instrs"] = float64(cs.lowerInstrs)
	out["passes.ir_instrs"] = float64(cs.passInstrs)
	out["codegen.p4_tables"] = float64(cs.tables)
	out["codegen.p4_actions"] = float64(cs.actions)
	out["p4.src_bytes"] = float64(cs.srcBytes)
	out["passes.mem_partitions"] = float64(cs.memPartitions)
	out["passes.lookup_dups"] = float64(cs.lookupDups)
	out["passes.hoisted"] = float64(cs.hoisted)
	out["passes.speculated"] = float64(cs.speculated)
	out["p4c.stages"] = float64(cs.stages)
	out["p4c.latency_cycles"] = float64(cs.latencyCycles)
	out["p4c.sram_blocks"] = float64(cs.sram)
	out["p4c.salus"] = float64(cs.salus)
	out["p4c.phv_bits"] = float64(cs.phvBits)
	if cs.fitted > 0 {
		out["p4c.fit_frac"] = float64(cs.fits) / float64(cs.fitted)
	}
}

func countInstrs(mod *ir.Module) int {
	n := 0
	for _, f := range mod.Funcs {
		f.Instrs(func(*ir.Block, *ir.Instr) bool { n++; return true })
	}
	return n
}

// frontend parses and checks one NetCL source.
func (cs *compileStats) frontend(tr *tracer, req int64, name, src string, defines map[string]uint64) (*sema.Program, error) {
	var diags lang.Diagnostics
	var file *lang.File
	var prog *sema.Program
	cs.timed(tr, phParse, req, func() { file = lang.ParseFile(name+".ncl", src, defines, &diags) })
	cs.timed(tr, phCheck, req, func() { prog = sema.Check(file, &diags) })
	if err := diags.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return prog, nil
}

// backend lowers, optimises and generates the P4 program of one device.
func (cs *compileStats) backend(tr *tracer, req int64, prog *sema.Program, name string, dev uint16, target passes.Target, ecmp bool) (*p4.Program, error) {
	var diags lang.Diagnostics
	var mod *ir.Module
	cs.timed(tr, phLower, req, func() { mod = lower.Module(prog, dev, lower.Options{}, &diags) })
	if err := diags.Err(); err != nil {
		return nil, fmt.Errorf("%s (device %d): %w", name, dev, err)
	}
	if mod == nil {
		return nil, fmt.Errorf("%s (device %d): lowering produced no module", name, dev)
	}
	cs.lowerInstrs += countInstrs(mod)
	var st passes.Stats
	var err error
	cs.timed(tr, phPasses, req, func() { st, err = passes.Run(mod, passes.DefaultOptions(target)) })
	if err != nil {
		return nil, fmt.Errorf("%s (device %d): %w", name, dev, err)
	}
	cs.passInstrs += countInstrs(mod)
	cs.memPartitions += st.MemPartitions
	cs.lookupDups += st.LookupDups
	cs.hoisted += st.Hoisted
	cs.speculated += st.Speculated
	var out *p4.Program
	cs.timed(tr, phCodegen, req, func() {
		out, err = codegen.Generate(mod, codegen.Options{
			Target: p4.Target(target), ProgName: fmt.Sprintf("%s_dev%d", name, dev), ECMP: ecmp,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("%s (device %d): %w", name, dev, err)
	}
	for _, c := range out.Controls() {
		cs.tables += len(c.Tables)
		cs.actions += len(c.Actions)
	}
	return out, nil
}

// parse is p4.Parse, the entry the handwritten baselines come in by.
func (cs *compileStats) parse(tr *tracer, req int64, name, src string) (*p4.Program, error) {
	var re *p4.Program
	var err error
	cs.timed(tr, phP4Parse, req, func() { re, err = p4.Parse(name, src) })
	return re, err
}

// fit places a program on the modelled Tofino pipe.
func (cs *compileStats) fit(tr *tracer, req int64, p *p4.Program) *p4c.Report {
	var rep *p4c.Report
	cs.timed(tr, phFit, req, func() { rep = p4c.Fit(p, p4c.Tofino1()) })
	cs.fitted++
	if rep.Fits {
		cs.fits++
	}
	cs.stages += rep.StagesUsed
	if p.Target == p4.TargetTNA {
		cs.tnaStages += rep.StagesUsed
	}
	cs.latencyCycles += rep.LatencyCycles
	cs.sram += rep.SRAMBlocks
	cs.salus += rep.SALUs
	cs.phvBits += rep.PHVBitsUsed
	return rep
}

// specsOf derives the host-side message layouts from the kernels, as
// the compiler's embedded records do.
func specsOf(prog *sema.Program) map[uint8]*runtime.MessageSpec {
	specs := map[uint8]*runtime.MessageSpec{}
	for comp, kernels := range prog.Computations {
		k := kernels[0]
		spec := &runtime.MessageSpec{Comp: comp}
		ks := k.Spec()
		for i := range ks.Counts {
			spec.Args = append(spec.Args, runtime.ArgSpec{
				Name:  k.Params[i].Name(),
				Bytes: ks.Types[i].Bits() / 8,
				Count: ks.Counts[i],
				Out:   ks.Dirs[i] != sema.ByVal,
			})
		}
		specs[comp] = spec
	}
	return specs
}

// deployed is an app compiled for the simulator or the UDP device: the
// TNA program of each device, its fit, and the message layout.
type deployed struct {
	progs  map[uint16]*p4.Program
	fits   map[uint16]*p4c.Report
	spec   *runtime.MessageSpec
	stages int
}

// deploy compiles a registry app, with defines overridden, for the
// given devices. ECMP is compiled in where the topology route installer
// programs the device.
func deploy(c *ctx, appName string, defines map[string]uint64, devices []uint16, ecmp bool) (*deployed, error) {
	app := apps.ByName(appName)
	if app == nil {
		return nil, fmt.Errorf("no app %q in the registry", appName)
	}
	defs := map[string]uint64{}
	for k, v := range app.Defines {
		defs[k] = v
	}
	for k, v := range defines {
		defs[k] = v
	}
	sp, err := c.cs.frontend(nil, 0, app.Name, app.NetCL, defs)
	if err != nil {
		return nil, err
	}
	d := &deployed{progs: map[uint16]*p4.Program{}, fits: map[uint16]*p4c.Report{}, spec: specsOf(sp)[1]}
	for _, dev := range devices {
		prog, err := c.cs.backend(nil, 0, sp, app.Name, dev, passes.TargetTNA, ecmp)
		if err != nil {
			return nil, err
		}
		rep := c.cs.fit(nil, 0, prog)
		if !rep.Fits {
			return nil, fmt.Errorf("%s (device %d) does not fit: %s", app.Name, dev, rep.Reason)
		}
		d.progs[dev], d.fits[dev] = prog, rep
		d.stages += rep.StagesUsed
	}
	return d, nil
}
