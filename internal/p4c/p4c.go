// Package p4c models the proprietary Tofino P4 compiler's fitting
// behavior (bf-p4c): it places a P4 program's match-action tables,
// registers, and ALU operations onto the stages of an RMT pipeline,
// accounts per-stage SRAM/TCAM/SALU/VLIW resources and PHV allocation,
// and derives the per-packet latency from the occupied stages — the
// observables the paper evaluates in Tables IV-VI and Figure 13.
//
// The paper treats bf-p4c as a black box ("Tofino's ISA and other
// low-level architectural information needed for code generation are
// proprietary", §VI-B); this package reconstructs the fit-or-reject
// behavior from published RMT architecture descriptions.
package p4c

import (
	"fmt"
	"strings"

	"netcl/internal/p4"
)

// Options describes the target pipeline (defaults model Tofino 1).
// Every caller outside this package's tests passes Tofino1(); the
// parameter stays while bench/pipeline.go passes it (ROADMAP 1(f)).
type Options struct {
	// Stages is the number of match-action stages per pipe.
	Stages int
	// SRAMBlocksPerStage: 80 blocks of 128b x 1024 entries.
	SRAMBlocksPerStage int
	// TCAMBlocksPerStage: 24 blocks of 44b x 512 entries.
	TCAMBlocksPerStage int
	// SALUsPerStage: 4 stateful ALUs.
	SALUsPerStage int
	// VLIWSlotsPerStage: 32 VLIW instruction words.
	VLIWSlotsPerStage int
	// PHVBits models the packet header vector capacity per gress.
	PHVBits int
	// ClockGHz drives the latency conversion.
	ClockGHz float64
	// CyclesPerStage and FixedCycles (parser+deparser+TM ingress path)
	// drive the per-packet latency model.
	CyclesPerStage int
	FixedCycles    int
}

// Tofino1 returns the default pipeline model.
func Tofino1() Options {
	return Options{
		Stages:             12,
		SRAMBlocksPerStage: 80,
		TCAMBlocksPerStage: 24,
		SALUsPerStage:      4,
		VLIWSlotsPerStage:  32,
		PHVBits:            4096,
		ClockGHz:           1.22,
		CyclesPerStage:     22,
		FixedCycles:        120,
	}
}

// StageUsage reports one stage's resource consumption.
type StageUsage struct {
	SRAMBlocks int
	TCAMBlocks int
	SALUs      int
	VLIWSlots  int
	Tables     []string
	Registers  []string
	// Ops lists the destinations written in this stage (diagnostics).
	Ops []string
}

// Report is the fitting result.
type Report struct {
	Fits   bool
	Reason string // first fitting failure, if any

	StagesUsed int
	PerStage   []StageUsage

	// Pipe totals.
	SRAMBlocks, TCAMBlocks, SALUs, VLIWSlots int

	// Percentages over the whole pipe (like Table V, top half).
	SRAMPct, TCAMPct, SALUPct, VLIWPct float64
	// Worst single-stage percentages (Table V, bottom half).
	WorstSRAMPct, WorstTCAMPct, WorstSALUPct, WorstVLIWPct float64

	// PHV allocation (Table VI).
	PHVBitsUsed int
	PHVPct      float64

	// Latency (Figure 13).
	LatencyCycles int
	LatencyNs     float64
}

// Fit places the program onto the pipeline.
func Fit(prog *p4.Program, opts Options) *Report {
	if opts.Stages == 0 {
		opts = Tofino1()
	}
	// Registers and tables are pinned to single stages, but accesses on
	// different control paths may demand different floors; iterate the
	// placement with accumulated per-object floors until it stabilizes
	// (bf-p4c's table-placement retries behave similarly).
	regFloor := map[string]int{}
	tblFloor := map[string]int{}
	var f *fitter
	for pass := 0; ; pass++ {
		f = &fitter{
			prog: prog, opts: opts,
			lastWrite: map[string]int{}, regStage: map[string]int{},
			tblStage: map[string]int{}, regFloor: regFloor, tblFloor: tblFloor,
			finalPass: pass >= 6,
		}
		f.stmts(prog.Ingress, prog.Ingress.Apply, 0)
		if !f.conflict || pass >= 6 {
			break
		}
	}
	rep := &Report{Fits: true}
	f.rep = rep

	maxStage := f.stmts2Result()
	if f.failure != "" {
		rep.Fits = false
		rep.Reason = f.failure
	}
	rep.StagesUsed = maxStage + 1
	if rep.StagesUsed > opts.Stages {
		rep.Fits = false
		if rep.Reason == "" {
			rep.Reason = fmt.Sprintf("program needs %d stages but the pipe has %d", rep.StagesUsed, opts.Stages)
		}
	}

	// Aggregate resources.
	for len(f.stages) < rep.StagesUsed {
		f.stages = append(f.stages, StageUsage{})
	}
	rep.PerStage = f.stages
	for _, st := range f.stages {
		rep.SRAMBlocks += st.SRAMBlocks
		rep.TCAMBlocks += st.TCAMBlocks
		rep.SALUs += st.SALUs
		rep.VLIWSlots += st.VLIWSlots
	}
	for i, st := range f.stages {
		if st.SRAMBlocks > opts.SRAMBlocksPerStage {
			rep.Fits = false
			if rep.Reason == "" {
				rep.Reason = fmt.Sprintf("stage %d exceeds SRAM (%d > %d blocks)", i, st.SRAMBlocks, opts.SRAMBlocksPerStage)
			}
		}
		if st.TCAMBlocks > opts.TCAMBlocksPerStage {
			rep.Fits = false
			if rep.Reason == "" {
				rep.Reason = fmt.Sprintf("stage %d exceeds TCAM (%d > %d blocks)", i, st.TCAMBlocks, opts.TCAMBlocksPerStage)
			}
		}
		if st.SALUs > opts.SALUsPerStage {
			rep.Fits = false
			if rep.Reason == "" {
				rep.Reason = fmt.Sprintf("stage %d exceeds SALUs (%d > %d)", i, st.SALUs, opts.SALUsPerStage)
			}
		}
		if st.VLIWSlots > opts.VLIWSlotsPerStage {
			rep.Fits = false
			if rep.Reason == "" {
				rep.Reason = fmt.Sprintf("stage %d exceeds VLIW slots (%d > %d)", i, st.VLIWSlots, opts.VLIWSlotsPerStage)
			}
		}
	}
	pct := func(used, perStage int) float64 {
		cap := perStage * opts.Stages
		if cap == 0 {
			return 0
		}
		return 100 * float64(used) / float64(cap)
	}
	rep.SRAMPct = pct(rep.SRAMBlocks, opts.SRAMBlocksPerStage)
	rep.TCAMPct = pct(rep.TCAMBlocks, opts.TCAMBlocksPerStage)
	rep.SALUPct = pct(rep.SALUs, opts.SALUsPerStage)
	rep.VLIWPct = pct(rep.VLIWSlots, opts.VLIWSlotsPerStage)
	for _, st := range f.stages {
		rep.WorstSRAMPct = maxF(rep.WorstSRAMPct, 100*float64(st.SRAMBlocks)/float64(opts.SRAMBlocksPerStage))
		rep.WorstTCAMPct = maxF(rep.WorstTCAMPct, 100*float64(st.TCAMBlocks)/float64(opts.TCAMBlocksPerStage))
		rep.WorstSALUPct = maxF(rep.WorstSALUPct, 100*float64(st.SALUs)/float64(opts.SALUsPerStage))
		rep.WorstVLIWPct = maxF(rep.WorstVLIWPct, 100*float64(st.VLIWSlots)/float64(opts.VLIWSlotsPerStage))
	}

	rep.PHVBitsUsed = PHVBits(prog)
	rep.PHVPct = 100 * float64(rep.PHVBitsUsed) / float64(opts.PHVBits)
	if rep.PHVBitsUsed > opts.PHVBits {
		rep.Fits = false
		if rep.Reason == "" {
			rep.Reason = fmt.Sprintf("PHV demand %d bits exceeds %d", rep.PHVBitsUsed, opts.PHVBits)
		}
	}

	rep.LatencyCycles = opts.FixedCycles + rep.StagesUsed*opts.CyclesPerStage
	rep.LatencyNs = float64(rep.LatencyCycles) / opts.ClockGHz
	return rep
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// fitter walks the apply body allocating operations to stages.
type fitter struct {
	prog *p4.Program
	opts Options
	rep  *Report

	// lastWrite maps field path -> stage of last writer.
	lastWrite map[string]int
	// regStage pins each register to its single stage (Tofino memory
	// is stage-local).
	regStage map[string]int
	// tblStage pins each table (a table is applied once but may be
	// reached from several paths).
	tblStage map[string]int
	// regFloor/tblFloor carry stage floors across placement passes.
	regFloor  map[string]int
	tblFloor  map[string]int
	conflict  bool
	finalPass bool

	maxStageSeen int

	stages  []StageUsage
	failure string
}

// stmts2Result returns the maximum stage used by the accepted pass.
func (f *fitter) stmts2Result() int { return f.maxStageSeen }

func (f *fitter) fail(format string, args ...interface{}) {
	if f.failure == "" {
		f.failure = fmt.Sprintf(format, args...)
	}
}

func (f *fitter) stageAt(i int) *StageUsage {
	for len(f.stages) <= i {
		f.stages = append(f.stages, StageUsage{})
	}
	return &f.stages[i]
}

// readFloor is the earliest stage at which all given fields are
// available (one past their last writer).
func (f *fitter) readFloor(fields []string) int {
	floor := 0
	for _, fd := range fields {
		if s, ok := f.lastWrite[fd]; ok && s+1 > floor {
			floor = s + 1
		}
	}
	return floor
}

// exprFields collects field paths read by an expression.
func exprFields(e p4.Expr, out *[]string) {
	switch x := e.(type) {
	case *p4.FieldRef:
		*out = append(*out, x.String())
	case *p4.Bin:
		exprFields(x.X, out)
		exprFields(x.Y, out)
	case *p4.Un:
		exprFields(x.X, out)
	case *p4.Cast:
		exprFields(x.X, out)
	case *p4.TernaryExpr:
		exprFields(x.Cond, out)
		exprFields(x.A, out)
		exprFields(x.B, out)
	case *p4.CallExpr:
		for _, a := range x.Args {
			exprFields(a, out)
		}
	}
}

// stmts schedules a statement list with the given control floor and
// returns the maximum stage used (floor-1 if empty).
func (f *fitter) stmts(c *p4.Control, body []p4.Stmt, floor int) int {
	maxStage := floor - 1
	cur := floor
	for _, st := range body {
		s := f.stmt(c, st, cur)
		if s > maxStage {
			maxStage = s
		}
	}
	if maxStage > f.maxStageSeen {
		f.maxStageSeen = maxStage
	}
	return maxStage
}

func (f *fitter) stmt(c *p4.Control, st p4.Stmt, floor int) int {
	switch x := st.(type) {
	case *p4.Comment, *p4.SetValid, *p4.Exit:
		return floor - 1
	case *p4.Assign:
		return f.assign(c, x, floor)
	case *p4.If:
		var condReads []string
		exprFields(x.Cond, &condReads)
		// The condition itself occupies a VLIW decision in its stage.
		condStage := maxInt(floor, f.readFloor(condReads))
		inner := condStage
		// Branches share the incoming state; writes merge as max.
		saved := copyMap(f.lastWrite)
		thenMax := f.stmts(c, x.Then, inner)
		thenWrites := f.lastWrite
		f.lastWrite = copyMap(saved)
		elseMax := f.stmts(c, x.Else, inner)
		for k, v := range thenWrites {
			if v > f.lastWrite[k] {
				f.lastWrite[k] = v
			}
		}
		m := maxInt(thenMax, elseMax)
		return maxInt(m, condStage-1)
	case *p4.ApplyTable:
		return f.applyTable(c, x, floor)
	case *p4.CallStmt:
		return f.callStmt(c, x, floor)
	}
	return floor - 1
}

func copyMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// assign places one assignment: a plain VLIW op, a SALU transaction
// (RegisterAction.execute), or a hash computation.
func (f *fitter) assign(c *p4.Control, a *p4.Assign, floor int) int {
	var reads []string
	exprFields(a.RHS, &reads)
	stage := maxInt(floor, f.readFloor(reads))

	if call, ok := a.RHS.(*p4.CallExpr); ok && call.Method == "execute" {
		if ra := c.RegActByName(call.Recv); ra != nil {
			stage = f.placeRegister(c, ra, stage)
		}
	}
	if call, ok := a.RHS.(*p4.CallExpr); ok && call.Method == "apply_hit" {
		stage = f.placeTable(c, call.Recv, stage)
	}
	stage = f.vliwStage(stage)
	st := f.stageAt(stage)
	st.VLIWSlots++
	st.Ops = append(st.Ops, a.LHS.String())
	f.lastWrite[a.LHS.String()] = stage
	return stage
}

// vliwStage finds the first stage at or after want with a free VLIW
// slot (bf-p4c spreads action logic across stages the same way).
func (f *fitter) vliwStage(want int) int {
	for s := want; s < want+2*f.opts.Stages; s++ {
		if f.stageAt(s).VLIWSlots < f.opts.VLIWSlotsPerStage {
			return s
		}
	}
	f.fail("no stage with free VLIW slots from stage %d", want)
	return want
}

// placeRegister pins a register's SALU transactions to one stage: the
// first stage at or after the dependence floor with a free SALU and
// enough SRAM. Once pinned, later accesses that would need a deeper
// stage are a fitting failure (Tofino stateful memory is stage-local).
func (f *fitter) placeRegister(c *p4.Control, ra *p4.RegisterAction, want int) int {
	reg := c.RegisterByName(ra.Register)
	if fl, ok := f.regFloor[ra.Register]; ok && fl > want {
		want = fl
	}
	if prev, ok := f.regStage[ra.Register]; ok {
		if want > prev {
			if f.finalPass {
				f.fail("register %s is pinned to stage %d but an access requires stage %d; Tofino stateful memory is stage-local", ra.Register, prev, want)
				return want
			}
			f.conflict = true
			if want > f.regFloor[ra.Register] {
				f.regFloor[ra.Register] = want
			}
			return prev
		}
		return prev
	}
	blocks := sramBlocks(reg.Size, reg.Bits)
	stage := want
	for ; stage < want+2*f.opts.Stages; stage++ {
		st := f.stageAt(stage)
		if st.SALUs < f.opts.SALUsPerStage &&
			st.SRAMBlocks+blocks <= f.opts.SRAMBlocksPerStage {
			break
		}
	}
	f.regStage[ra.Register] = stage
	st := f.stageAt(stage)
	st.SALUs++
	st.Registers = append(st.Registers, ra.Register)
	st.SRAMBlocks += blocks
	return stage
}

// placeTable pins a table to a stage and accounts its memories.
func (f *fitter) placeTable(c *p4.Control, name string, want int) int {
	t := c.TableByName(name)
	if t == nil {
		return want
	}
	// Keys read fields; action bodies read their right-hand sides
	// (assignment destinations are writes, not dependencies).
	var reads []string
	for _, k := range t.Keys {
		exprFields(k.Expr, &reads)
	}
	for _, an := range t.Actions {
		if a := c.ActionByName(an); a != nil {
			p4.Walk(a.Body, func(s p4.Stmt) {
				switch st := s.(type) {
				case *p4.Assign:
					exprFields(st.RHS, &reads)
				case *p4.If:
					exprFields(st.Cond, &reads)
				case *p4.CallStmt:
					for _, arg := range st.Args {
						exprFields(arg, &reads)
					}
				}
			})
		}
	}
	want = maxInt(want, f.readFloor(reads))
	if fl, ok := f.tblFloor[name]; ok && fl > want {
		want = fl
	}
	if prev, ok := f.tblStage[name]; ok {
		if want > prev {
			if f.finalPass {
				f.fail("table %s applied at incompatible stages (%d vs %d)", name, prev, want)
			} else {
				f.conflict = true
				if want > f.tblFloor[name] {
					f.tblFloor[name] = want
				}
			}
		}
		return prev
	}

	keyBits := 0
	ternary := false
	for _, k := range t.Keys {
		keyBits += keyWidth(f.prog, c, k.Expr)
		if k.Match == p4.MatchTernary || k.Match == p4.MatchRange || k.Match == p4.MatchLPM {
			ternary = true
		}
	}
	entries := t.Size
	if entries == 0 {
		entries = len(t.Entries)
	}
	if entries == 0 {
		entries = 1
	}
	actionDataBits := 0
	for _, an := range t.Actions {
		if a := c.ActionByName(an); a != nil {
			for _, p := range a.Params {
				actionDataBits += p.Bits
			}
		}
	}
	needTCAM := 0
	needSRAM := 0
	if ternary {
		needTCAM = tcamBlocks(entries, keyBits)
		if actionDataBits > 0 {
			needSRAM = sramBlocks(entries, actionDataBits)
		}
	} else {
		needSRAM = sramBlocks(entries, keyBits+actionDataBits+8)
	}
	needVLIW := maxInt(1, len(t.Actions))

	// First stage at or after the floor with room for the table.
	stage := want
	for ; stage < want+2*f.opts.Stages; stage++ {
		st := f.stageAt(stage)
		if st.SRAMBlocks+needSRAM <= f.opts.SRAMBlocksPerStage &&
			st.TCAMBlocks+needTCAM <= f.opts.TCAMBlocksPerStage &&
			st.VLIWSlots+needVLIW <= f.opts.VLIWSlotsPerStage {
			break
		}
	}
	f.tblStage[name] = stage
	st := f.stageAt(stage)
	st.Tables = append(st.Tables, name)
	st.TCAMBlocks += needTCAM
	st.SRAMBlocks += needSRAM
	st.VLIWSlots += needVLIW

	// Mark action writes.
	for _, an := range t.Actions {
		if a := c.ActionByName(an); a != nil {
			p4.Walk(a.Body, func(s p4.Stmt) {
				if as, ok := s.(*p4.Assign); ok {
					f.lastWrite[as.LHS.String()] = stage
				}
			})
		}
	}
	return stage
}

func (f *fitter) applyTable(c *p4.Control, x *p4.ApplyTable, floor int) int {
	stage := f.placeTable(c, x.Table, floor)
	if x.HitVar != "" {
		f.lastWrite[x.HitVar] = stage
	}
	return stage
}

func (f *fitter) callStmt(c *p4.Control, x *p4.CallStmt, floor int) int {
	// v1model register primitives: treat like SALU transactions.
	if reg := c.RegisterByName(x.Recv); reg != nil {
		var reads []string
		for _, a := range x.Args {
			exprFields(a, &reads)
		}
		stage := maxInt(floor, f.readFloor(reads))
		if fl, ok := f.regFloor[x.Recv]; ok && fl > stage {
			stage = fl
		}
		if prev, ok := f.regStage[x.Recv]; ok {
			if stage > prev {
				if f.finalPass {
					f.fail("register %s needs two stages (%d and %d)", x.Recv, prev, stage)
				} else {
					f.conflict = true
					if stage > f.regFloor[x.Recv] {
						f.regFloor[x.Recv] = stage
					}
				}
			}
			stage = prev
		} else {
			blocks := sramBlocks(reg.Size, reg.Bits)
			for ; stage < floor+2*f.opts.Stages; stage++ {
				st := f.stageAt(stage)
				if st.SALUs < f.opts.SALUsPerStage &&
					st.SRAMBlocks+blocks <= f.opts.SRAMBlocksPerStage {
					break
				}
			}
			f.regStage[x.Recv] = stage
			st := f.stageAt(stage)
			st.SALUs++
			st.Registers = append(st.Registers, x.Recv)
			st.SRAMBlocks += blocks
		}
		if x.Method == "read" {
			if dst, ok := x.Args[0].(*p4.FieldRef); ok {
				f.lastWrite[dst.String()] = stage
			}
		}
		f.stageAt(stage).VLIWSlots++
		return stage
	}
	if ra := c.RegActByName(x.Recv); ra != nil && x.Method == "execute" {
		var reads []string
		for _, a := range x.Args {
			exprFields(a, &reads)
		}
		stage := f.placeRegister(c, ra, maxInt(floor, f.readFloor(reads)))
		f.stageAt(stage).VLIWSlots++
		return stage
	}
	// Plain action call: expand its body at this point.
	if a := c.ActionByName(x.Method); a != nil && x.Recv == "" {
		return f.stmts(c, a.Body, floor)
	}
	return floor - 1
}

// keyWidth estimates the bit width of a key expression.
func keyWidth(prog *p4.Program, c *p4.Control, e p4.Expr) int {
	if fr, ok := e.(*p4.FieldRef); ok {
		name := fr.String()
		if strings.HasPrefix(name, "hdr.") {
			rest := strings.TrimPrefix(name, "hdr.")
			if i := strings.IndexByte(rest, '.'); i > 0 {
				if h := prog.HeaderByName(rest[:i]); h != nil {
					if fd := h.FieldByName(rest[i+1:]); fd != nil {
						return fd.Bits
					}
				}
			}
		}
		if strings.HasPrefix(name, "meta.") {
			for _, m := range prog.Metadata {
				if "meta."+m.Name == name {
					return m.Bits
				}
			}
		}
		for _, l := range c.Locals {
			if l.Name == name {
				return l.Bits
			}
		}
	}
	return 32
}

// sramBlocks sizes a memory in 128b x 1024 SRAM blocks. Narrow entries
// pack multiple per row (e.g. four 32-bit register cells per 128-bit
// word), as on real Tofino unit RAMs.
func sramBlocks(entries, bits int) int {
	if entries <= 0 || bits <= 0 {
		return 1
	}
	if bits >= 128 {
		words := (bits + 127) / 128
		rows := (entries + 1023) / 1024
		return maxInt(1, words*rows)
	}
	perRow := 128 / bits
	return maxInt(1, (entries+1024*perRow-1)/(1024*perRow))
}

// tcamBlocks sizes a ternary memory in 44b x 512 TCAM blocks.
func tcamBlocks(entries, keyBits int) int {
	if entries <= 0 {
		return 1
	}
	words := (keyBits + 43) / 44
	rows := (entries + 511) / 512
	return maxInt(1, words*rows)
}
