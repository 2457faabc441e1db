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

// Fit places the program onto the pipeline. A program p4.Validate
// refuses does not fit, for that reason.
func Fit(prog *p4.Program, opts Options) *Report {
	if opts.Stages == 0 {
		opts = Tofino1()
	}
	widths, err := prog.Validate()
	if err != nil {
		return &Report{Reason: err.Error()}
	}
	// Registers and tables are pinned to single stages, but accesses on
	// different control paths may demand different floors; iterate the
	// placement with accumulated per-object floors until it stabilizes
	// (bf-p4c's table-placement retries behave similarly).
	regFloor := map[string]int{}
	tblFloor := map[string]int{}
	ids := &fieldIDs{byPath: map[string]int32{}}
	var f *fitter
	for pass := 0; ; pass++ {
		f = &fitter{
			prog: prog, widths: widths, opts: opts, ids: ids,
			regStage: map[string]int{}, tblStage: map[string]int{},
			regFloor: regFloor, tblFloor: tblFloor, finalPass: pass >= 6,
		}
		f.stmts(prog.Ingress, prog.Ingress.Apply, 0)
		if !f.conflict || pass >= 6 {
			break
		}
	}
	rep := &Report{Fits: true}
	f.rep = rep

	maxStage := f.maxStageSeen
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
	prog   *p4.Program
	widths p4.Widths // from p4.Validate
	opts   Options
	rep    *Report

	// ids numbers the field paths, shared by every placement pass.
	ids *fieldIDs
	// lastWrite maps field id -> stage of last writer, -1 for none.
	// Every change goes through write, which logs the old value in undo
	// so that a branch can be rolled back.
	lastWrite []int32
	undo      []fieldStage
	// thenWrites stacks, per enclosing if, the then-branch's final
	// stage of each field it wrote; merged marks fields during a merge.
	thenWrites []fieldStage
	merged     []int32
	mergeMark  int32
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

// fieldIDs numbers field paths densely for one Fit, across its
// placement passes. A path is joined into a reused buffer, and only a
// new one is copied out.
type fieldIDs struct {
	byPath map[string]int32
	paths  []string
	buf    []byte
}

func (n *fieldIDs) path(p string) int32 {
	id, ok := n.byPath[p]
	if !ok {
		id = int32(len(n.paths))
		n.byPath[p] = id
		n.paths = append(n.paths, p)
	}
	return id
}

func (n *fieldIDs) ref(r *p4.FieldRef) int32 {
	if len(r.Parts) == 1 {
		return n.path(r.Parts[0])
	}
	n.buf = n.buf[:0]
	for k, p := range r.Parts {
		if k > 0 {
			n.buf = append(n.buf, '.')
		}
		n.buf = append(n.buf, p...)
	}
	if id, ok := n.byPath[string(n.buf)]; ok {
		return id
	}
	return n.path(string(n.buf))
}

// last is the stage of the field's last writer, -1 if none.
func (f *fitter) last(id int32) int {
	if int(id) < len(f.lastWrite) {
		return int(f.lastWrite[id])
	}
	return -1
}

// readFloor raises floor to the earliest stage at which every field e
// reads is available (one past its last writer).
func (f *fitter) readFloor(e p4.Expr, floor int) int {
	switch x := e.(type) {
	case *p4.FieldRef:
		return maxInt(floor, f.last(f.ids.ref(x))+1)
	case *p4.Bin:
		return f.readFloor(x.Y, f.readFloor(x.X, floor))
	case *p4.Un:
		return f.readFloor(x.X, floor)
	case *p4.Cast:
		return f.readFloor(x.X, floor)
	case *p4.TernaryExpr:
		return f.readFloor(x.B, f.readFloor(x.A, f.readFloor(x.Cond, floor)))
	case *p4.CallExpr:
		for _, a := range x.Args {
			floor = f.readFloor(a, floor)
		}
	}
	return floor
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
		// The condition itself occupies a VLIW decision in its stage.
		condStage := f.readFloor(x.Cond, floor)
		inner := condStage
		// Branches share the incoming state: the then-branch's writes
		// are rolled back before the else-branch runs.
		mark := len(f.undo)
		thenMax := f.stmts(c, x.Then, inner)
		from := len(f.thenWrites)
		for _, u := range f.undo[mark:] {
			f.thenWrites = append(f.thenWrites, fieldStage{u.field, f.lastWrite[u.field]})
		}
		to := len(f.thenWrites)
		f.rollback(mark)
		elseMax := f.stmts(c, x.Else, inner)
		f.merge(f.thenWrites[from:to], mark)
		f.thenWrites = f.thenWrites[:from]
		m := maxInt(thenMax, elseMax)
		return maxInt(m, condStage-1)
	case *p4.ApplyTable:
		return f.applyTable(c, x, floor)
	case *p4.CallStmt:
		return f.callStmt(c, x, floor)
	}
	return floor - 1
}

// fieldStage is a field id and a stage; in the undo log, the stage the
// field had before the write (-1 for none).
type fieldStage struct {
	field int32
	stage int32
}

// write records that field's last writer is in stage.
func (f *fitter) write(field int32, stage int) {
	for int(field) >= len(f.lastWrite) {
		f.lastWrite = append(f.lastWrite, -1)
	}
	f.undo = append(f.undo, fieldStage{field, f.lastWrite[field]})
	f.lastWrite[field] = int32(stage)
}

// rollback undoes every write logged since mark.
func (f *fitter) rollback(mark int) {
	for n := len(f.undo) - 1; n >= mark; n-- {
		f.lastWrite[f.undo[n].field] = f.undo[n].stage
	}
	f.undo = f.undo[:mark]
}

// merge joins an if's branches once the else-branch, whose writes are
// logged from mark, has run. A field takes the then-branch's stage when
// that is greater than the else-branch's, a field the else-branch does
// not know counting as stage 0; a field the then-branch did not write
// has there its stage from before the if.
func (f *fitter) merge(then []fieldStage, mark int) {
	for len(f.merged) < len(f.lastWrite) {
		f.merged = append(f.merged, 0)
	}
	f.mergeMark++
	for _, w := range then {
		f.merged[w.field] = f.mergeMark
	}
	// An unwritten field compares as stage 0 and only a later stage
	// replaces it, so a field absent on both sides stays absent.
	end := len(f.undo)
	for _, u := range f.undo[mark:end] {
		if f.merged[u.field] == f.mergeMark {
			continue
		}
		// The field's first write in the else-branch logged its stage
		// from before the if.
		f.merged[u.field] = f.mergeMark
		if u.stage > max(f.lastWrite[u.field], 0) {
			f.write(u.field, int(u.stage))
		}
	}
	for _, w := range then {
		if w.stage > max(f.lastWrite[w.field], 0) {
			f.write(w.field, int(w.stage))
		}
	}
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
	stage := f.readFloor(a.RHS, floor)

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
	id := f.ids.ref(a.LHS)
	st.Ops = append(st.Ops, f.ids.paths[id])
	f.write(id, stage)
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
	for _, k := range t.Keys {
		want = f.readFloor(k.Expr, want)
	}
	for _, an := range t.Actions {
		if a := c.ActionByName(an); a != nil {
			p4.Walk(a.Body, func(s p4.Stmt) {
				switch st := s.(type) {
				case *p4.Assign:
					want = f.readFloor(st.RHS, want)
				case *p4.If:
					want = f.readFloor(st.Cond, want)
				case *p4.CallStmt:
					for _, arg := range st.Args {
						want = f.readFloor(arg, want)
					}
				}
			})
		}
	}
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
		keyBits += f.widths.Of(k.Expr)
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
					f.write(f.ids.ref(as.LHS), stage)
				}
			})
		}
	}
	return stage
}

func (f *fitter) applyTable(c *p4.Control, x *p4.ApplyTable, floor int) int {
	stage := f.placeTable(c, x.Table, floor)
	if x.HitVar != "" {
		f.write(f.ids.path(x.HitVar), stage)
	}
	return stage
}

func (f *fitter) callStmt(c *p4.Control, x *p4.CallStmt, floor int) int {
	// v1model register primitives: treat like SALU transactions.
	if reg := c.RegisterByName(x.Recv); reg != nil {
		stage := floor
		for _, a := range x.Args {
			stage = f.readFloor(a, stage)
		}
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
				f.write(f.ids.ref(dst), stage)
			}
		}
		f.stageAt(stage).VLIWSlots++
		return stage
	}
	if ra := c.RegActByName(x.Recv); ra != nil && x.Method == "execute" {
		stage := floor
		for _, a := range x.Args {
			stage = f.readFloor(a, stage)
		}
		stage = f.placeRegister(c, ra, stage)
		f.stageAt(stage).VLIWSlots++
		return stage
	}
	// Plain action call: expand its body at this point.
	if a := c.ActionByName(x.Method); a != nil && x.Recv == "" {
		return f.stmts(c, a.Body, floor)
	}
	return floor - 1
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
