package bmv2

// compile.go implements the prepare half of the interpreter's
// prepare/execute split. A one-time compile step resolves every
// p4.FieldRef path to an integer slot in a flat frame of words, every
// action/table/register name to a direct pointer, and every statement
// to a few flat instructions (instr.go) whose operands are slots and
// whose result widths are constants — the widths p4.Validate decided
// — so the per-packet execute step touches no maps, resolves no names
// and derives no masks. The approach follows the NetKAT compiler
// lineage: stop re-interpreting the program per packet and run a
// pre-compiled form instead.
//
// p4.Validate decides what is legal (names, widths, scope, recursion,
// parser targets); compilation refuses only an AST node type it has no
// case for. The Switch returns a refusal from every Process call.

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"netcl/internal/p4"
)

// Parser transition sentinels (real state indices are >= 0).
const (
	stateAccept = -1
	stateReject = -2
)

// Field kinds of the extract/emit plans.
const (
	f1 uint8 = iota // byte-aligned fields of 1, 2, 4, 8 bytes:
	f2              // one fixed-width big-endian load or store
	f4
	f8
	fN    // byte-aligned field of 3, 5, 6, 7 (or more than 8) bytes
	fBits // unaligned field: bit-level extraction
)

// cfield is one step of an extract or emit plan: a header field
// resolved to its frame slot and byte layout. A step of a fixed-width
// kind covers run adjacent fields of that width in adjacent slots — an
// array such as AGG's 32 values is one step.
type cfield struct {
	kind   uint8
	slot   int32
	bits   int32
	off    int32 // byte offset in the header; bit offset for fBits
	nbytes int32
	run    int32
}

// chdr is a compiled header declaration: its fields one by one (the
// bit-packing emit loop walks these) and as a plan with runs merged.
// planFields splits the fields by use into the plans live (read or
// written), dead (the rest) and patch (written).
type chdr struct {
	name       string
	fields     []cfield
	plan       []cfield
	live, dead []cfield
	patch      []cfield
	nbytes     int
	allAligned bool
	// patchable: every field byte-aligned, at most 64 bits wide and
	// in a slot of its own, so the full emit of a field nothing wrote
	// stores its input bytes.
	patchable bool
}

// mergeRuns folds adjacent fixed-width fields of one header into one
// step each: fields next to each other in the header whose slots are
// next to each other too (they are not when the header repeats a field
// name, or when a field between them was dropped from the plan).
func mergeRuns(fields []cfield) []cfield {
	var plan []cfield
	for _, f := range fields {
		if n := len(plan); n > 0 && f.kind >= f1 && f.kind <= f8 {
			if last := &plan[n-1]; last.kind == f.kind && f.slot == last.slot+last.run && f.off == last.off+last.run*f.nbytes {
				last.run++
				continue
			}
		}
		plan = append(plan, f)
	}
	return plan
}

// ccase is one compiled select case.
type ccase struct {
	value, mask uint64
	next        int
}

// cstate is a compiled parser state: the headers it extracts (each
// through its live plan), then a select on a slot (after running key,
// when the select expression is more than a field) or an unconditional
// transition.
type cstate struct {
	hdrs    []int32
	key     span
	keySlot int32
	cases   []ccase
	next    int // select default, or the unconditional target
}

// caction is a compiled apply-level action instance, invoked by table
// entries: parameter slots plus its own code block. Direct action
// calls are inlined at their call site instead.
type caction struct {
	name   string
	params []int32
	bits   []int
	body   span
}

// invoke binds constant args (table entries, defaults) and runs the body.
func (a *caction) invoke(m *machine, args []uint64) error {
	for i, slot := range a.params {
		var v uint64
		if i < len(args) {
			v = args[i] & maskOf(a.bits[i])
		}
		m.frame[slot] = v
	}
	return m.exec(a.body.start, a.body.end)
}

// cctl is a compiled control block.
type cctl struct {
	c       *p4.Control
	actions map[string]*caction // apply-level instances (table entries resolve here)
	tables  map[string]*ctable
	body    span
}

// cprog is the compiled program.
type cprog struct {
	sw        *Switch
	initFrame []uint64
	// nGlobal bounds the slots a packet may read before writing them
	// (header fields, metadata, locals, intrinsics): reset copies
	// only those. Constants, parameters and temporaries follow.
	nGlobal int
	headers []chdr
	states  []cstate
	start   int

	code      []instr
	regSites  []regSite
	vregSites []vregSite
	maxLanes  int // the widest fused run: the length of machine.cells
	hashSites []hashSite

	ingress *cctl
	egress  *cctl // nil when the program has no egress control
	// tablesByName maps a table name to every compiled table sharing
	// that entry list (s.entries is keyed by name across controls).
	tablesByName map[string][]*ctable
	// tabs indexes every compiled table by its gslot; gen holds the
	// published rule-set generation — one snapshot per table — swapped
	// as a whole so multi-table batches commit atomically (table.go).
	tabs       []*ctable
	gen        atomic.Pointer[generation]
	portSlot   int
	mcastSlot  int
	dropSlot   int
	inPortSlot int    // meta.ingress_port, written per packet before parse
	inPortMask uint64 // the mask of its declared width
	pool       sync.Pool
}

// compiler carries compile-time state.
type compiler struct {
	p      *cprog
	s      *Switch
	w      p4.Widths      // every expression's width, from p4.Validate
	slotOf map[string]int // global name -> frame slot
	hdrIdx map[string]int // header name -> index in cprog.headers
	consts map[uint64]int32
	refs   map[*p4.FieldRef]string // each field reference's dotted path, joined once
	// hasExit: the program contains an exit statement, so every
	// statement is preceded by the reference loop's exited test.
	hasExit bool
	// catch collects the instructions that must transfer to the
	// innermost enclosing expression-level error handler; nil means an
	// error aborts the packet.
	catch *[]int
}

// cvar is a name bound by a compile-time scope: its slot and declared
// width.
type cvar struct {
	slot int32
	bits int
}

// cscope is the compile-time frame of an action or register-action
// body: its params, or m and o. Scope is lexical, as p4.Validate typed
// it: a body sees its own frame and the globals, never its caller's. A
// frame binds a handful of names, in declaration order; a repeated
// name resolves to its last binding, like the reference's map.
type cscope struct {
	names []string
	vars  []cvar
}

// place is where a name lives: the body's frame binding, else the
// global.
func (cc *compiler) place(sc *cscope, name string) cvar {
	if sc != nil {
		for i := len(sc.names) - 1; i >= 0; i-- {
			if sc.names[i] == name {
				return sc.vars[i]
			}
		}
	}
	return cc.global(name)
}

// operand locates the value of a compiled expression: the slot that
// holds it once the code emitted so far has run, and its width. The
// slot's value never exceeds that width's mask.
type operand struct {
	slot int32
	bits int
	// owned: a temporary or constant that no program statement writes,
	// so it may be read after later operands have run.
	owned bool
}

// compileProgram builds the slot-indexed form of s.Prog, which
// p4.Validate has checked. The compiled engine reproduces the
// reference interpreter exactly.
func compileProgram(s *Switch) (*cprog, error) {
	prog := s.Prog
	p := &cprog{
		sw:           s,
		initFrame:    make([]uint64, 0, 3*len(s.fields)+16),
		code:         make([]instr, 0, 6*len(s.fields)+16),
		tablesByName: map[string][]*ctable{},
	}
	cc := &compiler{
		p: p, s: s, w: s.widths,
		slotOf: make(map[string]int, len(s.fields)+8),
		hdrIdx: map[string]int{},
		consts: map[uint64]int32{},
		refs:   make(map[*p4.FieldRef]string, 2*len(s.fields)),
	}

	// Global slots in deterministic program order: control locals,
	// header fields, metadata — mirroring how New populated s.fields —
	// then every other name the program mentions, so the globals form
	// one prefix of the frame.
	for _, c := range prog.Controls() {
		for _, l := range c.Locals {
			cc.global(l.Name)
		}
	}
	for hi, h := range prog.Headers {
		cc.hdrIdx[h.Name] = hi
		ch := chdr{name: h.Name, nbytes: h.Bits() / 8, allAligned: true, patchable: true}
		bitOff := 0
		for _, f := range h.Fields {
			cf := cfield{
				kind: fBits,
				slot: cc.global("hdr." + h.Name + "." + f.Name).slot,
				bits: int32(f.Bits),
				off:  int32(bitOff),
				run:  1,
			}
			if f.Bits > 64 || slices.ContainsFunc(ch.fields, func(g cfield) bool { return g.slot == cf.slot }) {
				ch.patchable = false
			}
			if bitOff%8 == 0 && f.Bits%8 == 0 {
				cf.off, cf.nbytes = int32(bitOff/8), int32(f.Bits/8)
				switch cf.nbytes {
				case 1:
					cf.kind = f1
				case 2:
					cf.kind = f2
				case 4:
					cf.kind = f4
				case 8:
					cf.kind = f8
				default:
					cf.kind = fN
				}
			} else {
				ch.allAligned, ch.patchable = false, false
			}
			ch.fields = append(ch.fields, cf)
			bitOff += f.Bits
		}
		ch.plan = mergeRuns(ch.fields)
		p.headers = append(p.headers, ch)
	}
	for _, f := range prog.Metadata {
		cc.global("meta." + f.Name)
	}
	p.portSlot = int(cc.global("meta.egress_port").slot)
	p.mcastSlot = int(cc.global("meta.mcast_grp").slot)
	p.dropSlot = int(cc.global("meta.drop_flag").slot)
	inPort := cc.global("meta.ingress_port")
	p.inPortSlot, p.inPortMask = int(inPort.slot), maskOf(inPort.bits)

	// Every global slot is allocated: the globals are one prefix of the
	// frame. Controls: exit scan first (every exit seen before the
	// first instruction is emitted), then tables (they exist before
	// bodies reference them), then apply-level action instances (table
	// entries resolve into these), then bodies.
	p.ingress = cc.scanControl(prog.Ingress)
	if prog.Egress != nil {
		p.egress = cc.scanControl(prog.Egress)
	}
	for _, ctl := range p.controls() {
		for _, t := range ctl.c.Tables {
			tb, err := cc.table(ctl, t)
			if err != nil {
				return nil, err
			}
			ctl.tables[t.Name] = tb
			p.tablesByName[t.Name] = append(p.tablesByName[t.Name], tb)
		}
	}
	for _, ctl := range p.controls() {
		for _, a := range ctl.c.Actions {
			inst, err := cc.action(ctl.c, a)
			if err != nil {
				return nil, err
			}
			ctl.actions[a.Name] = inst
		}
	}
	for _, ctl := range p.controls() {
		ctl.body.start = cc.here()
		if err := cc.block(ctl.c, nil, ctl.c.Apply); err != nil {
			return nil, err
		}
		ctl.body.end = cc.here()
	}

	if err := cc.parser(prog.Parser); err != nil {
		return nil, err
	}
	p.planFields()
	p.fuse()

	// Eager initial generation (static entries are already in
	// s.entries; action instances resolved above).
	snaps := make([]*tsnap, len(p.tabs))
	for i, tb := range p.tabs {
		snaps[i] = tb.build()
	}
	p.gen.Store(&generation{snaps: snaps})

	p.pool.New = func() any {
		return &machine{
			sw:      s,
			prog:    p,
			frame:   append([]uint64(nil), p.initFrame...),
			valid:   make([]bool, len(p.headers)),
			emitted: make([]bool, len(p.headers)),
			cells:   make([]*uint64, p.maxLanes),
		}
	}
	return p, nil
}

// planFields cuts each header's extract plan down to the fields the
// program uses. A field is live when an instruction, a table key, a
// hash argument or a select key reads it, or an instruction writes it;
// nothing reads a dead field before the deparser, which either finds
// it in the copied input packet or extracts it on its full path.
func (p *cprog) planFields() {
	read := make([]bool, p.nGlobal)
	wrote := make([]bool, p.nGlobal)
	mark := func(set []bool, slot int32) {
		if slot >= 0 && int(slot) < len(set) {
			set[slot] = true
		}
	}
	for i := range p.code {
		a, b, w := p.code[i].access()
		mark(read, a)
		mark(read, b)
		mark(wrote, w)
	}
	for _, tb := range p.tabs {
		for _, slot := range tb.keys {
			mark(read, slot)
		}
	}
	for _, hs := range p.hashSites {
		for _, a := range hs.args {
			mark(read, a.slot)
		}
	}
	for _, st := range p.states {
		if len(st.cases) > 0 {
			mark(read, st.keySlot)
		}
	}
	for i := range p.headers {
		h := &p.headers[i]
		var live, dead, patch []cfield
		for _, f := range h.fields {
			switch {
			case wrote[f.slot]:
				live, patch = append(live, f), append(patch, f)
			case read[f.slot]:
				live = append(live, f)
			default:
				dead = append(dead, f)
			}
		}
		h.live, h.dead, h.patch = mergeRuns(live), mergeRuns(dead), mergeRuns(patch)
	}
}

func (p *cprog) controls() []*cctl {
	if p.egress == nil {
		return []*cctl{p.ingress}
	}
	return []*cctl{p.ingress, p.egress}
}

// ref is a field reference's dotted path. Every pass over the program
// asks, so the path is joined once per AST node.
func (cc *compiler) ref(fr *p4.FieldRef) string {
	name, ok := cc.refs[fr]
	if !ok {
		name = fr.String()
		cc.refs[fr] = name
	}
	return name
}

// global returns (allocating its slot on first use) a global name:
// header field, metadata, control local, or an intrinsic the program
// never mentions (bits 0). p4.Validate admits no other global.
func (cc *compiler) global(name string) cvar {
	db := cc.s.fields[name]
	i, ok := cc.slotOf[name]
	if !ok {
		i = len(cc.p.initFrame)
		cc.slotOf[name] = i
		cc.p.initFrame = append(cc.p.initFrame, 0)
		cc.p.nGlobal = i + 1
	}
	return cvar{slot: int32(i), bits: db}
}

// newSlot allocates an anonymous frame slot (action params, m/o,
// temporaries): always written before it is read.
func (cc *compiler) newSlot() int32 {
	cc.p.initFrame = append(cc.p.initFrame, 0)
	return int32(len(cc.p.initFrame) - 1)
}

// konst returns the read-only slot holding the constant v of a width.
func (cc *compiler) konst(v uint64, bits int) operand {
	v &= maskOf(bits)
	slot, ok := cc.consts[v]
	if !ok {
		slot = cc.newSlot()
		cc.p.initFrame[slot] = v
		cc.consts[v] = slot
	}
	return operand{slot: slot, bits: bits, owned: true}
}

// Emission -------------------------------------------------------------

func (cc *compiler) here() int32 { return int32(len(cc.p.code)) }

func (cc *compiler) emit(in instr) int {
	cc.p.code = append(cc.p.code, in)
	return len(cc.p.code) - 1
}

// land points the jumps at pcs to the next instruction emitted.
func (cc *compiler) land(pcs ...int) {
	for _, pc := range pcs {
		cc.p.code[pc].dst = cc.here()
	}
}

// dest picks the slot an operator writes: the caller's hint when it
// gave one (the statement's own destination), else a fresh temporary.
func (cc *compiler) dest(hint int32) (slot int32, owned bool) {
	if hint >= 0 {
		return hint, false
	}
	return cc.newSlot(), true
}

// storeAs emits dst = operand & mask(bits): the reference
// store into a name, and the unsigned cast. An operand already in dst
// fits when it is no wider.
func (cc *compiler) storeAs(dst int32, bits int, o operand) {
	if o.slot == dst && o.bits <= bits {
		return
	}
	cc.emit(instr{op: opMovW, dst: dst, a: o.slot, bits: int32(bits), imm: maskOf(bits)})
}

// stable copies an operand that a later impure sibling could overwrite
// before it is consumed (the reference read it first).
func (cc *compiler) stable(o operand) operand {
	if o.owned {
		return o
	}
	t := cc.newSlot()
	cc.storeAs(t, o.bits, o)
	o.slot, o.owned = t, true
	return o
}

// Controls, actions, register actions -----------------------------------

// scanControl creates the cctl and notes whether any statement of
// the control is an exit.
func (cc *compiler) scanControl(c *p4.Control) *cctl {
	scan := func(body []p4.Stmt) {
		p4.Walk(body, func(st p4.Stmt) {
			if _, ok := st.(*p4.Exit); ok {
				cc.hasExit = true
			}
		})
	}
	for _, a := range c.Actions {
		scan(a.Body)
	}
	for _, ra := range c.RegActs {
		scan(ra.Body)
	}
	scan(c.Apply)
	return &cctl{c: c, actions: map[string]*caction{}, tables: map[string]*ctable{}}
}

// bindScope opens the frame of an action or register action over the
// given names and declared widths.
func (cc *compiler) bindScope(names []string, bits []int) *cscope {
	child := &cscope{names: names, vars: make([]cvar, len(names))}
	for i := range names {
		child.vars[i] = cvar{slot: cc.newSlot(), bits: bits[i]}
	}
	return child
}

// action compiles one apply-level action instance into its own block.
func (cc *compiler) action(c *p4.Control, a *p4.ActionDecl) (*caction, error) {
	inst := &caction{name: a.Name}
	child := cc.paramScope(a)
	for i, prm := range a.Params {
		inst.params = append(inst.params, child.vars[i].slot)
		inst.bits = append(inst.bits, prm.Bits)
	}
	inst.body.start = cc.here()
	err := cc.block(c, child, a.Body)
	inst.body.end = cc.here()
	return inst, err
}

func (cc *compiler) paramScope(a *p4.ActionDecl) *cscope {
	names := make([]string, len(a.Params))
	bits := make([]int, len(a.Params))
	for i, prm := range a.Params {
		names[i], bits[i] = prm.Name, prm.Bits
	}
	return cc.bindScope(names, bits)
}

// inlineAction compiles a direct action call in place: each argument
// is evaluated straight into its parameter slot (no other argument can
// see that slot, so the reference order of effects is kept), then the
// body follows in the caller's instruction stream, over its own frame.
func (cc *compiler) inlineAction(c *p4.Control, sc *cscope, a *p4.ActionDecl, args []p4.Expr) error {
	child := cc.paramScope(a)
	// Parameters beyond the arguments given read zero; arguments
	// beyond the parameters are still evaluated for their effects.
	for i, arg := range args {
		o, err := cc.expr(c, sc, arg, -1)
		if err != nil {
			return err
		}
		if i < len(a.Params) {
			cc.storeAs(child.vars[i].slot, a.Params[i].Bits, o)
		}
	}
	for i := len(args); i < len(a.Params); i++ {
		cc.storeAs(child.vars[i].slot, a.Params[i].Bits, cc.konst(0, 64))
	}
	return cc.block(c, child, a.Body)
}

// regactNames are the names a register-action body binds: the memory
// cell and the output.
var regactNames = []string{"m", "o"}

// regact inlines a register-action invocation at one call site: index
// -> bounds check -> cell into m -> body over the m/o slots -> m back
// to the cell, all in the caller's instruction stream. The body sees
// m, o and the globals; the index is the caller's. It returns the operand
// holding o; inExpr selects the reference's expression position, where
// an error inside the body (a table's) is folded to zero and the
// write-back skipped.
func (cc *compiler) regact(c *p4.Control, sc *cscope, ra *p4.RegisterAction, idxArgs []p4.Expr, inExpr bool) (operand, error) {
	rf, reg := cc.s.regs[ra.Register], c.RegisterByName(ra.Register)
	idx := int32(-1)
	if len(idxArgs) > 0 {
		o, err := cc.expr(c, sc, idxArgs[0], -1)
		if err != nil {
			return operand{}, err
		}
		idx = o.slot
	}
	child := cc.bindScope(regactNames, []int{reg.Bits, reg.Bits})
	mSlot, oSlot := child.vars[0].slot, child.vars[1].slot
	site := uint64(len(cc.p.regSites))
	cc.p.regSites = append(cc.p.regSites, regSite{
		rf: rf, mask: maskOf(reg.Bits), m: mSlot, o: oSlot, idxSlot: cc.newSlot(),
	})
	cc.emit(instr{op: opRegLoad, a: idx, imm: site})

	outer := cc.catch
	var caught []int
	if inExpr {
		cc.catch = &caught
	}
	err := cc.block(c, child, ra.Body)
	cc.catch = outer
	if err != nil {
		return operand{}, err
	}
	cc.emit(instr{op: opRegStore, imm: site})

	res := operand{slot: oSlot, bits: reg.Bits, owned: true}
	if len(caught) > 0 {
		// The body can fail: the result is o or the folded zero.
		res.slot = cc.newSlot()
		cc.emit(instr{op: opMov, dst: res.slot, a: oSlot})
		done := cc.emit(instr{op: opJmp})
		cc.land(caught...)
		cc.emit(instr{op: opMov, dst: res.slot, a: cc.konst(0, reg.Bits).slot})
		cc.land(done)
	}
	return res, nil
}

// apply emits a table application; hit (when >= 0) receives the hit
// bit. Its error goes to the enclosing handler, if any.
func (cc *compiler) apply(tb *ctable, hit int32) int {
	pc := cc.emit(instr{op: opApply, imm: uint64(tb.gslot), c: hit, dst: -1})
	if cc.catch != nil {
		*cc.catch = append(*cc.catch, pc)
	}
	return pc
}

// parser compiles the parse graph to indexed states. p4.Validate
// refused a target that names no state; an empty one is an
// unconditional accept.
func (cc *compiler) parser(ps *p4.Parser) error {
	idxOf := map[string]int{"": stateAccept, "accept": stateAccept, "reject": stateReject}
	for i, st := range ps.States {
		idxOf[st.Name] = i
	}
	for _, st := range ps.States {
		cs := cstate{next: idxOf[st.Next]}
		for _, hn := range st.Extracts {
			cs.hdrs = append(cs.hdrs, int32(cc.hdrIdx[hn]))
		}
		if st.Select != nil {
			cs.key.start = cc.here()
			key, err := cc.expr(cc.s.Prog.Ingress, nil, st.Select.Key, -1)
			if err != nil {
				return err
			}
			cs.key.end, cs.keySlot, cs.next = cc.here(), key.slot, idxOf[st.Select.Default]
			for _, c := range st.Select.Cases {
				cs.cases = append(cs.cases, ccase{value: c.Value, mask: c.Mask, next: idxOf[c.State]})
			}
		}
		cc.p.states = append(cc.p.states, cs)
	}
	cc.p.start = idxOf["start"]
	return nil
}

// Statements -----------------------------------------------------------

// block emits a statement list. The end of the block is where the
// reference loop returns to: an exit test jumps there.
func (cc *compiler) block(c *p4.Control, sc *cscope, body []p4.Stmt) error {
	var exits []int
	for _, st := range body {
		if _, ok := st.(*p4.Comment); ok {
			continue
		}
		if cc.hasExit {
			exits = append(exits, cc.emit(instr{op: opExitChk}))
		}
		if err := cc.stmt(c, sc, st); err != nil {
			return err
		}
	}
	cc.land(exits...)
	return nil
}

func (cc *compiler) stmt(c *p4.Control, sc *cscope, st p4.Stmt) error {
	switch x := st.(type) {
	case *p4.Assign:
		// The right-hand side computes straight into the destination
		// when it has the destination's width.
		dst, hint := cc.place(sc, cc.ref(x.LHS)), int32(-1)
		if cc.w.Of(x.RHS) == dst.bits {
			hint = dst.slot
		}
		o, err := cc.expr(c, sc, x.RHS, hint)
		if err != nil {
			return err
		}
		cc.storeAs(dst.slot, dst.bits, o)
		return nil
	case *p4.If:
		skip, err := cc.jumpIf(c, sc, x.Cond, false)
		if err != nil {
			return err
		}
		if err := cc.block(c, sc, x.Then); err != nil {
			return err
		}
		if len(x.Else) == 0 {
			cc.land(skip...)
			return nil
		}
		done := cc.emit(instr{op: opJmp})
		cc.land(skip...)
		err = cc.block(c, sc, x.Else)
		cc.land(done)
		return err
	case *p4.ApplyTable:
		hit := int32(-1)
		if x.HitVar != "" {
			hit = cc.place(sc, x.HitVar).slot
		}
		cc.apply(cc.ctlOf(c).tables[x.Table], hit)
		return nil
	case *p4.CallStmt:
		return cc.callStmt(c, sc, x)
	case *p4.SetValid:
		op := opSetInvalid
		if x.Valid {
			op = opSetValid
		}
		cc.emit(instr{op: op, imm: uint64(cc.hdrIdx[x.Header])})
		return nil
	case *p4.Exit:
		cc.emit(instr{op: opExit})
		return nil
	}
	return fmt.Errorf("compile: unsupported statement %T", st)
}

func (cc *compiler) ctlOf(c *p4.Control) *cctl {
	if cc.p.egress != nil && cc.p.egress.c == c {
		return cc.p.egress
	}
	return cc.p.ingress
}

func (cc *compiler) callStmt(c *p4.Control, sc *cscope, x *p4.CallStmt) error {
	if x.Recv == "" {
		return cc.inlineAction(c, sc, c.ActionByName(x.Method), x.Args)
	}
	// Register primitives (v1model style) take precedence over
	// register actions, mirroring the reference dispatch order.
	if rf, ok := cc.s.regs[x.Recv]; ok {
		switch x.Method {
		case "read":
			idx, err := cc.expr(c, sc, x.Args[1], -1)
			if err != nil {
				return err
			}
			// The cell is read and assigned to dst: one masked store.
			d := cc.place(sc, cc.ref(x.Args[0].(*p4.FieldRef)))
			cc.p.regSites = append(cc.p.regSites, regSite{rf: rf, mask: maskOf(d.bits)})
			cc.emit(instr{op: opRegRead, dst: d.slot, a: idx.slot, imm: uint64(len(cc.p.regSites) - 1)})
			return nil
		case "write":
			idx, v, err := cc.pair(c, sc, x.Args[0], x.Args[1])
			if err != nil {
				return err
			}
			cc.p.regSites = append(cc.p.regSites, regSite{rf: rf})
			cc.emit(instr{op: opRegWrite, a: idx.slot, b: v.slot, imm: uint64(len(cc.p.regSites) - 1)})
			return nil
		}
	}
	if ra := c.RegActByName(x.Recv); ra != nil && x.Method == "execute" {
		_, err := cc.regact(c, sc, ra, x.Args, false)
		return err
	}
	return fmt.Errorf("compile: unsupported call %s.%s", x.Recv, x.Method)
}

// Conditions -----------------------------------------------------------

// jumpIf emits code that jumps when the truth of e equals want and
// falls through otherwise; it returns the jumps for the caller to
// land. Conditions never materialize a value: comparisons become one
// compare-and-branch, && and || over a pure right operand become
// branch chains (the reference evaluates both sides, which only an
// impure operand can tell apart).
func (cc *compiler) jumpIf(c *p4.Control, sc *cscope, e p4.Expr, want bool) ([]int, error) {
	switch x := e.(type) {
	case *p4.Un:
		if x.Op == "!" {
			return cc.jumpIf(c, sc, x.X, !want)
		}
	case *p4.CallExpr:
		if x.Method == "isValid" {
			op := opJinvalid
			if want {
				op = opJvalid
			}
			return []int{cc.emit(instr{op: op, imm: uint64(cc.hdrIdx[strings.TrimPrefix(x.Recv, "hdr.")])})}, nil
		}
	case *p4.Bin:
		if (x.Op == "&&" || x.Op == "||") && pure(x.Y) {
			// a && b jumps-when-false on either; jumps-when-true needs a
			// to skip ahead when false. || is the dual.
			if (x.Op == "&&") != want {
				ja, err := cc.jumpIf(c, sc, x.X, want)
				if err != nil {
					return nil, err
				}
				jb, err := cc.jumpIf(c, sc, x.Y, want)
				return append(ja, jb...), err
			}
			skip, err := cc.jumpIf(c, sc, x.X, !want)
			if err != nil {
				return nil, err
			}
			jb, err := cc.jumpIf(c, sc, x.Y, want)
			cc.land(skip...)
			return jb, err
		}
		if r, ok := rels[x.Op]; ok {
			a, b, err := cc.pair(c, sc, x.X, x.Y)
			if err != nil {
				return nil, err
			}
			if !want {
				r = r.not()
			}
			return []int{cc.emit(cc.relInstr(r.jump(), r, a, b))}, nil
		}
	}
	o, err := cc.expr(c, sc, e, -1)
	if err != nil {
		return nil, err
	}
	op := opJz
	if want {
		op = opJnz
	}
	return []int{cc.emit(instr{op: op, a: o.slot})}, nil
}

// relInstr builds a comparison instruction (value or branch form); the
// signed forms carry both operand widths.
func (cc *compiler) relInstr(op opcode, r rel, a, b operand) instr {
	if r.swap {
		a, b = b, a
	}
	in := instr{op: op, a: a.slot, b: b.slot}
	if r.signed() {
		in.bits, in.imm = int32(a.bits), uint64(b.bits)
	}
	return in
}

// Expressions ----------------------------------------------------------

// pair evaluates two operands in order, protecting the first from the
// effects of the second.
func (cc *compiler) pair(c *p4.Control, sc *cscope, x, y p4.Expr) (a, b operand, err error) {
	if a, err = cc.expr(c, sc, x, -1); err != nil {
		return
	}
	if !pure(y) {
		a = cc.stable(a)
	}
	b, err = cc.expr(c, sc, y, -1)
	return
}

// operands evaluates expressions in order, protecting each from the
// effects of the later ones.
func (cc *compiler) operands(c *p4.Control, sc *cscope, es []p4.Expr) ([]operand, error) {
	out := make([]operand, len(es))
	for i, e := range es {
		o, err := cc.expr(c, sc, e, -1)
		if err != nil {
			return nil, err
		}
		for _, later := range es[i+1:] {
			if !pure(later) {
				o = cc.stable(o)
				break
			}
		}
		out[i] = o
	}
	return out, nil
}

// expr emits the code of an expression and returns where its value
// is; its width is the one p4.Validate recorded. hint >= 0 names a
// slot the caller wants the value in, and guarantees that writing the
// value there is right; operators then compute straight into it.
// Expression-level errors were already folded to zero by the
// reference semantics, so expressions have no error path at run time.
func (cc *compiler) expr(c *p4.Control, sc *cscope, e p4.Expr, hint int32) (operand, error) {
	bits := cc.w.Of(e)
	switch x := e.(type) {
	case *p4.IntLit:
		return cc.konst(x.Val, bits), nil
	case *p4.FieldRef:
		v := cc.place(sc, cc.ref(x))
		return operand{slot: v.slot, bits: v.bits}, nil
	case *p4.Bin:
		a, b, err := cc.pair(c, sc, x.X, x.Y)
		if err != nil {
			return operand{}, err
		}
		in := instr{op: binOpcodes[x.Op], bits: int32(bits), imm: maskOf(bits), a: a.slot, b: b.slot}
		if r, ok := rels[x.Op]; ok {
			in = cc.relInstr(r.op, r, a, b)
		} else if in.op == opSdiv || in.op == opSmod {
			// Like the signed comparisons, they carry both operand widths.
			in.bits, in.imm = int32(a.bits), uint64(b.bits)
		}
		var owned bool
		in.dst, owned = cc.dest(hint)
		cc.emit(in)
		return operand{slot: in.dst, bits: bits, owned: owned}, nil
	case *p4.Un:
		a, err := cc.expr(c, sc, x.X, -1)
		if err != nil || x.Op == "+" {
			return a, err
		}
		dst, owned := cc.dest(hint)
		switch x.Op {
		case "!":
			cc.emit(instr{op: opLnot, dst: dst, a: a.slot})
		case "~":
			cc.emit(instr{op: opNot, dst: dst, a: a.slot, bits: int32(bits), imm: maskOf(bits)})
		default:
			cc.emit(instr{op: opNeg, dst: dst, a: a.slot, bits: int32(bits), imm: maskOf(bits)})
		}
		return operand{slot: dst, bits: bits, owned: owned}, nil
	case *p4.Cast:
		a, err := cc.expr(c, sc, x.X, -1)
		if err != nil {
			return operand{}, err
		}
		res := operand{bits: bits}
		switch {
		case x.Signed && a.bits < bits:
			res.slot, res.owned = cc.dest(hint)
			cc.emit(instr{op: opSext, dst: res.slot, a: a.slot, b: int32(a.bits), bits: int32(bits), imm: maskOf(bits)})
		case a.bits <= bits:
			// Widening an already-masked value changes nothing but the
			// width: cast chains collapse onto the source slot.
			res.slot, res.owned = a.slot, a.owned
		default:
			res.slot, res.owned = cc.dest(hint)
			cc.storeAs(res.slot, bits, a)
		}
		return res, nil
	case *p4.TernaryExpr:
		dst, owned := cc.dest(hint)
		skip, err := cc.jumpIf(c, sc, x.Cond, false)
		if err != nil {
			return operand{}, err
		}
		a, err := cc.expr(c, sc, x.A, dst)
		if err != nil {
			return operand{}, err
		}
		cc.storeAs(dst, bits, a)
		done := cc.emit(instr{op: opJmp})
		cc.land(skip...)
		b, err := cc.expr(c, sc, x.B, dst)
		if err != nil {
			return operand{}, err
		}
		cc.storeAs(dst, bits, b)
		cc.land(done)
		return operand{slot: dst, bits: bits, owned: owned}, nil
	case *p4.CallExpr:
		return cc.callExpr(c, sc, x, bits, hint)
	}
	return operand{}, fmt.Errorf("compile: unsupported expression %T", e)
}

func (cc *compiler) callExpr(c *p4.Control, sc *cscope, x *p4.CallExpr, bits int, hint int32) (operand, error) {
	// Register actions and apply_hit resolve against the ingress
	// control in expression position, mirroring the reference evalCall.
	ing := cc.s.Prog.Ingress
	if ra := ing.RegActByName(x.Recv); ra != nil && x.Method == "execute" {
		return cc.regact(ing, sc, ra, x.Args, true)
	}
	if x.Method == "apply_hit" && ing.TableByName(x.Recv) != nil {
		return cc.applyHit(cc.p.ingress.tables[x.Recv])
	}
	dst, owned := cc.dest(hint)
	res := operand{slot: dst, bits: bits, owned: owned}
	if x.Method == "isValid" {
		cc.emit(instr{op: opValid, dst: dst, imm: uint64(cc.hdrIdx[strings.TrimPrefix(x.Recv, "hdr.")])})
		return res, nil
	}
	if h := cc.hashDecl(x.Recv); h != nil && x.Method == "get" {
		if h.Algo == "random" {
			cc.emit(instr{op: opRand, dst: dst, bits: int32(bits), imm: maskOf(bits)})
			return res, nil
		}
		// Every argument is evaluated before the hash runs (an argument
		// may itself hash).
		args, err := cc.operands(c, sc, x.Args)
		if err != nil {
			return operand{}, err
		}
		site := hashSite{fn: hashFn(h.Algo)}
		for _, o := range args {
			site.args = append(site.args, hashArg{slot: o.slot, bits: int32(o.bits)})
		}
		cc.p.hashSites = append(cc.p.hashSites, site)
		cc.emit(instr{op: opHash, dst: dst, bits: int32(bits), imm: maskOf(bits), a: int32(len(cc.p.hashSites) - 1)})
		return res, nil
	}
	return operand{}, fmt.Errorf("compile: unsupported call %s.%s", x.Recv, x.Method)
}

// applyHit applies a table in expression position: the hit bit, or
// zero when the application fails.
func (cc *compiler) applyHit(tb *ctable) (operand, error) {
	res := operand{slot: cc.newSlot(), bits: 1, owned: true}
	outer := cc.catch
	cc.catch = nil
	pc := cc.apply(tb, res.slot)
	cc.catch = outer
	done := cc.emit(instr{op: opJmp})
	cc.land(pc)
	cc.emit(instr{op: opMov, dst: res.slot, a: cc.konst(0, 1).slot})
	cc.land(done)
	return res, nil
}

// hashDecl finds a hash extern by name, ingress declarations first.
func (cc *compiler) hashDecl(name string) *p4.HashDecl {
	for _, c := range cc.s.Prog.Controls() {
		for _, h := range c.Hashes {
			if h.Name == name {
				return h
			}
		}
	}
	return nil
}
