package bmv2

// compile.go implements the prepare half of the interpreter's
// prepare/execute split. A one-time compile step resolves every
// p4.FieldRef path to an integer slot in a flat []val frame, every
// action/table/register name to a direct pointer, and every statement
// to a few flat instructions (instr.go) whose operands are slots and
// whose result widths are constants, so the per-packet execute step
// touches no maps, resolves no names and derives no masks. The
// approach follows the NetKAT compiler lineage: stop re-interpreting
// the program per packet and run a pre-compiled form instead.
//
// Compilation is conservative: any construct whose compiled semantics
// could diverge from the reference tree-walker (reference.go) aborts
// with an error, which the Switch then returns from every Process
// call — a refused program does not run.

import (
	"fmt"
	"slices"
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
		m.frame[slot] = val{v, a.bits[i]}
	}
	return m.exec(a.body.start, a.body.end)
}

// cctl is a compiled control block.
type cctl struct {
	c       *p4.Control
	actions map[string]*caction // apply-level instances (table entries resolve here)
	tables  map[string]*ctable
	body    span
	// refNames holds every field path referenced anywhere in the
	// control's action bodies, register-action bodies, or table keys.
	// Applying a table under a scope that binds one of these names
	// would need dynamic scoping, which slot indexing cannot
	// reproduce, so such programs are rejected (see applyGuard).
	refNames map[string]bool
}

// cprog is the compiled program.
type cprog struct {
	sw        *Switch
	initFrame []val
	// nGlobal bounds the slots a packet may read before writing them
	// (header fields, metadata, locals, undeclared names): reset copies
	// only those. Constants, parameters and temporaries follow.
	nGlobal int
	headers []chdr
	states  []cstate
	start   int

	code      []instr
	fn2       []func(a, b val) val
	fn1       []func(v val) val
	regSites  []regSite
	vregSites []vregSite
	maxLanes  int // the widest fused run: the length of machine.cells
	hashSites []hashSite
	errs      []error

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
	inPortSlot int // meta.ingress_port, written per packet before parse
	inPortBits int
	pool       sync.Pool
}

// compiler carries compile-time state.
type compiler struct {
	p      *cprog
	s      *Switch
	slotOf map[string]int // global name -> frame slot
	hdrIdx map[string]int // header name -> index in cprog.headers
	depth  int            // action-nesting guard (P4 forbids recursion)
	consts map[val]int32
	refs   map[*p4.FieldRef]fref // field references resolved once per AST node
	// hasExit: the program contains an exit statement, so every
	// statement is preceded by the reference loop's exited test.
	hasExit bool
	// catch collects the instructions that must transfer to the
	// innermost enclosing expression-level error handler; nil means an
	// error aborts the packet.
	catch *[]int
}

// cvar is a name bound by a compile-time scope.
type cvar struct {
	slot   int32
	bits   int
	static bool // every store to the name keeps the declared width
}

// cscope is a compile-time frame: action params or register-action
// m/o, chained exactly like the reference interpreter's frame stack.
// A frame binds a handful of names, in declaration order; a repeated
// name resolves to its last binding, like the reference's map.
type cscope struct {
	parent *cscope
	names  []string
	vars   []cvar
}

func (sc *cscope) lookup(name string) (cvar, bool) {
	for s := sc; s != nil; s = s.parent {
		if v, ok := s.lookupInner(name); ok {
			return v, true
		}
	}
	return cvar{}, false
}

// resolve finds a field reference the way the reference eval does:
// innermost frame outwards, then the global env.
func (cc *compiler) resolve(sc *cscope, fr *p4.FieldRef) cvar {
	r := cc.ref(fr)
	if v, ok := sc.lookup(r.name); ok {
		return v
	}
	return r.cvar
}

func (sc *cscope) lookupInner(name string) (cvar, bool) {
	if i := sc.index(name); i >= 0 {
		return sc.vars[i], true
	}
	return cvar{}, false
}

func (sc *cscope) index(name string) int {
	if sc != nil {
		for i := len(sc.names) - 1; i >= 0; i-- {
			if sc.names[i] == name {
				return i
			}
		}
	}
	return -1
}

// operand locates the value of a compiled expression: the slot that
// holds it once the code emitted so far has run.
type operand struct {
	slot int32
	// static: the width is the compile-time constant bits (1..64);
	// otherwise the slot's run-time val.bits is the width.
	bits   int
	static bool
	// exact: the slot's run-time val.bits equals the operand's width.
	// False only for a widening unsigned cast collapsed onto its source
	// slot, which the un-specialized opcodes must materialize first.
	exact bool
	// owned: a temporary or constant that no program statement writes,
	// so it may be read after later operands have run.
	owned bool
}

// staticWidth reports whether a width is one the specialized opcodes
// handle; anything else (undeclared 0, wider than 64) stays dynamic.
func staticWidth(bits int) bool { return bits >= 1 && bits <= 64 }

// compileProgram builds the slot-indexed form of s.Prog. A nil error
// guarantees the compiled engine reproduces the reference interpreter
// exactly; any doubt returns an error and the Switch runs nothing.
func compileProgram(s *Switch) (*cprog, error) {
	prog := s.Prog
	if prog.Ingress == nil || prog.Parser == nil {
		return nil, fmt.Errorf("compile: program lacks ingress or parser")
	}
	for _, c := range prog.Controls() {
		for _, h := range c.Hashes {
			if h.Algo != "random" && hashFn(h.Algo) == nil {
				return nil, fmt.Errorf("compile: hash %q uses unknown algorithm %q", h.Name, h.Algo)
			}
		}
	}
	p := &cprog{
		sw:           s,
		initFrame:    make([]val, 0, 3*len(s.fields)+16),
		code:         make([]instr, 0, 6*len(s.fields)+16),
		tablesByName: map[string][]*ctable{},
	}
	cc := &compiler{
		p: p, s: s,
		slotOf: make(map[string]int, len(s.fields)+8),
		hdrIdx: map[string]int{},
		consts: map[val]int32{},
		refs:   make(map[*p4.FieldRef]fref, 2*len(s.fields)),
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
		if _, dup := cc.hdrIdx[h.Name]; dup {
			return nil, fmt.Errorf("compile: duplicate header %q", h.Name)
		}
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
	p.inPortSlot, p.inPortBits = int(inPort.slot), inPort.bits

	// Controls: name scan first (every global slot allocated and every
	// exit seen before the first instruction is emitted), then tables
	// (they exist before bodies reference them, refNames fully
	// populated before any guard runs), then apply-level action
	// instances (table entries resolve into these), then bodies.
	p.ingress = cc.scanControl(prog.Ingress)
	if prog.Egress != nil {
		p.egress = cc.scanControl(prog.Egress)
	}
	for _, st := range prog.Parser.States {
		if st.Select != nil {
			p4.ExprRefs(st.Select.Key, func(fr *p4.FieldRef) { cc.ref(fr) })
		}
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
			frame:   append([]val(nil), p.initFrame...),
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
		for _, k := range tb.keys {
			mark(read, k.slot)
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

// fref is what a field reference resolves to outside every scope: its
// dotted path and the global of that name. Every pass over the program
// asks, so the path is joined and looked up once per AST node.
type fref struct {
	name string
	cvar
}

func (cc *compiler) ref(fr *p4.FieldRef) fref {
	r, ok := cc.refs[fr]
	if !ok {
		r.name = fr.String()
		r.cvar = cc.global(r.name)
		cc.refs[fr] = r
	}
	return r
}

// global returns (allocating its slot on first use) a global name:
// header field, metadata, control local, or a dynamically-typed env
// name the reference interpreter would create on first write. bits is
// the declared width, 0 for an undeclared name.
func (cc *compiler) global(name string) cvar {
	db := cc.s.fields[name]
	i, ok := cc.slotOf[name]
	if !ok {
		i = len(cc.p.initFrame)
		cc.slotOf[name] = i
		cc.p.initFrame = append(cc.p.initFrame, val{0, db})
		cc.p.nGlobal = i + 1
	}
	return cvar{slot: int32(i), bits: db, static: staticWidth(db)}
}

// newSlot allocates an anonymous frame slot (action params, m/o,
// temporaries): always written before it is read.
func (cc *compiler) newSlot() int32 {
	cc.p.initFrame = append(cc.p.initFrame, val{})
	return int32(len(cc.p.initFrame) - 1)
}

// konst returns the read-only slot holding a constant.
func (cc *compiler) konst(v val) operand {
	v.v &= v.mask()
	slot, ok := cc.consts[v]
	if !ok {
		slot = cc.newSlot()
		cc.p.initFrame[slot] = v
		cc.consts[v] = slot
	}
	return operand{slot: slot, bits: v.bits, static: staticWidth(v.bits), exact: true, owned: true}
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

// storeRaw emits dst = the operand's exact val, width included: the
// reference store into an action frame or an undeclared name.
func (cc *compiler) storeRaw(dst int32, o operand) {
	switch {
	case o.slot == dst && o.exact:
	case o.static:
		cc.emit(instr{op: opMovW, dst: dst, a: o.slot, bits: int32(o.bits), imm: maskOf(o.bits)})
	default:
		cc.emit(instr{op: opMov, dst: dst, a: o.slot})
	}
}

// storeAs emits dst = val{operand & mask(bits), bits}: the reference
// store into a declared name, and the unsigned cast.
func (cc *compiler) storeAs(dst int32, bits int, o operand) {
	if o.slot == dst && o.exact && o.static && o.bits == bits {
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
	cc.storeRaw(t, o)
	o.slot, o.exact, o.owned = t, true, true
	return o
}

// asVal returns a slot whose run-time val is exactly the operand's
// value and width, for the opcodes that work on whole vals.
func (cc *compiler) asVal(o operand) int32 {
	if o.exact {
		return o.slot
	}
	t := cc.newSlot()
	cc.storeRaw(t, o)
	return t
}

// Controls, actions, register actions -----------------------------------

// scanControl creates the cctl and walks every body of the control
// once. It collects the referenced-name set of the action bodies,
// register-action bodies and table keys; allocates the global slot of
// every name mentioned anywhere, so that no global is created after
// the first temporary and the globals stay one prefix of the frame;
// and notes whether any statement is an exit.
func (cc *compiler) scanControl(c *p4.Control) *cctl {
	ctl := &cctl{c: c, actions: map[string]*caction{}, tables: map[string]*ctable{}, refNames: map[string]bool{}}
	scan := func(body []p4.Stmt, refs bool) {
		p4.WalkExprs(body, func(e p4.Expr) {
			if fr, ok := e.(*p4.FieldRef); ok {
				if name := cc.ref(fr).name; refs {
					ctl.refNames[name] = true
				}
			}
		})
		p4.Walk(body, func(st p4.Stmt) {
			switch x := st.(type) {
			case *p4.ApplyTable:
				if x.HitVar != "" {
					cc.global(x.HitVar)
					if refs {
						ctl.refNames[x.HitVar] = true
					}
				}
			case *p4.Exit:
				cc.hasExit = true
			}
		})
	}
	for _, a := range c.Actions {
		scan(a.Body, true)
	}
	for _, ra := range c.RegActs {
		scan(ra.Body, true)
	}
	for _, t := range c.Tables {
		for _, k := range t.Keys {
			p4.ExprRefs(k.Expr, func(fr *p4.FieldRef) {
				ctl.refNames[cc.ref(fr).name] = true
			})
		}
	}
	scan(c.Apply, false)
	return ctl
}

// bindScope opens the frame of an action or register action over the
// given names and declared widths. A name keeps its declared width as
// a static fact only if every store to it in the body provably writes
// that width (the reference stores the right-hand side as it is, so
// `m = m |-| 1` leaves m 64 bits wide); the check iterates because one
// name's width can depend on another's.
func (cc *compiler) bindScope(sc *cscope, body []p4.Stmt, names []string, bits []int) *cscope {
	child := &cscope{parent: sc, names: names, vars: make([]cvar, len(names))}
	for i := range names {
		child.vars[i] = cvar{slot: cc.newSlot(), bits: bits[i], static: staticWidth(bits[i])}
	}
	demote := func(name string) bool {
		i := child.index(name)
		if i < 0 || !child.vars[i].static {
			return false
		}
		child.vars[i].static = false
		return true
	}
	for changed := true; changed; {
		changed = false
		p4.Walk(body, func(st p4.Stmt) {
			switch x := st.(type) {
			case *p4.Assign:
				name := cc.ref(x.LHS).name
				if v, ok := child.lookupInner(name); ok && v.static {
					if b, ok := cc.staticBits(child, x.RHS); !ok || b != v.bits {
						changed = demote(name) || changed
					}
				}
			case *p4.ApplyTable:
				changed = demote(x.HitVar) || changed
			case *p4.CallStmt:
				if len(x.Args) > 0 && x.Method == "read" {
					if fr, ok := x.Args[0].(*p4.FieldRef); ok {
						changed = demote(cc.ref(fr).name) || changed
					}
				}
			}
		})
	}
	return child
}

// action compiles one apply-level action instance into its own block.
func (cc *compiler) action(c *p4.Control, a *p4.ActionDecl) (*caction, error) {
	inst := &caction{name: a.Name}
	child := cc.paramScope(nil, a)
	for i, prm := range a.Params {
		inst.params = append(inst.params, child.vars[i].slot)
		inst.bits = append(inst.bits, prm.Bits)
	}
	inst.body.start = cc.here()
	cc.depth++
	err := cc.block(c, child, a.Body)
	cc.depth--
	inst.body.end = cc.here()
	return inst, err
}

func (cc *compiler) paramScope(sc *cscope, a *p4.ActionDecl) *cscope {
	names := make([]string, len(a.Params))
	bits := make([]int, len(a.Params))
	for i, prm := range a.Params {
		names[i], bits[i] = prm.Name, prm.Bits
	}
	return cc.bindScope(sc, a.Body, names, bits)
}

// inlineAction compiles a direct action call in place: each argument
// is evaluated straight into its parameter slot (no other argument can
// see that slot, so the reference order of effects is kept), then the
// body follows in the caller's instruction stream.
func (cc *compiler) inlineAction(c *p4.Control, sc *cscope, a *p4.ActionDecl, args []p4.Expr) error {
	if cc.depth > 32 {
		return fmt.Errorf("compile: action nesting too deep at %q", a.Name)
	}
	child := cc.paramScope(sc, a)
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
		cc.storeAs(child.vars[i].slot, a.Params[i].Bits, cc.konst(val{0, 64}))
	}
	cc.depth++
	err := cc.block(c, child, a.Body)
	cc.depth--
	return err
}

// regactNames are the names a register-action body binds: the memory
// cell and the output.
var regactNames = []string{"m", "o"}

// regact inlines a register-action invocation at one call site: index
// -> bounds check -> cell into m -> body over the m/o slots -> m back
// to the cell, all in the caller's instruction stream. The body is
// compiled against the caller's scope chain so free names resolve
// exactly like the reference interpreter's dynamic frames. It returns
// the operand holding o; inExpr selects the reference's expression
// position, where an error inside the body is folded to val{0,32} and
// the write-back skipped.
func (cc *compiler) regact(c *p4.Control, sc *cscope, ra *p4.RegisterAction, idxArgs []p4.Expr, inExpr bool) (operand, error) {
	rf := cc.s.regs[ra.Register]
	if rf == nil {
		cc.fail(fmt.Errorf("register action %q over unknown register", ra.Name))
		return operand{}, nil
	}
	reg := c.RegisterByName(ra.Register)
	if reg == nil {
		return operand{}, fmt.Errorf("compile: register action %q register %q not declared in control %q", ra.Name, ra.Register, c.Name)
	}
	if cc.depth > 32 {
		return operand{}, fmt.Errorf("compile: register action nesting too deep at %q", ra.Name)
	}
	idx := int32(-1)
	if len(idxArgs) > 0 {
		o, err := cc.expr(c, sc, idxArgs[0], -1)
		if err != nil {
			return operand{}, err
		}
		idx = o.slot
	}
	child := cc.bindScope(sc, ra.Body, regactNames, []int{reg.Bits, reg.Bits})
	mSlot, oSlot := child.vars[0].slot, child.vars[1].slot
	site := uint64(len(cc.p.regSites))
	cc.p.regSites = append(cc.p.regSites, regSite{
		rf: rf, bits: reg.Bits, mask: maskOf(reg.Bits), m: mSlot, o: oSlot, idxSlot: cc.newSlot(),
	})
	cc.emit(instr{op: opRegLoad, a: idx, imm: site})

	outer := cc.catch
	var caught []int
	if inExpr {
		cc.catch = &caught
	}
	cc.depth++
	err := cc.block(c, child, ra.Body)
	cc.depth--
	cc.catch = outer
	if err != nil {
		return operand{}, err
	}
	cc.emit(instr{op: opRegStore, imm: site})

	res := operand{slot: oSlot, exact: true, owned: true}
	if len(caught) > 0 {
		// The body can fail: the result is o or the folded val{0,32}.
		res.slot = cc.newSlot()
		cc.emit(instr{op: opMov, dst: res.slot, a: oSlot})
		done := cc.emit(instr{op: opJmp})
		cc.land(caught...)
		cc.emit(instr{op: opMov, dst: res.slot, a: cc.konst(val{0, 32}).slot})
		cc.land(done)
	}
	return res, nil
}

// fail emits a statement-level error: abort the packet, or transfer to
// the enclosing expression's handler.
func (cc *compiler) fail(err error) {
	if cc.catch != nil {
		*cc.catch = append(*cc.catch, cc.emit(instr{op: opJmp}))
		return
	}
	cc.p.errs = append(cc.p.errs, err)
	cc.emit(instr{op: opFail, imm: uint64(len(cc.p.errs) - 1)})
}

// apply emits a table application; hit (when >= 0) receives
// val{hit, bits}. Its error goes to the enclosing handler, if any.
func (cc *compiler) apply(tb *ctable, hit int32, bits int) int {
	pc := cc.emit(instr{op: opApply, imm: uint64(tb.gslot), c: hit, bits: int32(bits), dst: -1})
	if cc.catch != nil {
		*cc.catch = append(*cc.catch, pc)
	}
	return pc
}

// parser compiles the parse graph to indexed states.
func (cc *compiler) parser(ps *p4.Parser) error {
	idxOf := map[string]int{}
	for i, st := range ps.States {
		idxOf[st.Name] = i
	}
	// resolve maps a transition target; the empty string is legal only
	// for an unconditional Next (the reference treats that as accept —
	// an empty select default, by contrast, is a runtime error there,
	// so compilation is refused in that position).
	resolve := func(name string, emptyIsAccept bool) (int, error) {
		switch name {
		case "":
			if emptyIsAccept {
				return stateAccept, nil
			}
			return 0, fmt.Errorf("compile: empty select transition")
		case "accept":
			return stateAccept, nil
		case "reject":
			return stateReject, nil
		}
		i, ok := idxOf[name]
		if !ok {
			return 0, fmt.Errorf("compile: parser transition to unknown state %q", name)
		}
		return i, nil
	}
	for _, st := range ps.States {
		var cs cstate
		for _, hn := range st.Extracts {
			hi, ok := cc.hdrIdx[hn]
			if !ok {
				return fmt.Errorf("compile: parser extracts unknown header %q", hn)
			}
			cs.hdrs = append(cs.hdrs, int32(hi))
		}
		var err error
		if st.Select != nil {
			cs.key.start = cc.here()
			key, err := cc.expr(cc.s.Prog.Ingress, nil, st.Select.Key, -1)
			if err != nil {
				return err
			}
			cs.key.end, cs.keySlot = cc.here(), key.slot
			if cs.next, err = resolve(st.Select.Default, false); err != nil {
				return err
			}
			for _, c := range st.Select.Cases {
				next, err := resolve(c.State, false)
				if err != nil {
					return err
				}
				cs.cases = append(cs.cases, ccase{value: c.Value, mask: c.Mask, next: next})
			}
		} else if cs.next, err = resolve(st.Next, true); err != nil {
			return err
		}
		cc.p.states = append(cc.p.states, cs)
	}
	start, ok := idxOf["start"]
	if !ok {
		return fmt.Errorf("compile: parser has no start state")
	}
	cc.p.start = start
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

// assign emits the reference assign of an evaluated right-hand side:
// the innermost frame if it binds the name (value stored as it is),
// else the global env with the declared width (or the value's own
// width when the name is undeclared).
func (cc *compiler) assign(sc *cscope, dst fref, o operand) {
	if v, ok := sc.lookupInner(dst.name); ok {
		cc.storeRaw(v.slot, o)
	} else if dst.bits != 0 {
		cc.storeAs(dst.slot, dst.bits, o)
	} else {
		cc.storeRaw(dst.slot, o)
	}
}

// assignHint is the slot the right-hand side of an assignment may
// compute into directly: the destination itself, unless the store
// would change the value (a declared name of another width than the
// static width w of the right-hand side).
func (cc *compiler) assignHint(sc *cscope, dst fref, w int, ok bool) int32 {
	if v, inner := sc.lookupInner(dst.name); inner {
		return v.slot
	}
	if dst.bits != 0 && !(ok && dst.bits == w) {
		return -1
	}
	return dst.slot
}

func (cc *compiler) stmt(c *p4.Control, sc *cscope, st p4.Stmt) error {
	switch x := st.(type) {
	case *p4.Assign:
		dst := cc.ref(x.LHS)
		w, ok := cc.staticBits(sc, x.RHS)
		o, err := cc.expr(c, sc, x.RHS, cc.assignHint(sc, dst, w, ok))
		if err != nil {
			return err
		}
		cc.assign(sc, dst, o)
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
		tb, err := cc.applyGuard(c, sc, x.Table)
		if err != nil {
			return err
		}
		if x.HitVar == "" {
			cc.apply(tb, -1, 0)
			return nil
		}
		// The hit flag is val{hit,1} stored by the reference assign.
		if v, ok := sc.lookupInner(x.HitVar); ok {
			cc.apply(tb, v.slot, 1)
		} else if g := cc.global(x.HitVar); g.bits != 0 {
			cc.apply(tb, g.slot, g.bits)
		} else {
			cc.apply(tb, g.slot, 1)
		}
		return nil
	case *p4.CallStmt:
		return cc.callStmt(c, sc, x)
	case *p4.SetValid:
		hi, ok := cc.hdrIdx[x.Header]
		if !ok {
			return fmt.Errorf("compile: setValid of unknown header %q", x.Header)
		}
		op := opSetInvalid
		if x.Valid {
			op = opSetValid
		}
		cc.emit(instr{op: op, imm: uint64(hi)})
		return nil
	case *p4.Exit:
		cc.emit(instr{op: opExit})
		return nil
	}
	return fmt.Errorf("compile: unsupported statement %T", st)
}

// applyGuard resolves a table application site. When the site sits
// inside an action/register-action scope, nothing referenced by the
// control's actions, register actions, or table keys may be bound in
// the enclosing scope chain: the reference interpreter would resolve
// such names through its dynamic frame stack, which apply-level slot
// resolution cannot reproduce, so we refuse to compile the program.
func (cc *compiler) applyGuard(c *p4.Control, sc *cscope, name string) (*ctable, error) {
	ctl := cc.ctlOf(c)
	tb, ok := ctl.tables[name]
	if !ok {
		return nil, fmt.Errorf("compile: unknown table %q", name)
	}
	if sc != nil {
		for ref := range ctl.refNames {
			if _, bound := sc.lookup(ref); bound {
				return nil, fmt.Errorf("compile: table %q applied under a scope binding %q (dynamic scoping)", name, ref)
			}
		}
	}
	return tb, nil
}

func (cc *compiler) ctlOf(c *p4.Control) *cctl {
	if cc.p.egress != nil && cc.p.egress.c == c {
		return cc.p.egress
	}
	return cc.p.ingress
}

func (cc *compiler) callStmt(c *p4.Control, sc *cscope, x *p4.CallStmt) error {
	if x.Recv == "" {
		a := c.ActionByName(x.Method)
		if a == nil {
			return fmt.Errorf("compile: unknown action %q", x.Method)
		}
		return cc.inlineAction(c, sc, a, x.Args)
	}
	// Register primitives (v1model style) take precedence over
	// register actions, mirroring the reference dispatch order.
	if rf, ok := cc.s.regs[x.Recv]; ok {
		switch x.Method {
		case "read":
			if len(x.Args) < 2 {
				return fmt.Errorf("compile: register read needs destination and index")
			}
			dst, ok := x.Args[0].(*p4.FieldRef)
			if !ok {
				return fmt.Errorf("compile: register read destination must be a field")
			}
			idx, err := cc.expr(c, sc, x.Args[1], -1)
			if err != nil {
				return err
			}
			// The cell is read as val{v, declared width of dst} and then
			// assigned; both steps reduce to one masked store.
			d := cc.ref(dst)
			slot := d.slot
			if v, ok := sc.lookupInner(d.name); ok {
				slot = v.slot
			}
			cc.p.regSites = append(cc.p.regSites, regSite{rf: rf, bits: d.bits, mask: maskOf(d.bits)})
			cc.emit(instr{op: opRegRead, dst: slot, a: idx.slot, imm: uint64(len(cc.p.regSites) - 1)})
			return nil
		case "write":
			if len(x.Args) < 2 {
				return fmt.Errorf("compile: register write needs index and value")
			}
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
// land. Conditions never materialize a val: comparisons of static
// operands become one compare-and-branch, && and || over a pure right
// operand become branch chains (the reference evaluates both sides,
// which only an impure operand can tell apart).
func (cc *compiler) jumpIf(c *p4.Control, sc *cscope, e p4.Expr, want bool) ([]int, error) {
	switch x := e.(type) {
	case *p4.Un:
		if x.Op == "!" {
			return cc.jumpIf(c, sc, x.X, !want)
		}
	case *p4.CallExpr:
		if x.Method == "isValid" {
			hi, ok := cc.hdrIdx[hdrName(x.Recv)]
			if !ok { // never-declared headers are never valid
				if want {
					return nil, nil
				}
				return []int{cc.emit(instr{op: opJmp})}, nil
			}
			op := opJinvalid
			if want {
				op = opJvalid
			}
			return []int{cc.emit(instr{op: op, imm: uint64(hi)})}, nil
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
			if a.static && b.static {
				if !want {
					r = r.not()
				}
				return []int{cc.emit(cc.relInstr(r.jump(), r, a, b))}, nil
			}
			o := cc.binGeneric(x.Op, a, b, -1)
			return cc.jumpOn(o, want), nil
		}
	}
	o, err := cc.expr(c, sc, e, -1)
	if err != nil {
		return nil, err
	}
	return cc.jumpOn(o, want), nil
}

// jumpOn branches on the truth of an evaluated operand.
func (cc *compiler) jumpOn(o operand, want bool) []int {
	op := opJz
	if want {
		op = opJnz
	}
	return []int{cc.emit(instr{op: op, a: o.slot})}
}

// relInstr builds a comparison instruction (value or branch form) over
// static operands; the signed forms carry both operand widths.
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

// binBits is the result-width rule of binary operators (ops.go):
// comparisons yield bit<1>, shifts keep the left width, everything
// else the wider operand.
func binBits(op string, xb int, xok bool, yb int, yok bool) (int, bool) {
	switch {
	case isCompare(op):
		return 1, true
	case op == "<<" || op == ">>" || op == "s>>":
		return xb, xok
	case xok && yok:
		return combinedBits(val{bits: xb}, val{bits: yb}), true
	}
	return 0, false
}

// unBits is the result-width rule of unary operators; unknown tokens
// pass the operand through.
func unBits(op string, xb int, xok bool) (int, bool) {
	if op == "!" {
		return 1, true
	}
	return xb, xok
}

// expr emits the code of an expression and returns where its value
// is. hint >= 0 names a slot the caller wants the value in, and
// guarantees that writing the expression's exact val there is right;
// operators then compute straight into it. Expression-level errors
// were already folded to val{0,32} by the reference semantics, so
// expressions have no error path at run time.
func (cc *compiler) expr(c *p4.Control, sc *cscope, e p4.Expr, hint int32) (operand, error) {
	switch x := e.(type) {
	case *p4.IntLit:
		b := x.Bits
		if b == 0 {
			b = 64
		}
		return cc.konst(val{x.Val, b}), nil
	case *p4.FieldRef:
		v := cc.resolve(sc, x)
		return operand{slot: v.slot, bits: v.bits, static: v.static, exact: true}, nil
	case *p4.Bin:
		a, b, err := cc.pair(c, sc, x.X, x.Y)
		if err != nil {
			return operand{}, err
		}
		if a.static && b.static {
			bits, _ := binBits(x.Op, a.bits, true, b.bits, true)
			in := instr{bits: int32(bits), imm: maskOf(bits), a: a.slot, b: b.slot}
			if op, ok := arithOps[x.Op]; ok {
				in.op = op
			} else if r, ok := rels[x.Op]; ok {
				in = cc.relInstr(r.op, r, a, b)
			} else if x.Op == "&&" {
				in.op = opLand
			} else if x.Op == "||" {
				in.op = opLor
			} else {
				return cc.binGeneric(x.Op, a, b, hint), nil
			}
			var owned bool
			in.dst, owned = cc.dest(hint)
			cc.emit(in)
			return operand{slot: in.dst, bits: bits, static: true, exact: true, owned: owned}, nil
		}
		return cc.binGeneric(x.Op, a, b, hint), nil
	case *p4.Un:
		a, err := cc.expr(c, sc, x.X, -1)
		if err != nil {
			return operand{}, err
		}
		fn, ok := unOps[x.Op]
		if !ok {
			return a, nil
		}
		bits, static := unBits(x.Op, a.bits, a.static)
		dst, owned := cc.dest(hint)
		switch {
		case a.static && x.Op == "!":
			cc.emit(instr{op: opLnot, dst: dst, a: a.slot})
		case a.static && x.Op == "~":
			cc.emit(instr{op: opNot, dst: dst, a: a.slot, bits: int32(bits), imm: maskOf(bits)})
		case a.static && x.Op == "-":
			cc.emit(instr{op: opNeg, dst: dst, a: a.slot, bits: int32(bits), imm: maskOf(bits)})
		default:
			cc.p.fn1 = append(cc.p.fn1, fn)
			cc.emit(instr{op: opGen1, dst: dst, a: cc.asVal(a), imm: uint64(len(cc.p.fn1) - 1)})
		}
		return operand{slot: dst, bits: bits, static: static, exact: true, owned: owned}, nil
	case *p4.Cast:
		a, err := cc.expr(c, sc, x.X, -1)
		if err != nil {
			return operand{}, err
		}
		static := staticWidth(x.Bits)
		res := operand{bits: x.Bits, static: static, exact: true}
		switch {
		case x.Signed && a.static && static && a.bits < x.Bits:
			res.slot, res.owned = cc.dest(hint)
			cc.emit(instr{op: opSext, dst: res.slot, a: a.slot, b: int32(a.bits), bits: int32(x.Bits), imm: maskOf(x.Bits)})
		case x.Signed && !(a.static && static):
			res.slot, res.owned = cc.dest(hint)
			cc.emit(instr{op: opCastS, dst: res.slot, a: cc.asVal(a), bits: int32(x.Bits), imm: maskOf(x.Bits)})
		case a.static && static && a.bits <= x.Bits:
			// Widening an already-masked value changes nothing but the
			// width: cast chains collapse onto the source slot.
			res.slot, res.owned, res.exact = a.slot, a.owned, a.exact && a.bits == x.Bits
		default:
			res.slot, res.owned = cc.dest(hint)
			cc.storeAs(res.slot, x.Bits, a)
		}
		return res, nil
	case *p4.TernaryExpr:
		ab, aok := cc.staticBits(sc, x.A)
		bb, bok := cc.staticBits(sc, x.B)
		dst, owned := cc.dest(hint)
		skip, err := cc.jumpIf(c, sc, x.Cond, false)
		if err != nil {
			return operand{}, err
		}
		a, err := cc.expr(c, sc, x.A, dst)
		if err != nil {
			return operand{}, err
		}
		cc.storeRaw(dst, a)
		done := cc.emit(instr{op: opJmp})
		cc.land(skip...)
		b, err := cc.expr(c, sc, x.B, dst)
		if err != nil {
			return operand{}, err
		}
		cc.storeRaw(dst, b)
		cc.land(done)
		return operand{slot: dst, bits: ab, static: aok && bok && ab == bb, exact: true, owned: owned}, nil
	case *p4.CallExpr:
		return cc.callExpr(c, sc, x, hint)
	}
	return operand{}, fmt.Errorf("compile: unsupported expression %T", e)
}

// binGeneric emits the un-specialized binary operator: the ops.go
// function over whole vals (a zero of the combined width for unknown
// tokens, like the reference evalBin).
func (cc *compiler) binGeneric(op string, a, b operand, hint int32) operand {
	fn, ok := binOps[op]
	if !ok {
		fn = func(a, b val) val { return val{0, combinedBits(a, b)} }
	}
	cc.p.fn2 = append(cc.p.fn2, fn)
	dst, owned := cc.dest(hint)
	cc.emit(instr{op: opGen2, dst: dst, a: cc.asVal(a), b: cc.asVal(b), imm: uint64(len(cc.p.fn2) - 1)})
	bits, static := binBits(op, a.bits, a.static, b.bits, b.static)
	return operand{slot: dst, bits: bits, static: static && staticWidth(bits), exact: true, owned: owned}
}

func hdrName(recv string) string {
	if len(recv) > 4 && recv[:4] == "hdr." {
		return recv[4:]
	}
	return recv
}

// folded is the operand of a call the reference evaluates to an error,
// which eval folds to val{0,32}. Its width counts as dynamic, like
// every call result but isValid and hash.get (see staticBits).
func (cc *compiler) folded() operand {
	o := cc.konst(val{0, 32})
	o.static = false
	return o
}

func (cc *compiler) callExpr(c *p4.Control, sc *cscope, x *p4.CallExpr, hint int32) (operand, error) {
	if x.Method == "isValid" {
		hi, ok := cc.hdrIdx[hdrName(x.Recv)]
		if !ok {
			// Never-declared headers are never valid.
			return cc.konst(val{0, 1}), nil
		}
		dst, owned := cc.dest(hint)
		cc.emit(instr{op: opValid, dst: dst, imm: uint64(hi)})
		return operand{slot: dst, bits: 1, static: true, exact: true, owned: owned}, nil
	}
	// Register actions and apply_hit resolve against the ingress
	// control in expression position, mirroring the reference evalCall.
	ing := cc.s.Prog.Ingress
	if ra := ing.RegActByName(x.Recv); ra != nil && x.Method == "execute" {
		if cc.s.regs[ra.Register] == nil {
			return cc.folded(), nil
		}
		return cc.regact(ing, sc, ra, x.Args, true)
	}
	if h := cc.hashDecl(x.Recv); h != nil && x.Method == "get" {
		dst, owned := cc.dest(hint)
		res := operand{slot: dst, bits: h.Bits, static: staticWidth(h.Bits), exact: true, owned: owned}
		if h.Algo == "random" {
			cc.emit(instr{op: opRand, dst: dst, bits: int32(h.Bits), imm: maskOf(h.Bits)})
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
			ha := hashArg{slot: o.slot, bits: -1}
			if o.static {
				ha.bits = int32(o.bits)
			}
			site.args = append(site.args, ha)
		}
		cc.p.hashSites = append(cc.p.hashSites, site)
		cc.emit(instr{op: opHash, dst: dst, bits: int32(h.Bits), imm: maskOf(h.Bits), a: int32(len(cc.p.hashSites) - 1)})
		return res, nil
	}
	if x.Method == "apply_hit" && ing.TableByName(x.Recv) != nil {
		tb, err := cc.applyGuard(ing, sc, x.Recv)
		if err != nil {
			return operand{}, err
		}
		// val{hit,1}, or val{0,32} when the application fails.
		dst := cc.newSlot()
		outer := cc.catch
		cc.catch = nil
		pc := cc.apply(tb, dst, 1)
		cc.catch = outer
		done := cc.emit(instr{op: opJmp})
		cc.land(pc)
		cc.emit(instr{op: opMov, dst: dst, a: cc.konst(val{0, 32}).slot})
		cc.land(done)
		return operand{slot: dst, exact: true, owned: true}, nil
	}
	// Unknown table, unknown extern: the reference evalCall errors and
	// eval folds it to val{0,32}.
	return cc.folded(), nil
}

// hashDecl finds a hash extern by name, ingress declarations first.
func (cc *compiler) hashDecl(name string) *p4.HashDecl {
	for _, h := range cc.s.Prog.Ingress.Hashes {
		if h.Name == name {
			return h
		}
	}
	if cc.s.Prog.Egress != nil {
		for _, h := range cc.s.Prog.Egress.Hashes {
			if h.Name == name {
				return h
			}
		}
	}
	return nil
}

// Static widths ---------------------------------------------------------

// staticBits computes the statically-known width of an expression in a
// scope, mirroring the runtime width rules of ops.go and the
// evaluators: comparisons/logicals yield bit<1>, shifts keep the left
// operand's width, other binary operators widen to the larger operand
// (0 promoting to 64), casts fix their width, names take their
// declared width. ok=false means the width can depend on runtime state
// (undeclared names pick up the width of whatever was last assigned,
// calls other than isValid and hash.get have an error path of width
// 32) or lies outside 1..64; expr marks exactly those operands
// dynamic, and the table matcher builds no decision diagram over them.
func (cc *compiler) staticBits(sc *cscope, e p4.Expr) (int, bool) {
	switch x := e.(type) {
	case *p4.IntLit:
		if x.Bits == 0 {
			return 64, true
		}
		return x.Bits, staticWidth(x.Bits)
	case *p4.FieldRef:
		v := cc.resolve(sc, x)
		return v.bits, v.static
	case *p4.Bin:
		xb, xok := cc.staticBits(sc, x.X)
		yb, yok := cc.staticBits(sc, x.Y)
		b, ok := binBits(x.Op, xb, xok, yb, yok)
		return b, ok && staticWidth(b)
	case *p4.Un:
		xb, xok := cc.staticBits(sc, x.X)
		if _, known := unOps[x.Op]; !known {
			return xb, xok
		}
		return unBits(x.Op, xb, xok)
	case *p4.Cast:
		return x.Bits, staticWidth(x.Bits)
	case *p4.TernaryExpr:
		ab, aok := cc.staticBits(sc, x.A)
		bb, bok := cc.staticBits(sc, x.B)
		return ab, aok && bok && ab == bb
	case *p4.CallExpr:
		if x.Method == "isValid" {
			return 1, true
		}
		ing := cc.s.Prog.Ingress
		if ra := ing.RegActByName(x.Recv); ra != nil && x.Method == "execute" {
			return 0, false
		}
		if h := cc.hashDecl(x.Recv); h != nil && x.Method == "get" {
			return h.Bits, staticWidth(h.Bits)
		}
	}
	return 0, false
}
