package bmv2

// instr.go is the instruction form of the compiled engine. compile.go
// lowers every statement of a P4 control to a few flat instructions
// whose operands are frame-slot indices; machine.exec runs them in one
// opcode switch with jumps for if/else, so a packet costs one dispatch
// per operation instead of one indirect call per AST node.
//
// The width rule — masked at store, trusted at load: every val in the
// frame has v already reduced to its own bits, so a load never
// re-wraps. Where the width of an expression is a compile-time
// constant (declared fields, literals, casts, action parameters,
// register-action m/o) the specialized opcodes carry the result width
// and mask as immediates. Where it is not (names the program never
// declared, results of calls that may fold an error to val{0,32}) the
// generic opcodes evaluate through the val/binOps semantics of ops.go,
// which the reference interpreter uses too.

import "netcl/internal/p4"

type opcode uint8

const (
	// Moves and casts.
	opMov   opcode = iota // dst = a, width included
	opMovW                // dst = val{a & imm, bits}: store to a declared width, unsigned cast
	opSext                // dst = val{sext(a from b bits) & imm, bits}: signed cast, static source
	opCastS               // signed cast whose source width is read at run time

	// Width-static arithmetic: dst = val{(a op b) & imm, bits}.
	opAdd
	opSub
	opAnd
	opOr
	opXor
	opShl
	opShr
	opSatAdd
	opSatSub
	opNot // ~a
	opNeg // -a

	// Comparisons and logic: dst = bit<1>. The signed forms carry the
	// width of a in bits and the width of b in imm.
	opEq
	opNe
	opLt
	opLe
	opSlt
	opSle
	opLand
	opLor
	opLnot
	opValid // dst = header imm is valid

	// Un-specialized operators: ops.go functions over whole vals.
	opGen2 // dst = fn2[imm](a, b)
	opGen1 // dst = fn1[imm](a)

	// Control flow; the target pc is dst.
	opJmp
	opJeq
	opJne
	opJlt
	opJle
	opJslt
	opJsle
	opJz
	opJnz
	opJvalid   // header imm valid
	opJinvalid // header imm not valid
	opExitChk  // the reference loop's "exited" test before a statement
	opExit

	opSetValid   // header imm
	opSetInvalid // header imm

	// Externs; imm indexes the site table.
	opRegLoad  // register action: index a -> bounds check -> m, o slots
	opRegStore // register action: m slot -> cell
	opRegRead  // register.read(dst, a)
	opRegWrite // register.write(a, b)
	opHash     // site a; result masked by imm
	opRand

	opApply // table imm; hit -> slot c when c >= 0; error -> pc dst when dst >= 0
	opFail  // abort the packet with errs[imm]
)

// instr is one instruction. dst, a, b are frame slots unless the
// opcode says otherwise; c is the hit slot of opApply.
type instr struct {
	op        opcode
	bits      int32
	dst, a, b int32
	c         int32
	imm       uint64
}

// access reports the frame slots an instruction reads (a, b) and
// writes (w); -1 stands for none. The slots of a register site are
// its own anonymous ones and are not reported.
func (in *instr) access() (a, b, w int32) {
	switch in.op {
	case opJmp, opJvalid, opJinvalid, opExitChk, opExit, opSetValid, opSetInvalid, opRegStore, opFail:
		return -1, -1, -1
	case opJeq, opJne, opJlt, opJle, opJslt, opJsle, opRegWrite:
		return in.a, in.b, -1
	case opJz, opJnz, opRegLoad:
		return in.a, -1, -1
	case opApply:
		return -1, -1, in.c
	case opHash, opRand, opValid:
		return -1, -1, in.dst
	case opMov, opMovW, opSext, opCastS, opNot, opNeg, opLnot, opGen1, opRegRead:
		return in.a, -1, in.dst
	}
	return in.a, in.b, in.dst
}

// span is a half-open range of cprog.code.
type span struct{ start, end int32 }

// regSite is one register access site: a register-action call (m, o
// and the saved index live in the frame) or a register.read/write.
type regSite struct {
	rf      *regfile
	bits    int
	mask    uint64
	m, o    int32
	idxSlot int32 // holds the cell index between load and store; ^0 when out of range
}

// hashArg is one hash input: its slot and, when static, its width.
type hashArg struct {
	slot int32
	bits int32 // -1: read the slot's run-time width
}

type hashSite struct {
	fn   func([]byte) uint64
	args []hashArg
}

func b2u(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

// sext sign-extends the low bits (1..64) of v.
func sext(v uint64, bits uint) int64 {
	s := 64 - bits
	return int64(v<<s) >> s
}

// exec runs code[pc:end). Errors abort the packet, like the reference
// statement loop; errors the reference folds inside an expression were
// routed to a handler pc at compile time and never surface here.
func (m *machine) exec(pc, end int32) error {
	p := m.prog
	code := p.code
	f := m.frame
	for pc < end {
		in := &code[pc]
		pc++
		switch in.op {
		case opMov:
			f[in.dst] = f[in.a]
		case opMovW:
			f[in.dst] = val{f[in.a].v & in.imm, int(in.bits)}
		case opSext:
			f[in.dst] = val{uint64(sext(f[in.a].v, uint(in.b))) & in.imm, int(in.bits)}
		case opCastS:
			v := f[in.a]
			if v.bits < int(in.bits) {
				f[in.dst] = val{uint64(v.signed()) & in.imm, int(in.bits)}
			} else {
				f[in.dst] = val{v.v & in.imm, int(in.bits)}
			}

		case opAdd:
			f[in.dst] = val{(f[in.a].v + f[in.b].v) & in.imm, int(in.bits)}
		case opSub:
			f[in.dst] = val{(f[in.a].v - f[in.b].v) & in.imm, int(in.bits)}
		case opAnd:
			f[in.dst] = val{f[in.a].v & f[in.b].v, int(in.bits)}
		case opOr:
			f[in.dst] = val{f[in.a].v | f[in.b].v, int(in.bits)}
		case opXor:
			f[in.dst] = val{f[in.a].v ^ f[in.b].v, int(in.bits)}
		case opShl:
			f[in.dst] = val{(f[in.a].v << f[in.b].v) & in.imm, int(in.bits)}
		case opShr:
			f[in.dst] = val{f[in.a].v >> f[in.b].v, int(in.bits)}
		case opSatAdd:
			au := f[in.a].v
			sum := au + f[in.b].v
			if sum > in.imm || sum < au {
				sum = in.imm
			}
			f[in.dst] = val{sum, int(in.bits)}
		case opSatSub:
			au, bu := f[in.a].v, f[in.b].v
			d := au - bu
			if bu > au {
				d = 0
			}
			f[in.dst] = val{d, int(in.bits)}
		case opNot:
			f[in.dst] = val{^f[in.a].v & in.imm, int(in.bits)}
		case opNeg:
			f[in.dst] = val{-f[in.a].v & in.imm, int(in.bits)}

		case opEq:
			f[in.dst] = val{b2u(f[in.a].v == f[in.b].v), 1}
		case opNe:
			f[in.dst] = val{b2u(f[in.a].v != f[in.b].v), 1}
		case opLt:
			f[in.dst] = val{b2u(f[in.a].v < f[in.b].v), 1}
		case opLe:
			f[in.dst] = val{b2u(f[in.a].v <= f[in.b].v), 1}
		case opSlt:
			f[in.dst] = val{b2u(sext(f[in.a].v, uint(in.bits)) < sext(f[in.b].v, uint(in.imm))), 1}
		case opSle:
			f[in.dst] = val{b2u(sext(f[in.a].v, uint(in.bits)) <= sext(f[in.b].v, uint(in.imm))), 1}
		case opLand:
			f[in.dst] = val{b2u(f[in.a].v != 0 && f[in.b].v != 0), 1}
		case opLor:
			f[in.dst] = val{b2u(f[in.a].v != 0 || f[in.b].v != 0), 1}
		case opLnot:
			f[in.dst] = val{b2u(f[in.a].v == 0), 1}
		case opValid:
			f[in.dst] = val{b2u(m.valid[in.imm]), 1}

		case opGen2:
			f[in.dst] = p.fn2[in.imm](f[in.a], f[in.b])
		case opGen1:
			f[in.dst] = p.fn1[in.imm](f[in.a])

		case opJmp:
			pc = in.dst
		case opJeq:
			if f[in.a].v == f[in.b].v {
				pc = in.dst
			}
		case opJne:
			if f[in.a].v != f[in.b].v {
				pc = in.dst
			}
		case opJlt:
			if f[in.a].v < f[in.b].v {
				pc = in.dst
			}
		case opJle:
			if f[in.a].v <= f[in.b].v {
				pc = in.dst
			}
		case opJslt:
			if sext(f[in.a].v, uint(in.bits)) < sext(f[in.b].v, uint(in.imm)) {
				pc = in.dst
			}
		case opJsle:
			if sext(f[in.a].v, uint(in.bits)) <= sext(f[in.b].v, uint(in.imm)) {
				pc = in.dst
			}
		case opJz:
			if f[in.a].v == 0 {
				pc = in.dst
			}
		case opJnz:
			if f[in.a].v != 0 {
				pc = in.dst
			}
		case opJvalid:
			if m.valid[in.imm] {
				pc = in.dst
			}
		case opJinvalid:
			if !m.valid[in.imm] {
				pc = in.dst
			}
		case opExitChk:
			if m.exited {
				pc = in.dst
			}
		case opExit:
			m.exited = true

		case opSetValid:
			m.setValid(int(in.imm))
		case opSetInvalid:
			if m.valid[in.imm] {
				m.valid[in.imm], m.full = false, true
			}

		case opRegLoad:
			rs := &p.regSites[in.imm]
			idx := uint64(0)
			if in.a >= 0 {
				idx = f[in.a].v
			}
			var mem uint64
			if idx < uint64(rs.rf.size) {
				mem = rs.rf.load(int(idx)) & rs.mask
			} else {
				idx = ^uint64(0)
			}
			f[rs.idxSlot].v = idx
			f[rs.m] = val{mem, rs.bits}
			f[rs.o] = val{0, rs.bits}
		case opRegStore:
			rs := &p.regSites[in.imm]
			if idx := f[rs.idxSlot].v; idx != ^uint64(0) {
				rs.rf.store(int(idx), f[rs.m].v)
			}
		case opRegRead:
			rs := &p.regSites[in.imm]
			var v uint64
			if idx := f[in.a].v; idx < uint64(rs.rf.size) {
				v = rs.rf.load(int(idx))
			}
			f[in.dst] = val{v & rs.mask, rs.bits}
		case opRegWrite:
			rs := &p.regSites[in.imm]
			if idx := f[in.a].v; idx < uint64(rs.rf.size) {
				rs.rf.store(int(idx), f[in.b].v)
			}
		case opHash:
			hs := &p.hashSites[in.a]
			data := m.hashBuf[:0]
			for _, a := range hs.args {
				v := f[a.slot]
				if a.bits >= 0 {
					v.bits = int(a.bits)
				}
				nb := (v.bits + 7) / 8
				if nb == 0 {
					nb = 4
				}
				for i := nb - 1; i >= 0; i-- {
					data = append(data, byte(v.v>>(8*uint(i))))
				}
			}
			m.hashBuf = data
			f[in.dst] = val{hs.fn(data) & in.imm, int(in.bits)}
		case opRand:
			f[in.dst] = val{m.sw.nextRand() >> 17 & in.imm, int(in.bits)}

		case opApply:
			hit, err := p.tabs[in.imm].apply(m)
			if err != nil {
				if in.dst < 0 {
					return err
				}
				pc = in.dst
			} else if in.c >= 0 {
				f[in.c] = val{b2u(hit), int(in.bits)}
			}
		case opFail:
			return p.errs[in.imm]
		}
	}
	return nil
}

// setValid marks a header valid and, like the reference SetValid,
// appends it to the emit order unless it is already there (a valid
// header always is).
func (m *machine) setValid(hi int) {
	if m.valid[hi] {
		return
	}
	m.valid[hi], m.full = true, true
	for _, o := range m.ordered {
		if o == hi {
			return
		}
	}
	m.ordered = append(m.ordered, hi)
}

// Static operator selection -------------------------------------------

// arithOps maps the binary operators that have a width-static opcode
// of the form val{(a op b) & mask, bits}.
var arithOps = map[string]opcode{
	"+": opAdd, "-": opSub, "&": opAnd, "|": opOr, "^": opXor,
	"|+|": opSatAdd, "|-|": opSatSub, "<<": opShl, ">>": opShr,
}

// rel is a comparison as one of the six value opcodes (opEq..opSle)
// over possibly exchanged operands, so four unsigned and two signed
// opcodes cover every relation and its negation.
type rel struct {
	op   opcode
	swap bool
}

var rels = map[string]rel{
	"==": {opEq, false}, "!=": {opNe, false},
	"<": {opLt, false}, "<=": {opLe, false}, ">": {opLt, true}, ">=": {opLe, true},
	"s<": {opSlt, false}, "s<=": {opSle, false}, "s>": {opSlt, true}, "s>=": {opSle, true},
}

// not is the complementary relation: !(a < b) is b <= a.
func (r rel) not() rel {
	switch r.op {
	case opEq:
		return rel{opNe, r.swap}
	case opNe:
		return rel{opEq, r.swap}
	case opLt:
		return rel{opLe, !r.swap}
	case opLe:
		return rel{opLt, !r.swap}
	case opSlt:
		return rel{opSle, !r.swap}
	}
	return rel{opSlt, !r.swap}
}

// jump is the branch opcode of the relation (the two opcode groups are
// declared in the same order).
func (r rel) jump() opcode { return r.op - opEq + opJeq }

func (r rel) signed() bool { return r.op == opSlt || r.op == opSle }

// isCompare reports operators whose result is bit<1> whatever the
// operand widths.
func isCompare(op string) bool {
	_, ok := rels[op]
	return ok || op == "&&" || op == "||"
}

// pure reports whether evaluating e has no effect besides its value:
// no extern or table call (isValid aside). Pure operands may be
// skipped (short-circuit) or read late without changing behavior.
func pure(e p4.Expr) bool {
	switch x := e.(type) {
	case *p4.Bin:
		return pure(x.X) && pure(x.Y)
	case *p4.Un:
		return pure(x.X)
	case *p4.Cast:
		return pure(x.X)
	case *p4.TernaryExpr:
		return pure(x.Cond) && pure(x.A) && pure(x.B)
	case *p4.CallExpr:
		return x.Method == "isValid"
	}
	return true
}
