package bmv2

// reference.go is the package's semantic oracle: the original
// tree-walking interpreter, which resolves every name and table per
// packet and is small enough to read as the definition of the P4
// subset. Its values carry their widths at run time (val); where a
// value has no width of its own (an untyped literal, a ternary, a call
// folded to zero) it takes the one p4.Validate recorded. Scope is
// lexical: an action or register-action body sees its own frame and
// the globals, and a table's keys and actions see the globals only.
// The differential tests and fuzzers construct it explicitly from a
// *Switch and hold the compiled engine to its output byte for byte.
// Nothing on Switch reaches it: a program the compiler refuses is an
// error (Switch.CompileErr), never a reason to run this instead.

import (
	"fmt"
	"strings"
	"sync/atomic"

	"netcl/internal/p4"
)

// Reference interprets a switch's program over that switch's own entry
// store, register files, RNG and packet counters, so Switch.Write and
// the register calls are its control plane too. Single-goroutine only,
// and not to be interleaved with sw.Process on one switch: the two
// would step the same registers.
type Reference struct{ s *Switch }

// NewReference returns the oracle over sw.
func NewReference(sw *Switch) *Reference { return &Reference{s: sw} }

// val is a typed interpreter value.
type val struct {
	v    uint64
	bits int
}

func (x val) mask() uint64 { return maskOf(x.bits) }

func (x val) wrapped() uint64 { return x.v & x.mask() }

func (x val) signed() int64 {
	u := x.wrapped()
	if x.bits > 0 && x.bits < 64 && u>>(uint(x.bits)-1) != 0 {
		return int64(u | ^x.mask())
	}
	return int64(u)
}

// exec carries per-packet state.
type exec struct {
	s       *Switch
	env     map[string]val
	valid   map[string]bool
	ordered []string // extracted header order
	payload []byte
	exited  bool
	frame   map[string]val // the running body's parameters or m/o; nil outside one
}

// Process runs one packet through parser, ingress, (egress,) deparser
// by walking the AST: the answer Switch.Process must give byte for
// byte, counters included.
func (r *Reference) Process(data []byte, inPort int) (*Result, error) {
	s := r.s
	atomic.AddUint64(&s.PacketsIn, 1)
	ex := &exec{s: s, env: map[string]val{}, valid: map[string]bool{}}
	for _, f := range s.Prog.Metadata {
		ex.env["meta."+f.Name] = val{0, f.Bits}
	}
	// The ingress port is program-visible metadata, set before parsing
	// (a parser select may read it), at its declared width; a program
	// that does not declare it does not mention it.
	ex.env["meta.ingress_port"] = val{uint64(inPort), s.fields["meta.ingress_port"]}
	if err := ex.parse(data); err != nil {
		return nil, err
	}
	if err := ex.control(s.Prog.Ingress); err != nil {
		return nil, err
	}
	if s.Prog.Egress != nil && !ex.exited {
		if err := ex.control(s.Prog.Egress); err != nil {
			return nil, err
		}
	}
	res := &Result{
		Port:  int(ex.env["meta.egress_port"].wrapped()),
		Mcast: int(ex.env["meta.mcast_grp"].wrapped()),
	}
	if ex.env["meta.drop_flag"].wrapped() != 0 {
		res.Dropped = true
		atomic.AddUint64(&s.PacketsDropped, 1)
		return res, nil
	}
	res.Data = ex.deparse()
	if res.Port == 0 && res.Mcast == 0 {
		res.NoMatch = true
	}
	atomic.AddUint64(&s.PacketsOut, 1)
	return res, nil
}

// parse walks the parser FSM.
func (ex *exec) parse(data []byte) error {
	rest := data
	state := ex.s.Prog.Parser.StateByName("start")
	for steps := 0; state != nil; steps++ {
		if steps > 64 {
			return fmt.Errorf("parser loop")
		}
		for _, hn := range state.Extracts {
			h := ex.s.Prog.HeaderByName(hn)
			nbytes := h.Bits() / 8
			if len(rest) < nbytes {
				return fmt.Errorf("packet too short for header %q (%d < %d)", hn, len(rest), nbytes)
			}
			bitOff := 0
			for _, f := range h.Fields {
				v := extractBits(rest, bitOff, f.Bits)
				ex.env["hdr."+hn+"."+f.Name] = val{v, f.Bits}
				bitOff += f.Bits
			}
			rest = rest[nbytes:]
			ex.valid[hn] = true
			ex.ordered = append(ex.ordered, hn)
		}
		next := ""
		if state.Select != nil {
			key := ex.eval(state.Select.Key)
			next = state.Select.Default
			for _, c := range state.Select.Cases {
				if c.Mask != 0 {
					if key.wrapped()&c.Mask == c.Value&c.Mask {
						next = c.State
						break
					}
				} else if key.wrapped() == c.Value {
					next = c.State
					break
				}
			}
		} else {
			next = state.Next
			if next == "" {
				next = "accept"
			}
		}
		switch next {
		case "accept":
			ex.payload = rest
			return nil
		case "reject":
			return fmt.Errorf("parser rejected packet")
		}
		state = ex.s.Prog.Parser.StateByName(next)
		if state == nil {
			return fmt.Errorf("parser transition to unknown state %q", next)
		}
	}
	return nil
}

// deparse emits valid headers in extraction order plus payload.
func (ex *exec) deparse() []byte {
	var out []byte
	emitted := map[string]bool{}
	emit := func(hn string) {
		if emitted[hn] || !ex.valid[hn] {
			return
		}
		emitted[hn] = true
		h := ex.s.Prog.HeaderByName(hn)
		var cur uint64
		curBits := 0
		for _, f := range h.Fields {
			v := ex.env["hdr."+hn+"."+f.Name]
			remaining := f.Bits
			for remaining > 0 {
				take := 8 - curBits
				if take > remaining {
					take = remaining
				}
				cur = cur<<uint(take) | (v.wrapped()>>(uint(remaining-take)))&((1<<uint(take))-1)
				curBits += take
				remaining -= take
				if curBits == 8 {
					out = append(out, byte(cur))
					cur, curBits = 0, 0
				}
			}
		}
	}
	for _, hn := range ex.ordered {
		emit(hn)
	}
	// Headers made valid by the control (not extracted) follow program
	// order.
	for _, h := range ex.s.Prog.Headers {
		emit(h.Name)
	}
	return append(out, ex.payload...)
}

// control runs a control block's apply body.
func (ex *exec) control(c *p4.Control) error {
	return ex.stmts(c, c.Apply)
}

func (ex *exec) stmts(c *p4.Control, body []p4.Stmt) error {
	for _, st := range body {
		if ex.exited {
			return nil
		}
		if err := ex.stmt(c, st); err != nil {
			return err
		}
	}
	return nil
}

func (ex *exec) stmt(c *p4.Control, st p4.Stmt) error {
	switch x := st.(type) {
	case *p4.Comment:
		return nil
	case *p4.Assign:
		v := ex.eval(x.RHS)
		ex.assign(x.LHS, v)
		return nil
	case *p4.If:
		if ex.eval(x.Cond).wrapped() != 0 {
			return ex.stmts(c, x.Then)
		}
		return ex.stmts(c, x.Else)
	case *p4.ApplyTable:
		hit, err := ex.applyTable(c, x.Table)
		if err != nil {
			return err
		}
		if x.HitVar != "" {
			hv := uint64(0)
			if hit {
				hv = 1
			}
			ex.assign(p4.FR(x.HitVar), val{hv, 1})
		}
		return nil
	case *p4.CallStmt:
		return ex.callStmt(c, x)
	case *p4.SetValid:
		ex.valid[x.Header] = x.Valid
		if x.Valid {
			found := false
			for _, hn := range ex.ordered {
				if hn == x.Header {
					found = true
				}
			}
			if !found {
				ex.ordered = append(ex.ordered, x.Header)
			}
		}
		return nil
	case *p4.Exit:
		ex.exited = true
		return nil
	}
	return fmt.Errorf("unsupported statement %T", st)
}

// assign writes a value, converted to the destination's declared
// width, to the current frame's name or else to the global.
func (ex *exec) assign(fr *p4.FieldRef, v val) {
	name := fr.String()
	if old, ok := ex.frame[name]; ok {
		ex.frame[name] = val{v.wrapped(), old.bits}
		return
	}
	ex.env[name] = val{v.wrapped(), ex.s.fields[name]}
}

func (ex *exec) callStmt(c *p4.Control, x *p4.CallStmt) error {
	if x.Recv == "" {
		// Plain action invocation.
		var args []val
		for _, e := range x.Args {
			args = append(args, ex.eval(e))
		}
		return ex.runAction(c, c.ActionByName(x.Method), args)
	}
	// Register primitives (v1model style).
	if rf, ok := ex.s.regs[x.Recv]; ok {
		switch x.Method {
		case "read":
			idx := int(ex.eval(x.Args[1]).wrapped())
			var v uint64
			if idx >= 0 && idx < rf.size {
				v = rf.load(idx)
			}
			ex.assign(x.Args[0].(*p4.FieldRef), val{v, 64})
			return nil
		case "write":
			idx := int(ex.eval(x.Args[0]).wrapped())
			v := ex.eval(x.Args[1])
			if idx >= 0 && idx < rf.size {
				rf.store(idx, v.wrapped())
			}
			return nil
		}
	}
	// RegisterAction.execute used as a statement (result discarded).
	if ra := c.RegActByName(x.Recv); ra != nil && x.Method == "execute" {
		_, err := ex.execRegAction(c, ra, x.Args)
		return err
	}
	return fmt.Errorf("unsupported call %s.%s", x.Recv, x.Method)
}

func (ex *exec) runAction(c *p4.Control, a *p4.ActionDecl, args []val) error {
	frame := map[string]val{}
	for i, p := range a.Params {
		var v val
		if i < len(args) {
			v = val{args[i].wrapped(), p.Bits}
		} else {
			v = val{0, p.Bits}
		}
		frame[p.Name] = v
	}
	saved := ex.frame
	ex.frame = frame
	err := ex.stmts(c, a.Body)
	ex.frame = saved
	return err
}

// applyTable matches and executes a table. Its keys and actions run
// outside the applying body's frame.
func (ex *exec) applyTable(c *p4.Control, name string) (bool, error) {
	saved := ex.frame
	ex.frame = nil
	defer func() { ex.frame = saved }()
	t := c.TableByName(name)
	var keys []val
	for _, k := range t.Keys {
		keys = append(keys, ex.eval(k.Expr))
	}
	var entries []*p4.Entry
	if es := ex.s.entries[name]; es != nil {
		entries = es.entries() // the copy Switch.Entries returns
	}
	var best *p4.Entry
	// "no match" is tracked explicitly rather than with a sentinel
	// score: ternary/range priorities are subtracted from the score and
	// a large priority would underflow any sentinel, making a matching
	// entry lose to nothing.
	bestScore := 0
	matched := false
	for _, e := range entries {
		if len(e.Keys) != len(keys) {
			continue
		}
		ok := true
		score := 0
		for i, kv := range e.Keys {
			kval := keys[i].wrapped()
			switch t.Keys[i].Match {
			case p4.MatchExact:
				if kval != kv.Value {
					ok = false
				}
			case p4.MatchTernary:
				if kval&kv.Mask != kv.Value&kv.Mask {
					ok = false
				}
				score -= e.Priority
			case p4.MatchLPM:
				bits := keys[i].bits
				plen := kv.PrefixLen
				if plen < 0 {
					plen = 0
				}
				if plen > bits {
					ok = false
					break
				}
				shift := uint(bits - plen)
				if plen == 0 || kval>>shift == kv.Value>>shift {
					score = plen
				} else {
					ok = false
				}
			case p4.MatchRange:
				if kval < kv.Value || kval > kv.Hi {
					ok = false
				}
				score -= e.Priority
			}
			if !ok {
				break
			}
		}
		if ok && (!matched || score > bestScore) {
			best = e
			bestScore = score
			matched = true
		}
	}
	if best == nil {
		if t.Default != nil && t.Default.Name != "NoAction" {
			a := c.ActionByName(t.Default.Name)
			if a == nil {
				return false, fmt.Errorf("unknown default action %q", t.Default.Name)
			}
			var args []val
			for _, v := range t.Default.Args {
				args = append(args, val{v, 64})
			}
			if err := ex.runAction(c, a, args); err != nil {
				return false, err
			}
		}
		return false, nil
	}
	if best.Action.Name != "NoAction" {
		a := c.ActionByName(best.Action.Name)
		if a == nil {
			return false, fmt.Errorf("unknown action %q", best.Action.Name)
		}
		var args []val
		for _, v := range best.Action.Args {
			args = append(args, val{v, 64})
		}
		if err := ex.runAction(c, a, args); err != nil {
			return false, err
		}
	}
	return true, nil
}

// execRegAction runs a SALU microprogram.
func (ex *exec) execRegAction(c *p4.Control, ra *p4.RegisterAction, idxArgs []p4.Expr) (val, error) {
	rf, reg := ex.s.regs[ra.Register], c.RegisterByName(ra.Register)
	idx := 0
	if len(idxArgs) > 0 {
		idx = int(ex.eval(idxArgs[0]).wrapped())
	}
	var m uint64
	if idx >= 0 && idx < rf.size {
		m = rf.load(idx)
	}
	saved := ex.frame
	ex.frame = map[string]val{
		"m": {m, reg.Bits},
		"o": {0, reg.Bits},
	}
	err := ex.stmts(c, ra.Body)
	out := ex.frame
	ex.frame = saved
	if err != nil {
		return val{}, err
	}
	if idx >= 0 && idx < rf.size {
		rf.store(idx, out["m"].wrapped())
	}
	return out["o"], nil
}

// eval evaluates an expression.
func (ex *exec) eval(e p4.Expr) val {
	switch x := e.(type) {
	case *p4.IntLit:
		// An untyped literal (Bits 0) takes the width of its context.
		return val{x.Val, ex.s.widths.Of(x)}
	case *p4.FieldRef:
		name := x.String()
		if v, ok := ex.frame[name]; ok {
			return v
		}
		if v, ok := ex.env[name]; ok {
			return v
		}
		return val{0, ex.s.fields[name]}
	case *p4.Bin:
		// Go evaluates the operands left to right, as P4 does.
		return binOps[x.Op](ex.eval(x.X), ex.eval(x.Y))
	case *p4.Un:
		return unOps[x.Op](ex.eval(x.X))
	case *p4.Cast:
		v := ex.eval(x.X)
		if x.Signed && v.bits < x.Bits {
			return val{uint64(v.signed()) & maskOf(x.Bits), x.Bits}
		}
		return val{v.wrapped() & maskOf(x.Bits), x.Bits}
	case *p4.TernaryExpr:
		arm := x.B
		if ex.eval(x.Cond).wrapped() != 0 {
			arm = x.A
		}
		return val{ex.eval(arm).wrapped(), ex.s.widths.Of(x)}
	case *p4.CallExpr:
		v, err := ex.evalCall(x)
		if err != nil {
			// Errors inside expressions surface as zero; callers that
			// care route through callStmt which propagates errors.
			return val{0, ex.s.widths.Of(x)}
		}
		return v
	}
	return val{}
}

func (ex *exec) evalCall(x *p4.CallExpr) (val, error) {
	// Header validity.
	if x.Method == "isValid" {
		if ex.valid[strings.TrimPrefix(x.Recv, "hdr.")] {
			return val{1, 1}, nil
		}
		return val{0, 1}, nil
	}
	c := ex.s.Prog.Ingress
	if ra := c.RegActByName(x.Recv); ra != nil && x.Method == "execute" {
		return ex.execRegAction(c, ra, x.Args)
	}
	// Hash/random externs.
	for _, h := range ex.hashDecls() {
		if h.Name == x.Recv && x.Method == "get" {
			if h.Algo == "random" {
				r := ex.s.nextRand()
				return val{r >> 17 & maskOf(h.Bits), h.Bits}, nil
			}
			var data []byte
			for _, a := range x.Args {
				v := ex.eval(a)
				for i := (v.bits+7)/8 - 1; i >= 0; i-- {
					data = append(data, byte(v.wrapped()>>(8*uint(i))))
				}
			}
			fn := hashFn(h.Algo)
			if fn == nil {
				return val{}, fmt.Errorf("unknown hash algorithm %q", h.Algo)
			}
			return val{fn(data) & maskOf(h.Bits), h.Bits}, nil
		}
	}
	if x.Method == "apply_hit" {
		hit, err := ex.applyTable(c, x.Recv)
		if err != nil {
			return val{}, err
		}
		if hit {
			return val{1, 1}, nil
		}
		return val{0, 1}, nil
	}
	return val{}, fmt.Errorf("unsupported call expression %s.%s", x.Recv, x.Method)
}

func (ex *exec) hashDecls() (out []*p4.HashDecl) {
	for _, c := range ex.s.Prog.Controls() {
		out = append(out, c.Hashes...)
	}
	return out
}
