package bmv2

// layoutfuzz_test.go pins the planned parser and deparser of the
// compiled engine (machine.go) to the reference bit-by-bit loops:
// seeded random header layouts and parse graphs, packets of every
// length from empty to complete plus payload, and the engine and the
// reference interpreter must produce the same bytes or the same error.
// Half the programs have only byte-aligned headers and half keep every
// header's validity, so both deparse paths — copy-then-patch and the
// full emit — run on every kind of plan.

import (
	"fmt"
	"math/rand"
	"testing"

	"netcl/internal/p4"
)

// layoutHeader draws one header: byte-aligned fields of every plan
// kind (1, 2, 4, 8 bytes: fixed-width access; 3, 5, 6: byte loop),
// arrays of one width (merged into one plan step), unaligned groups
// that re-align (3+13, 1+7, 4+12), single odd fields that leave the
// rest of the header unaligned, a repeated field name now and then
// (both fields share one slot), and sometimes a total width that is
// not a whole number of bytes. An aligned header has only byte-aligned
// fields of distinct names: one the copy path can patch.
func layoutHeader(rng *rand.Rand, name string, aligned bool) *p4.HeaderDecl {
	h := &p4.HeaderDecl{Name: name}
	add := func(bits ...int) {
		for _, b := range bits {
			name := fmt.Sprintf("f%d", len(h.Fields))
			if len(h.Fields) > 0 && !aligned && rng.Intn(24) == 0 {
				name = h.Fields[rng.Intn(len(h.Fields))].Name
			}
			h.Fields = append(h.Fields, &p4.Field{Name: name, Bits: b})
		}
	}
	for n := 1 + rng.Intn(6); n > 0; n-- {
		g := rng.Intn(9)
		if aligned {
			g = []int{0, 8}[rng.Intn(2)]
		}
		switch g {
		case 0, 1, 2, 3:
			add([]int{8, 16, 24, 32, 40, 48, 64}[rng.Intn(7)])
		case 8:
			w := []int{8, 16, 32, 64}[rng.Intn(4)]
			for k := 2 + rng.Intn(3); k > 0; k-- {
				add(w)
			}
		case 4:
			add(3, 13)
		case 5:
			add(1, 7)
		case 6:
			add(4, 12)
		default:
			add(1 + rng.Intn(20))
		}
	}
	if h.Bits()%8 != 0 && rng.Intn(3) > 0 {
		add(8 - h.Bits()%8) // most headers end on a byte boundary
	}
	if h.Bits() < 8 {
		add(8)
	}
	return h
}

// layoutProgram draws headers, a parse graph over them and a control
// that revalidates, invalidates and rewrites headers (or, in half the
// programs, only rewrites them).
func layoutProgram(rng *rand.Rand) *p4.Program {
	pp := &p4.Program{Name: "lay", Target: p4.TargetTNA}
	nh := 2 + rng.Intn(4)
	aligned, keepValid := rng.Intn(2) == 0, rng.Intn(2) == 0
	for i := 0; i < nh; i++ {
		pp.Headers = append(pp.Headers, layoutHeader(rng, fmt.Sprintf("h%d", i), aligned))
	}
	pp.Metadata = []*p4.Field{{Name: "egress_port", Bits: 16}, {Name: "mcast_grp", Bits: 16}, {Name: "drop_flag", Bits: 1}}
	field := func(hi int) *p4.FieldRef {
		h := pp.Headers[hi]
		return p4.FR("hdr", h.Name, h.Fields[rng.Intn(len(h.Fields))].Name)
	}

	// State i extracts header i (the start state sometimes two) and
	// selects, mostly forward, on a field of a header seen so far.
	target := func(i int) string {
		switch r := rng.Intn(10); {
		case r == 0:
			return "reject"
		case r == 1 || i+1 >= nh:
			return "accept"
		case r == 2:
			return fmt.Sprintf("s%d", rng.Intn(nh)) // may loop back: re-extraction until the packet runs out
		case r == 3:
			return "spin"
		}
		return fmt.Sprintf("s%d", i+1+rng.Intn(nh-i-1))
	}
	ps := &p4.Parser{Name: "P"}
	for i := 0; i < nh; i++ {
		st := &p4.ParserState{Name: fmt.Sprintf("s%d", i), Extracts: []string{pp.Headers[i].Name}}
		if i == 0 {
			st.Name = "start"
			if rng.Intn(4) == 0 && nh > 2 {
				st.Extracts = append(st.Extracts, pp.Headers[1].Name)
			}
		}
		if rng.Intn(4) == 0 {
			st.Next = target(i)
			if rng.Intn(3) == 0 {
				st.Next = "" // the reference reads an empty Next as accept
			}
		} else {
			sel := &p4.Select{Key: field(rng.Intn(i + 1)), Default: target(i)}
			if rng.Intn(3) == 0 {
				sel.Key = &p4.Bin{Op: "&", X: sel.Key, Y: &p4.IntLit{Val: 0xF}}
			}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				c := p4.SelectCase{Value: uint64(rng.Intn(4)), State: target(i)}
				if rng.Intn(2) == 0 {
					c.Mask = uint64(1 + rng.Intn(3)) // masked case over the low bits
				}
				sel.Cases = append(sel.Cases, c)
			}
			st.Select = sel
		}
		ps.States = append(ps.States, st)
	}
	for i := range ps.States { // "s0" is the start state
		fix := func(s *string) {
			if *s == "s0" {
				*s = "start"
			}
		}
		fix(&ps.States[i].Next)
		if sel := ps.States[i].Select; sel != nil {
			fix(&sel.Default)
			for j := range sel.Cases {
				fix(&sel.Cases[j].State)
			}
		}
	}
	ps.States = append(ps.States, &p4.ParserState{Name: "spin", Next: "spin"}) // trips the 64-step guard
	pp.Parser = ps

	ctl := &p4.Control{Name: "In"}
	for n := rng.Intn(6); n > 0; n-- {
		hi := rng.Intn(nh)
		op := rng.Intn(3)
		if keepValid {
			op = 2
		}
		switch op {
		case 0:
			ctl.Apply = append(ctl.Apply, &p4.SetValid{Header: pp.Headers[hi].Name, Valid: true})
		case 1:
			ctl.Apply = append(ctl.Apply, &p4.SetValid{Header: pp.Headers[hi].Name, Valid: false})
		default:
			ctl.Apply = append(ctl.Apply, &p4.Assign{LHS: field(hi),
				RHS: &p4.Bin{Op: "+", X: field(rng.Intn(nh)), Y: &p4.IntLit{Val: 1, Bits: 8}}})
		}
	}
	ctl.Apply = append(ctl.Apply, &p4.Assign{LHS: p4.FR("meta", "egress_port"), RHS: &p4.IntLit{Val: 1, Bits: 16}})
	pp.Ingress = ctl
	return pp
}

// TestLayoutDifferentialFuzz: extract plans and emit plans against the
// reference loops, on every packet length.
func TestLayoutDifferentialFuzz(t *testing.T) {
	programs := 300
	if testing.Short() {
		programs = 60
	}
	for seed := 0; seed < programs; seed++ {
		checkLayout(t, int64(seed))
	}
}

// FuzzLayout is TestLayoutDifferentialFuzz as a native fuzz target:
// the input is the program seed.
func FuzzLayout(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkLayout)
}

// checkLayout draws the program of one seed and runs packets of every
// length from empty to complete plus three bytes through both engines.
func checkLayout(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pp := layoutProgram(rng)
	comp, ref := New(pp), New(pp)
	if comp.CompileErr() != nil {
		t.Fatalf("seed %d: compile refused: %v\n%s", seed, comp.CompileErr(), p4.Print(pp))
	}
	full := 0
	for _, h := range pp.Headers {
		full += (h.Bits() + 7) / 8
	}
	what := fmt.Sprintf("seed %d", seed)
	for n := 0; n <= full+3; n++ {
		for rep := 0; rep < 3; rep++ {
			pkt := make([]byte, n)
			for i := range pkt {
				// Small values keep select cases reachable; rep 2 is
				// fully random.
				pkt[i] = byte(rng.Intn(256))
				if rep < 2 && rng.Intn(2) == 0 {
					pkt[i] &= 0x13
				}
			}
			diffEngines(t, what, comp, ref, pkt, 0)
		}
	}
}

// TestParserStepGuard: the 64-step guard trips on the same visit in
// the engine and the interpreter — a one-byte header re-extracted
// while it reads 1.
func TestParserStepGuard(t *testing.T) {
	pp := &p4.Program{Name: "loop", Target: p4.TargetTNA}
	pp.Headers = []*p4.HeaderDecl{{Name: "b", Fields: []*p4.Field{{Name: "v", Bits: 8}}}}
	pp.Metadata = []*p4.Field{{Name: "egress_port", Bits: 16}, {Name: "mcast_grp", Bits: 16}, {Name: "drop_flag", Bits: 1}}
	pp.Parser = &p4.Parser{Name: "P", States: []*p4.ParserState{{
		Name: "start", Extracts: []string{"b"},
		Select: &p4.Select{Key: p4.FR("hdr", "b", "v"), Cases: []p4.SelectCase{{Value: 1, State: "start"}}, Default: "accept"},
	}}}
	pp.Ingress = &p4.Control{Name: "In"}
	comp, ref := New(pp), New(pp)
	if comp.CompileErr() != nil {
		t.Fatalf("compile refused: %v", comp.CompileErr())
	}
	for ones := 62; ones <= 67; ones++ {
		pkt := make([]byte, ones+1)
		for i := 0; i < ones; i++ {
			pkt[i] = 1
		}
		diffEngines(t, fmt.Sprintf("%d laps", ones), comp, ref, pkt, 0)
	}
}
