package p4

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// small builds a tiny but feature-complete program by hand.
func small(target Target) *Program {
	prog := &Program{Name: "small", Target: target}
	prog.Headers = []*HeaderDecl{
		{Name: "ethernet", Fields: []*Field{
			{Name: "dst_addr", Bits: 48}, {Name: "src_addr", Bits: 48}, {Name: "ether_type", Bits: 16},
		}},
		{Name: "demo", Fields: []*Field{{Name: "k", Bits: 32}, {Name: "v", Bits: 32}}},
	}
	prog.Metadata = []*Field{{Name: "nexthop", Bits: 16}, {Name: "drop_flag", Bits: 1},
		{Name: "mcast_grp", Bits: 16}, {Name: "egress_port", Bits: 16}}
	prog.Parser = &Parser{Name: "IgParser", States: []*ParserState{
		{Name: "start", Next: "parse_ethernet"},
		{Name: "parse_ethernet", Extracts: []string{"ethernet"},
			Select: &Select{Key: FR("hdr", "ethernet", "ether_type"),
				Cases:   []SelectCase{{Value: 0x1234, State: "parse_demo"}},
				Default: "accept"}},
		{Name: "parse_demo", Extracts: []string{"demo"}, Next: "accept"},
	}}
	ctl := &Control{Name: "In"}
	ctl.Locals = []*Field{{Name: "tmp", Bits: 32}, {Name: "hit1", Bits: 1}}
	ctl.Registers = []*Register{{Name: "cnt", Bits: 32, Size: 16}}
	ctl.RegActs = []*RegisterAction{{
		Name: "ra_inc", Register: "cnt",
		Body: []Stmt{
			&Assign{LHS: FR("m"), RHS: &Bin{Op: "|+|", X: FR("m"), Y: &IntLit{Val: 1, Bits: 32}}},
			&Assign{LHS: FR("o"), RHS: FR("m")},
		},
	}}
	ctl.Hashes = []*HashDecl{{Name: "h0", Algo: "crc16", Bits: 16}}
	ctl.Actions = []*ActionDecl{
		{Name: "set_v", Params: []*Field{{Name: "v", Bits: 32}},
			Body: []Stmt{&Assign{LHS: FR("hdr", "demo", "v"), RHS: FR("v")}}},
		{Name: "mark_drop",
			Body: []Stmt{&Assign{LHS: FR("meta", "drop_flag"), RHS: &IntLit{Val: 1, Bits: 1}}}},
	}
	ctl.Tables = []*Table{{
		Name:    "kv",
		Keys:    []*TableKey{{Expr: FR("hdr", "demo", "k"), Match: MatchExact}},
		Actions: []string{"NoAction", "set_v"},
		Default: &ActionCall{Name: "NoAction"},
		Const:   true,
		Entries: []*Entry{
			{Keys: []KeyValue{{Value: 1, PrefixLen: -1}}, Action: &ActionCall{Name: "set_v", Args: []uint64{42}}},
			{Keys: []KeyValue{{Value: 2, PrefixLen: -1}}, Action: &ActionCall{Name: "set_v", Args: []uint64{43}}},
		},
	}}
	ctl.Apply = []Stmt{
		&If{
			Cond: &CallExpr{Recv: "hdr.demo", Method: "isValid"},
			Then: []Stmt{
				&ApplyTable{Table: "kv", HitVar: "hit1"},
				&Assign{LHS: FR("tmp"), RHS: &CallExpr{Recv: "ra_inc", Method: "execute",
					Args: []Expr{&Cast{Bits: 32, X: FR("hdr", "demo", "k")}}}},
				&If{Cond: &Bin{Op: "==", X: FR("hit1"), Y: &IntLit{Val: 0, Bits: 1}},
					Then: []Stmt{&Assign{LHS: FR("hdr", "demo", "v"), RHS: FR("tmp")}}},
			},
			Else: []Stmt{&Assign{LHS: FR("meta", "drop_flag"), RHS: &IntLit{Val: 1, Bits: 1}}},
		},
	}
	prog.Ingress = ctl
	return prog
}

// TestValidateWidths: the widths Validate records for untyped literals
// in each kind of context, and its typed refusals.
func TestValidateWidths(t *testing.T) {
	lit := func() *IntLit { return &IntLit{Val: 1} }
	l := [...]*IntLit{lit(), lit(), lit(), lit(), lit(), lit(), lit(), lit()}
	shl := &Bin{Op: "<<", X: FR("hdr", "demo", "v"), Y: l[2]}
	prog := small(TargetTNA)
	prog.Ingress.Locals = append(prog.Ingress.Locals, &Field{Name: "x8", Bits: 8}, &Field{Name: "x16", Bits: 16})
	prog.Ingress.Apply = append(prog.Ingress.Apply,
		&Assign{LHS: FR("x16"), RHS: &Bin{Op: "|+|", X: FR("x8"), Y: l[0]}},                            // the other operand's: 8
		&Assign{LHS: FR("x16"), RHS: &Bin{Op: "+", X: l[1], Y: lit()}},                                 // the place's: 16
		&Assign{LHS: FR("tmp"), RHS: shl},                                                              // a shift amount: 64
		&Assign{LHS: FR("x8"), RHS: &Cast{Bits: 16, X: l[3]}},                                          // the cast's: 16
		&CallStmt{Method: "set_v", Args: []Expr{l[4]}},                                                 // the parameter's: 32
		&Assign{LHS: FR("tmp"), RHS: &CallExpr{Recv: "ra_inc", Method: "execute", Args: []Expr{l[5]}}}, // an index: 32
		&Assign{LHS: FR("x16"), RHS: &CallExpr{Recv: "h0", Method: "get", Args: []Expr{l[6]}}},         // nothing: 64
		&If{Cond: &Bin{Op: "==", X: FR("x16"), Y: l[7]}},                                               // the other operand's: 16
	)
	w, err := prog.Validate()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{8, 16, 64, 16, 32, 32, 64, 16} {
		if w.Of(l[i]) != want {
			t.Errorf("literal %d: width %d, want %d", i, w.Of(l[i]), want)
		}
	}
	if w.Of(shl) != 32 {
		t.Errorf("shift: width %d, want the left operand's 32", w.Of(shl))
	}
	for _, tc := range []struct {
		stmt      Stmt
		construct string
	}{
		{&Assign{LHS: FR("nosuch"), RHS: lit()}, "name nosuch"},
		{&Assign{LHS: FR("tmp"), RHS: &Bin{Op: "**", X: lit(), Y: lit()}}, "operator **"},
		{&Assign{LHS: FR("tmp"), RHS: &Cast{Bits: 70, X: lit()}}, "cast"},
		{&Assign{LHS: FR("tmp"), RHS: &CallExpr{Recv: "kv", Method: "frob"}}, "call kv.frob"},
		{&ApplyTable{Table: "nosuch"}, "table nosuch"},
		{&SetValid{Header: "nosuch", Valid: true}, "header nosuch"},
	} {
		bad := small(TargetTNA)
		bad.Ingress.Apply = append(bad.Ingress.Apply, tc.stmt)
		var ce *CheckError
		if _, err := bad.Validate(); !errors.As(err, &ce) || ce.Construct != tc.construct {
			t.Errorf("Validate = %v, want a refusal of %q", err, tc.construct)
		}
	}
}

func TestPrintClassified(t *testing.T) {
	text, cats := PrintClassified(small(TargetTNA))
	if len(strings.Split(text, "\n")) != len(cats)+1 {
		t.Fatalf("line/category count mismatch")
	}
	counts := map[LineCat]int{}
	for _, c := range cats {
		counts[c]++
	}
	for _, cat := range []LineCat{CatHeader, CatParser, CatMAT, CatRegAction, CatControl, CatOther} {
		if counts[cat] == 0 {
			t.Errorf("no lines classified as %s", cat)
		}
	}
}

func TestRoundTripTNA(t *testing.T) {
	roundTrip(t, small(TargetTNA))
}

func TestRoundTripV1Model(t *testing.T) {
	// v1model programs cannot hold RegisterActions (they are expanded);
	// build a variant using register read/write statements.
	prog := small(TargetV1Model)
	prog.Ingress.RegActs = nil
	prog.Ingress.Apply = []Stmt{
		&CallStmt{Recv: "cnt", Method: "read", Args: []Expr{FR("tmp"), &IntLit{Val: 3}}},
		&Assign{LHS: FR("tmp"), RHS: &Bin{Op: "+", X: FR("tmp"), Y: &IntLit{Val: 1, Bits: 32}}},
		&CallStmt{Recv: "cnt", Method: "write", Args: []Expr{&IntLit{Val: 3}, FR("tmp")}},
	}
	roundTrip(t, prog)
}

// roundTrip checks Print → Parse → Print fixpoint.
func roundTrip(t *testing.T, prog *Program) {
	t.Helper()
	text1 := Print(prog)
	re, err := Parse(prog.Name, text1)
	if err != nil {
		t.Fatalf("parse printed program: %v\n%s", err, text1)
	}
	if _, err := re.Validate(); err != nil {
		t.Fatalf("reparsed program invalid: %v", err)
	}
	text2 := Print(re)
	if text1 != text2 {
		t.Errorf("round trip not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
}

func TestParseHandwrittenSnippet(t *testing.T) {
	src := `
#include <core.p4>
#include <tna.p4>

typedef bit<48> mac_t;

header ethernet_t {
    mac_t dst;
    mac_t src;
    bit<16> etype;
}
struct headers_t { ethernet_t ethernet; }
struct metadata_t { bit<16> nexthop; }

parser IgParser(packet_in pkt, out headers_t hdr, out metadata_t meta) {
    state start {
        pkt.extract(hdr.ethernet);
        transition select(hdr.ethernet.etype) {
            0x0800 : accept;
            default : accept;
        }
    }
}

control In(inout headers_t hdr, inout metadata_t meta) {
    bit<32> c;
    Register<bit<32>, bit<32>>(1024) hits;
    RegisterAction<bit<32>, bit<32>, bit<32>>(hits) bump = {
        void apply(inout bit<32> value, out bit<32> rv) {
            value = value + 1;
            rv = value;
        }
    };
    action fwd(bit<16> port) { meta.nexthop = port; }
    table l2 {
        key = { hdr.ethernet.dst : exact; }
        actions = { fwd; NoAction; }
        default_action = NoAction();
        size = 64;
    }
    apply {
        c = bump.execute((bit<32>)hdr.ethernet.etype);
        if (l2.apply().hit) {
            hdr.ethernet.etype = 16w7;
        }
    }
}

control IgDeparser(packet_out pkt, inout headers_t hdr) {
    apply { pkt.emit(hdr.ethernet); }
}

Pipeline(IgParser(), In(), IgDeparser()) pipe;
Switch(pipe) main;
`
	prog, err := Parse("snippet", src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Target != TargetTNA {
		t.Errorf("target: %s", prog.Target)
	}
	if prog.HeaderByName("ethernet") == nil {
		t.Fatal("header missing")
	}
	if prog.HeaderByName("ethernet").Fields[0].Bits != 48 {
		t.Error("typedef width not applied")
	}
	ra := prog.Ingress.RegActByName("bump")
	if ra == nil {
		t.Fatal("register action missing")
	}
	// Parameter canonicalization: value/rv renamed to m/o.
	found := false
	WalkExprs(ra.Body, func(e Expr) {
		if fr, ok := e.(*FieldRef); ok && fr.String() == "m" {
			found = true
		}
	})
	if !found {
		t.Error("register action params not canonicalized to m/o")
	}
	if prog.Ingress.TableByName("l2") == nil || prog.Ingress.ActionByName("fwd") == nil {
		t.Error("table or action missing")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"header x_t { bit<8> }",             // missing field name
		"control In() { table t { zap } }",  // bad table property
		"parser P() { state start { ??? }}", // bad parser stmt
	}
	for _, src := range cases {
		if _, err := Parse("bad", src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
	// Tokens are offsets into the source: a message quotes a token's
	// text and line, a split ">>" closer leaves its second ">", and a
	// sized literal keeps its whole width for Validate to refuse.
	const prelude = "parser P() { state start { transition accept; } }\n"
	exact := []struct{ src, want string }{
		{prelude + "control C() {\n apply { x = = 1; }\n}", `bad: line 3: unexpected token "=" in expression`},
		{"header h_t {\n bit<32>> f;\n}", `bad: line 2: expected identifier, found ">"`},
		{"header h_t { bit<8> f; }\n" + prelude + "control C() {\n apply { hdr.h.f = 99999999999999999999w1; }\n}", `line 4: bad width "99999999999999999999"`},
		{"header h_t { bit<8> f; }\n" + prelude + "control C() {\n apply { hdr.h.f = 4294967297w1; }\n}", `bad: literal: width 4294967297 outside 1..64`},
	}
	for _, c := range exact {
		prog, err := Parse("bad", c.src)
		if err == nil {
			_, err = prog.Validate()
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %q", c.src, err, c.want)
		}
	}
	prog, err := Parse("ok", prelude+"control C() {\n Register<bit<32>>(4) r;\n apply {}\n}")
	if err != nil || len(prog.Ingress.Registers) != 1 || prog.Ingress.Registers[0].Bits != 32 {
		t.Errorf("nested bit<32>> closer: %v", err)
	}
}

// TestTokIsPointerFree: a token is offsets into the source, so the
// lexer's slice is small and the collector never scans it.
func TestTokIsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(tok{}); n > 24 {
		t.Errorf("tok is %d bytes", n)
	}
	typ := reflect.TypeOf(tok{})
	for i := range typ.NumField() {
		if k := typ.Field(i).Type.Kind(); k != reflect.Uint8 && k != reflect.Int32 {
			t.Errorf("tok.%s is a %s", typ.Field(i).Name, k)
		}
	}
}

// TestParseRequiresParserAndIngress: a program without a parser or an
// ingress control is refused with the line where the input ended,
// rather than returned for Print or the engines to dereference.
func TestParseRequiresParserAndIngress(t *testing.T) {
	cases := []struct{ src, want string }{
		{"", "bad: line 1: program has no parser"},
		{"header x_t {\n bit<8> f;\n}\n", "bad: line 4: program has no parser"},
		{"parser P() {\n state start { transition accept; }\n}", "bad: line 3: program has no ingress control"},
	}
	for _, c := range cases {
		_, err := Parse("bad", c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %q", c.src, err, c.want)
		}
	}
}

// TestParseRefusesUnknownHashAlgo: an algorithm outside HashAlgos is a
// positioned error, not a hash that silently runs as some other one.
func TestParseRefusesUnknownHashAlgo(t *testing.T) {
	const src = "parser P() { state start { transition accept; } }\ncontrol In() {\n Hash<bit<16>>(HashAlgorithm_t.CRC8) h;\n apply {}\n}\n"
	_, err := Parse("bad", src)
	if want := `bad: line 3: unknown hash algorithm "CRC8"`; err == nil || err.Error() != want {
		t.Errorf("Parse = %v, want %q", err, want)
	}
	for _, algo := range HashAlgos {
		if algo == "random" {
			continue
		}
		ok := strings.Replace(src, "CRC8", strings.ToUpper(algo), 1)
		if _, err := Parse("ok", ok); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
}

// TestParseStructEOF: a struct left open at the end of the input is a
// positioned error; Parse used to loop forever skipping to a ";".
func TestParseStructEOF(t *testing.T) {
	_, err := Parse("bad", "struct headers_t {\n ethernet_t ethernet")
	if want := "bad: line 2: unexpected EOF in struct headers_t"; err == nil || err.Error() != want {
		t.Errorf("Parse = %v, want %q", err, want)
	}
}
