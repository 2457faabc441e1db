package codegen

import (
	"strings"
	"testing"

	"netcl/internal/ir"
	"netcl/internal/lang"
	"netcl/internal/lower"
	"netcl/internal/p4"
	"netcl/internal/passes"
	"netcl/internal/sema"
)

func gen(t *testing.T, src string, target p4.Target) *p4.Program {
	t.Helper()
	var d lang.Diagnostics
	f := lang.ParseFile("t.ncl", src, nil, &d)
	prog := sema.Check(f, &d)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	mod := lower.Module(prog, 1, lower.Options{}, &d)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := passes.Run(mod, passes.DefaultOptions(passes.Target(target))); err != nil {
		t.Fatal(err)
	}
	out, err := Generate(mod, Options{Target: target})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.Validate(); err != nil {
		t.Fatalf("invalid program: %v", err)
	}
	return out
}

func TestBaseProgramSkeleton(t *testing.T) {
	prog := gen(t, `_kernel(1) void k(unsigned x) {}`, p4.TargetTNA)
	for _, h := range []string{"ethernet", "ipv4", "udp", "netcl", "d1"} {
		if prog.HeaderByName(h) == nil {
			t.Errorf("missing header %s", h)
		}
	}
	for _, st := range []string{"start", "parse_ethernet", "parse_ipv4", "parse_udp", "parse_netcl", "parse_d1"} {
		if prog.Parser.StateByName(st) == nil {
			t.Errorf("missing parser state %s", st)
		}
	}
	for _, tbl := range []string{"netcl_fwd", "l2_fwd"} {
		if prog.Ingress.TableByName(tbl) == nil {
			t.Errorf("missing base table %s", tbl)
		}
	}
}

func TestMultiComputationDispatch(t *testing.T) {
	prog := gen(t, `
_kernel(1) void inc(unsigned &x) { x = x + 1; return ncl::reflect(); }
_kernel(2) void dbl(unsigned &y, unsigned &z) { y = y * 2; z = y; return ncl::reflect(); }
`, p4.TargetTNA)
	if prog.HeaderByName("d1") == nil || prog.HeaderByName("d2") == nil {
		t.Fatal("one data header per computation expected")
	}
	src := p4.Print(prog)
	if !strings.Contains(src, "hdr.netcl.comp == 8w1") || !strings.Contains(src, "hdr.netcl.comp == 8w2") {
		t.Error("computation dispatch switch missing")
	}
	// Parser must select the right data header per computation.
	st := prog.Parser.StateByName("parse_netcl")
	if st == nil || st.Select == nil || len(st.Select.Cases) != 2 {
		t.Error("parse_netcl select incomplete")
	}
}

func TestRegisterActionPerAtomic(t *testing.T) {
	prog := gen(t, `
_net_ unsigned C[8];
_kernel(1) void k(unsigned i, unsigned &a, unsigned &b) {
  if (i > 4) { a = ncl::atomic_add_new(&C[i & 7], 1); }
  else       { b = ncl::atomic_ssub_new(&C[i & 7], 1); }
}
`, p4.TargetTNA)
	if len(prog.Ingress.RegActs) != 2 {
		t.Errorf("register actions: %d, want 2 (one per access)", len(prog.Ingress.RegActs))
	}
	if prog.Ingress.RegisterByName("reg_C") == nil {
		t.Error("register missing")
	}
}

func TestV1ModelHasNoTNAConstructs(t *testing.T) {
	prog := gen(t, `
_net_ unsigned C[8];
_kernel(1) void k(unsigned i, unsigned &a) { a = ncl::atomic_add_new(&C[i & 7], 1); }
`, p4.TargetV1Model)
	if len(prog.Ingress.RegActs) != 0 {
		t.Error("v1model must not emit RegisterActions")
	}
	src := p4.Print(prog)
	if !strings.Contains(src, "reg_C.read(") || !strings.Contains(src, "reg_C.write(") {
		t.Error("v1model register primitives missing")
	}
}

func TestDynamicIndexTables(t *testing.T) {
	prog := gen(t, `
_kernel(1) void k(unsigned i, unsigned _spec(4) *v, unsigned &out) {
  out = v[i & 3];
}
`, p4.TargetTNA)
	found := false
	for _, tbl := range prog.Ingress.Tables {
		if strings.HasPrefix(tbl.Name, "idx_r") {
			found = true
			if len(tbl.Entries) != 4 {
				t.Errorf("index table entries: %d", len(tbl.Entries))
			}
		}
	}
	if !found {
		t.Error("dynamic access should emit an index table (paper Fig. 9)")
	}
}

func TestCLZEmitsLPMTable(t *testing.T) {
	prog := gen(t, `
_kernel(1) void k(unsigned x, unsigned &n) { n = ncl::clz(x); }
`, p4.TargetTNA)
	found := false
	for _, tbl := range prog.Ingress.Tables {
		if strings.HasPrefix(tbl.Name, "clz") {
			found = true
			if tbl.Keys[0].Match != p4.MatchLPM {
				t.Error("clz table should be LPM-matched")
			}
			if len(tbl.Entries) != 32 {
				t.Errorf("clz entries: %d", len(tbl.Entries))
			}
		}
	}
	if !found {
		t.Error("clz should lower to an LPM table (§VI-B)")
	}
}

func TestTargetIntrinsicRejection(t *testing.T) {
	var d lang.Diagnostics
	f := lang.ParseFile("t.ncl", `
_kernel(1) void k(unsigned x, uint64_t &h) { h = ncl::tna::crc64(x); }
`, nil, &d)
	prog := sema.Check(f, &d)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	mod := lower.Module(prog, 1, lower.Options{}, &d)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := passes.Run(mod, passes.DefaultOptions(passes.TargetV1Model)); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(mod, Options{Target: p4.TargetV1Model}); err == nil {
		t.Error("tna intrinsic must be rejected on v1model")
	} else if !strings.Contains(err.Error(), "not available on target") {
		t.Errorf("wrong error: %v", err)
	}
}

func TestLookupDuplicationRequired(t *testing.T) {
	var d lang.Diagnostics
	f := lang.ParseFile("t.ncl", `
_net_ _lookup_ ncl::kv<unsigned,unsigned> tbl[8];
_kernel(1) void k(unsigned a, unsigned b, unsigned &x) {
  unsigned v = 0;
  if (a > b) { ncl::lookup(tbl, a, v); }
  else       { ncl::lookup(tbl, b, v); }
  x = v;
}
`, nil, &d)
	prog := sema.Check(f, &d)
	mod := lower.Module(prog, 1, lower.Options{}, &d)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	opts := passes.DefaultOptions(passes.TargetTNA)
	opts.DuplicateLookups = false
	if _, err := passes.Run(mod, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(mod, Options{Target: p4.TargetTNA}); err == nil {
		t.Error("two accesses without duplication must fail code generation")
	}
}

func TestSinkingIntoHeaderFields(t *testing.T) {
	prog := gen(t, `
_net_ unsigned C[8];
_kernel(1) void k(unsigned i, unsigned &out) {
  out = ncl::atomic_add_new(&C[i & 7], 1);
  return ncl::reflect();
}
`, p4.TargetTNA)
	src := p4.Print(prog)
	if !strings.Contains(src, "hdr.d1.out = ra_C") {
		t.Errorf("atomic result should sink into the header field:\n%s", src)
	}
}

func TestEveryActionKindLowers(t *testing.T) {
	prog := gen(t, `
_kernel(1) void k(uint8_t a, uint16_t h) {
  if (a == 0) return ncl::drop();
  if (a == 1) return ncl::send_to_host(h);
  if (a == 2) return ncl::send_to_device(7);
  if (a == 3) return ncl::multicast(12);
  if (a == 4) return ncl::reflect();
  if (a == 5) return ncl::reflect_long();
  return ncl::pass();
}
`, p4.TargetTNA)
	src := p4.Print(prog)
	for code := 0; code <= 6; code++ {
		if !strings.Contains(src, "hdr.netcl.act = 8w"+string(rune('0'+code))) {
			t.Errorf("action code %d not emitted", code)
		}
	}
}

func TestGeneratedIRHasNoPhis(t *testing.T) {
	// Safety net: codegen assumes φ-free input.
	var d lang.Diagnostics
	f := lang.ParseFile("t.ncl", `
_kernel(1) void k(unsigned a, unsigned b, unsigned &x) {
  unsigned v = a;
  if (a > b) v = b;
  x = v;
}
`, nil, &d)
	prog := sema.Check(f, &d)
	mod := lower.Module(prog, 1, lower.Options{}, &d)
	if _, err := passes.Run(mod, passes.DefaultOptions(passes.TargetTNA)); err != nil {
		t.Fatal(err)
	}
	mod.Funcs[0].Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpPhi {
			t.Errorf("phi reached codegen: %s", i)
		}
		return true
	})
}
