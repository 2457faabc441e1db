package sema

import (
	"strings"
	"testing"

	"netcl/internal/lang"
)

func check(t *testing.T, src string) (*Program, *lang.Diagnostics) {
	t.Helper()
	var d lang.Diagnostics
	f := lang.ParseFile("test.ncl", src, nil, &d)
	if d.HasErrors() {
		t.Fatalf("parse errors:\n%s", d.String())
	}
	p := Check(f, &d)
	return p, &d
}

// KernelAt returns the kernel of computation comp placed at device id
// (a kernel with an empty location set matches any device), or nil.
func (p *Program) KernelAt(comp uint8, id uint16) *Function {
	for _, k := range p.Computations[comp] {
		if len(k.At) == 0 || k.At.Contains(id) {
			return k
		}
	}
	return nil
}

func checkOK(t *testing.T, src string) *Program {
	t.Helper()
	p, d := check(t, src)
	if d.HasErrors() {
		t.Fatalf("sema errors:\n%s", d.String())
	}
	return p
}

func checkErr(t *testing.T, src, wantSub string) {
	t.Helper()
	_, d := check(t, src)
	if !d.HasErrors() {
		t.Fatalf("expected error containing %q, got none", wantSub)
	}
	if !strings.Contains(d.String(), wantSub) {
		t.Fatalf("expected error containing %q, got:\n%s", wantSub, d.String())
	}
}

const fig4 = `
#define CMS_HASHES 3
#define THRESH 512
#define GET_REQ 1

_managed_ unsigned cms[CMS_HASHES][65536];

_net_ void sketch(unsigned k, unsigned &hot) {
  unsigned c[CMS_HASHES];
  c[0] = ncl::atomic_sadd_new(&cms[0][ncl::xor16(k)], 1);
  c[1] = ncl::atomic_sadd_new(&cms[1][ncl::crc32<16>(k)], 1);
  c[2] = ncl::atomic_sadd_new(&cms[2][ncl::crc16(k)], 1);
  for (auto i = 1; i < CMS_HASHES; ++i)
    if (c[i] < c[0]) c[0] = c[i];
  hot = c[0] > THRESH ? c[0] : 0;
}

_net_ _lookup_ ncl::kv<unsigned, unsigned> cache[] = {{1,42}, {2,42},
                                                      {3,42}, {4,42}};

_kernel(1) _at(1) void query(char op, unsigned k, unsigned &v,
                             char &hit, unsigned &hot) {
  if (op == GET_REQ) {
    hit = ncl::lookup(cache, k, v);
    return hit ? ncl::reflect() : sketch(k, hot);
  }
}
`

func TestCheckFig4(t *testing.T) {
	p := checkOK(t, fig4)
	if len(p.Globals) != 2 {
		t.Fatalf("globals: got %d, want 2", len(p.Globals))
	}
	cms := p.GlobalByName("cms")
	if cms == nil || !cms.Managed || len(cms.Dims) != 2 || cms.Dims[0] != 3 || cms.Dims[1] != 65536 {
		t.Fatalf("cms: %+v", cms)
	}
	cache := p.GlobalByName("cache")
	if cache == nil || !cache.Lookup || cache.Dims[0] != 4 {
		t.Fatalf("cache: %+v", cache)
	}
	kv, ok := cache.Elem.(*KV)
	if !ok || kv.K != U32Type || kv.V != U32Type {
		t.Fatalf("cache elem: %v", cache.Elem)
	}
	q := p.FuncByName("query")
	if q == nil || !q.Kernel || q.Comp != 1 || !q.At.Contains(1) {
		t.Fatalf("query: %+v", q)
	}
	spec := q.Spec()
	wantCounts := []int{1, 1, 1, 1, 1}
	for i, c := range wantCounts {
		if spec.Counts[i] != c {
			t.Errorf("spec count %d: got %d, want %d", i, spec.Counts[i], c)
		}
	}
	if spec.Types[0] != I8Type || spec.Types[1] != U32Type {
		t.Errorf("spec types: %v", spec.Types)
	}
	if spec.Dirs[2] != ByRef || spec.Dirs[0] != ByVal {
		t.Errorf("spec dirs: %v", spec.Dirs)
	}
	if q.Spec().Bytes() != 1+4+4+1+4 {
		t.Errorf("spec bytes: got %d", q.Spec().Bytes())
	}
}

func TestCheckSpecExamples(t *testing.T) {
	// The four example kernels of §V-A.
	p := checkOK(t, `
_kernel(1) void a(int x[3]) {}
_kernel(2) void b(int x[4]) {}
_kernel(3) void c(int _spec(4) *x) {}
_kernel(4) void d(int x, int y[2], int *z) {}
`)
	a := p.FuncByName("a").Spec()
	b := p.FuncByName("b").Spec()
	cc := p.FuncByName("c").Spec()
	dd := p.FuncByName("d").Spec()
	if a.Equal(b) {
		t.Error("a [3][int] should differ from b [4][int] (no decay)")
	}
	if !b.Equal(cc) {
		t.Error("b and c should have matching specifications")
	}
	if got := dd.String(); got != "[1,2,1][i32,i32,i32]" {
		t.Errorf("d spec: %s", got)
	}
}

func TestCheckSpecMismatchSameComputation(t *testing.T) {
	checkErr(t, `
_kernel(1) _at(1) void a(int x[3]) {}
_kernel(1) _at(2) void b(int x[4]) {}
`, "specification")
}

func TestCheckPlacementEq1(t *testing.T) {
	// Paper §V-C examples: kernel b invalid because a exists for the
	// same computation without disjoint explicit locations.
	checkErr(t, `
_net_ _at(1,2) int m[42];
_kernel(1) _at(1,2) void a(int x) { m[0] = 1; }
_kernel(1) void b(int x) {}
`, "placement is ambiguous")

	checkErr(t, `
_kernel(1) _at(1,2) void a(int x) {}
_kernel(1) _at(2,3) void b(int x) {}
`, "overlapping locations")

	checkOK(t, `
_kernel(1) _at(1) void a(int x) {}
_kernel(1) _at(2) void b(int x) {}
`)
}

func TestCheckReferenceEq2(t *testing.T) {
	// m is placed at 1,2 only; a location-less kernel is everywhere,
	// so the reference is invalid (paper example).
	checkErr(t, `
_net_ _at(1,2) int m[42];
_kernel(2) void c(int x) { m[0] = 42; }
`, "placed only at")

	checkOK(t, `
_net_ _at(1,2) int m[42];
_kernel(1) _at(1,2) void a(int x) { m[0] = 1; }
`)

	checkOK(t, `
_net_ int m[42];
_kernel(1) _at(7) void a(int x) { m[0] = 1; }
`)

	checkErr(t, `
_at(3) _net_ void helper(int x) {}
_kernel(1) _at(1) void a(int x) { helper(x); }
`, "placed only at")
}

func TestCheckRecursionRejected(t *testing.T) {
	checkErr(t, `
_net_ void f(int x) { g(x); }
_net_ void g(int x) { f(x); }
_kernel(1) void k(int x) { f(x); }
`, "recursion")
}

func TestCheckKernelMustReturnVoid(t *testing.T) {
	checkErr(t, `_kernel(1) int k(int x) { return 1; }`, "must return void")
}

func TestCheckActionOnlyInReturn(t *testing.T) {
	checkErr(t, `_kernel(1) void k(int x) { ncl::drop(); }`, "return statement")
	checkOK(t, `_kernel(1) void k(int x) { if (x) return ncl::drop(); return ncl::pass(); }`)
	checkOK(t, `_kernel(1) void k(int x) { return ncl::send_to_host(2); }`)
}

func TestCheckActionInNetFunctionRejected(t *testing.T) {
	checkErr(t, `_net_ void f(int x) { return ncl::drop(); }`, "inside kernels")
}

func TestCheckLookupTypes(t *testing.T) {
	// Scalar set membership.
	checkOK(t, `
_net_ _lookup_ unsigned a[] = {1,2,3};
_kernel(1) void k(unsigned x, char &r) { r = ncl::lookup(a, x); }
`)
	// kv map with output.
	checkOK(t, `
_net_ _lookup_ ncl::kv<int,int> a[] = { {1,2}, {2,3} };
_kernel(1) void k(int x, int &v, char &r) { r = ncl::lookup(a, x, v); }
`)
	// rv range map.
	checkOK(t, `
_net_ _lookup_ ncl::rv<int,int> b[] = { {{1,10},1}, {{11,20},2} };
_kernel(1) void k(int x, int &v, char &r) { r = ncl::lookup(b, x, v); }
`)
	// Set lookup takes no output argument.
	checkErr(t, `
_net_ _lookup_ unsigned a[] = {1,2,3};
_kernel(1) void k(unsigned x, unsigned &v) { char r = ncl::lookup(a, x, v); }
`, "no output argument")
	// Non-lookup array.
	checkErr(t, `
_net_ unsigned a[4];
_kernel(1) void k(unsigned x) { char r = ncl::lookup(a, x); }
`, "not a _lookup_ array")
}

func TestCheckLookupReadOnlyInDeviceCode(t *testing.T) {
	checkErr(t, `
_net_ _lookup_ ncl::kv<int,int> a[] = { {1,2} };
_kernel(1) void k(int x) { a[0] = 1; }
`, "read-only")
}

func TestCheckPointerArithmeticRejected(t *testing.T) {
	checkErr(t, `_kernel(1) void k(int _spec(4) *v) { int x = v[0]; v = v; }`, "pointer parameter")
}

func TestCheckAtomicArgForms(t *testing.T) {
	// Both &G[i] and bare G[i] forms (the paper uses both).
	checkOK(t, `
_net_ unsigned Agg[8][16];
_net_ unsigned Count[16];
_kernel(1) void k(unsigned i, unsigned x, unsigned &o) {
  o = ncl::atomic_cond_add_new(Agg[0][i], x != 0, x);
  o = ncl::atomic_cond_dec(&Count[i], x != 0);
}
`)
	checkErr(t, `
_kernel(1) void k(unsigned x) { unsigned o = ncl::atomic_add(&x, 1); }
`, "global memory element")
}

func TestCheckDeviceAndMsgBuiltins(t *testing.T) {
	p := checkOK(t, `
_kernel(1) void k(unsigned &x) {
  if (device.id == 2) { x = msg.src; }
}
`)
	if p == nil {
		t.Fatal("nil program")
	}
	checkErr(t, `_kernel(1) void k(unsigned x) { unsigned y = device.port; }`, "unknown field")
}

func TestCheckAutoDeduction(t *testing.T) {
	p := checkOK(t, `
_net_ uint16_t Bitmap[16];
_kernel(1) void k(uint16_t mask, uint16_t i) {
  auto bitmap = ncl::atomic_or(&Bitmap[i], mask);
  auto seen = bitmap & mask;
}
`)
	k := p.FuncByName("k")
	if k == nil {
		t.Fatal("kernel not found")
	}
	var locals []*Local
	for _, l := range p.LocalOf {
		locals = append(locals, l)
	}
	if len(locals) != 2 {
		t.Fatalf("locals: got %d, want 2", len(locals))
	}
	for _, l := range locals {
		if l.Elem != U16Type {
			t.Errorf("local %s: deduced %s, want u16", l.Name(), l.Elem)
		}
	}
}

func TestCheckConstDecl(t *testing.T) {
	p := checkOK(t, `
const unsigned THRESH = 256 * 2;
_net_ unsigned m[THRESH];
_kernel(1) void k(unsigned x, char &hot) { hot = x > THRESH; }
`)
	if p.Consts["THRESH"].Val != 512 {
		t.Errorf("THRESH: got %d", p.Consts["THRESH"].Val)
	}
	if p.GlobalByName("m").Dims[0] != 512 {
		t.Errorf("m dim: got %d", p.GlobalByName("m").Dims[0])
	}
}

func TestCheckComputationAndLocations(t *testing.T) {
	p := checkOK(t, `
_at(10) _net_ uint32_t Instance;
_at(20) _net_ uint8_t VoteHistory[65536];
_at(10) _kernel(1) void leader(uint8_t t) {}
_at(20) _kernel(1) void learner(uint8_t t) {}
_at(30) _kernel(1) void acceptor(uint8_t t) {}
`)
	locs := p.Locations()
	if len(locs) != 3 || locs[0] != 10 || locs[1] != 20 || locs[2] != 30 {
		t.Errorf("locations: %v", locs)
	}
	if k := p.KernelAt(1, 20); k == nil || k.Name() != "learner" {
		t.Errorf("KernelAt(1,20): %v", k)
	}
	if k := p.KernelAt(1, 99); k != nil {
		t.Errorf("KernelAt(1,99) should be nil, got %s", k.Name())
	}
}

func TestCheckUndeclared(t *testing.T) {
	checkErr(t, `_kernel(1) void k(int x) { y = x; }`, "undeclared")
}

func TestCheckGlobalRequiresSpecifier(t *testing.T) {
	checkErr(t, `int g;`, "_net_ or _managed_")
}

func TestCheckKvRequiresLookup(t *testing.T) {
	checkErr(t, `_net_ ncl::kv<int,int> a[4];`, "_lookup_")
}

func TestCheckBreakRejected(t *testing.T) {
	checkErr(t, `_kernel(1) void k(int x) { for (int i = 0; i < 4; ++i) { break; } }`, "break")
}

func TestEvalConstBasics(t *testing.T) {
	var d lang.Diagnostics
	cases := []struct {
		src  string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"1 << 10", 1024},
		{"~0 & 0xFF", 255},
		{"10 / 3", 3},
		{"10 % 3", 1},
		{"1 < 2 ? 5 : 6", 5},
		{"!0", 1},
		{"-(4)", -4},
		{"1 == 1 && 2 != 3", 1},
	}
	for _, c := range cases {
		p := lang.NewParser("t", c.src, nil, &d)
		e := p.Expr()
		got, err := EvalConst(e, nil)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("%q: got %d, want %d", c.src, got, c.want)
		}
	}
}

func TestEvalConstErrors(t *testing.T) {
	var d lang.Diagnostics
	for _, src := range []string{"x + 1", "1 / 0", "1 % 0", "1 << 99"} {
		p := lang.NewParser("t", src, nil, &d)
		e := p.Expr()
		if _, err := EvalConst(e, nil); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestCheckMiscErrors(t *testing.T) {
	checkErr(t, `_net_ int x; _net_ int x;`, "redeclaration")
	checkErr(t, `_net_ void f(int a) {} _net_ void f(int a) {}`, "redeclaration")
	checkErr(t, `_kernel(1) _net_ void k(int x) {}`, "cannot be both")
	checkErr(t, `void f(int x) {}`, "_kernel(c) or _net_")
	checkErr(t, `_kernel(1) void k(int m[2][2]) {}`, "multi-dimensional")
	checkErr(t, `_kernel(300) void k(int x) {}`, "out of range")
	checkErr(t, `_at(99999) _kernel(1) void k(int x) {}`, "out of range")
	checkErr(t, `_net_ int a[0];`, "must be positive")
	checkErr(t, `_managed_ void v;`, "not a valid memory element type")
	checkErr(t, `_kernel(1) void k(void x) {}`, "fundamental scalar")
	checkErr(t, `_kernel(1) void k(int &x[3]) {}`, "cannot have array dimensions")
	checkErr(t, `_kernel(1) void k(int x) { int y[2]; y = x; }`, "not assignable as a whole")
	checkErr(t, `_kernel(1) void k(int x) { device = 1; }`, "")
	checkErr(t, `const int NO_INIT;`, "requires an initializer")
	checkErr(t, `_net_ _lookup_ int s;`, "arrays only")
	checkErr(t, `_kernel(1) void k(int x) { unsigned y = ncl::crc16(); }`, "arguments")
}

func TestCheckConditionalAtomicsTyping(t *testing.T) {
	p := checkOK(t, `
_net_ uint8_t C[4];
_kernel(1) void k(unsigned i, uint8_t &old, uint8_t &nw) {
  old = ncl::atomic_cas(&C[i & 3], 0, 1);
  nw  = ncl::atomic_cond_sadd_new(&C[i & 3], i > 2, 5);
}
`)
	if p == nil {
		t.Fatal("nil program")
	}
}

// TestCheckIdentityTakesArgumentType: identity without a width has its
// first argument's type; a width argument still sets the result.
func TestCheckIdentityTakesArgumentType(t *testing.T) {
	p := checkOK(t, `
_kernel(1) void k(uint64_t a, uint16_t b) {
  auto h = ncl::identity(a);
  auto g = ncl::identity(b, a);
  auto w = ncl::identity<8>(a);
}
`)
	want := map[string]*Basic{"h": U64Type, "g": U16Type, "w": U8Type}
	for _, l := range p.LocalOf {
		if l.Elem != want[l.Name()] {
			t.Errorf("%s: %s, want %s", l.Name(), l.Elem, want[l.Name()])
		}
	}
}
