package lower

import (
	"strings"
	"testing"

	"netcl/internal/ir"
	"netcl/internal/lang"
	"netcl/internal/sema"
)

func lowerSrc(t *testing.T, src string, dev uint16) *ir.Module {
	t.Helper()
	var d lang.Diagnostics
	f := lang.ParseFile("test.ncl", src, nil, &d)
	if d.HasErrors() {
		t.Fatalf("parse: %s", d.String())
	}
	prog := sema.Check(f, &d)
	if d.HasErrors() {
		t.Fatalf("sema: %s", d.String())
	}
	mod := Module(prog, dev, Options{}, &d)
	if d.HasErrors() {
		t.Fatalf("lower: %s", d.String())
	}
	if mod == nil {
		t.Fatal("nil module")
	}
	return mod
}

func lowerErr(t *testing.T, src string, wantSub string) {
	t.Helper()
	var d lang.Diagnostics
	f := lang.ParseFile("test.ncl", src, nil, &d)
	prog := sema.Check(f, &d)
	if d.HasErrors() {
		t.Fatalf("pre-lower errors: %s", d.String())
	}
	Module(prog, 1, Options{}, &d)
	if !d.HasErrors() {
		t.Fatalf("expected lowering error containing %q", wantSub)
	}
	if !strings.Contains(d.String(), wantSub) {
		t.Fatalf("want error with %q, got:\n%s", wantSub, d.String())
	}
}

func countOps(m *ir.Module, op ir.Op) int {
	n := 0
	for _, f := range m.Funcs {
		f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
			if i.Op == op {
				n++
			}
			return true
		})
	}
	return n
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

func TestLowerFig4(t *testing.T) {
	mod := lowerSrc(t, fig4, 1)
	if len(mod.Funcs) != 1 {
		t.Fatalf("funcs: %d", len(mod.Funcs))
	}
	fn := mod.Funcs[0]
	if fn.Name != "query" || fn.Comp != 1 {
		t.Fatalf("kernel: %s comp=%d", fn.Name, fn.Comp)
	}
	if len(fn.Params) != 5 {
		t.Fatalf("params: %d", len(fn.Params))
	}
	// Message layout: op(1) k(4) v(4) hit(1) hot(4).
	if fn.Params[1].Offset != 1 || fn.Params[4].Offset != 10 {
		t.Errorf("offsets: k=%d hot=%d", fn.Params[1].Offset, fn.Params[4].Offset)
	}
	// The sketch net function is inlined: three saturating atomics.
	if n := countOps(mod, ir.OpAtomicRMW); n != 3 {
		t.Errorf("atomics: got %d, want 3 (inlined sketch)", n)
	}
	if n := countOps(mod, ir.OpLookup); n != 1 {
		t.Errorf("lookups: got %d, want 1", n)
	}
	if n := countOps(mod, ir.OpHash); n != 3 {
		t.Errorf("hashes: got %d, want 3", n)
	}
	// Memories present on this device.
	if memByName(mod, "cms") == nil || memByName(mod, "cache") == nil {
		t.Error("missing memories")
	}
	for _, f := range mod.Funcs {
		if err := ir.Verify(f); err != nil {
			t.Errorf("verify: %v", err)
		}
	}
}

func TestLowerDeviceFiltering(t *testing.T) {
	src := `
_at(10) _net_ uint32_t A;
_at(20) _net_ uint32_t B;
_at(10) _kernel(1) void ka(uint32_t &x) { x = A; }
_at(20) _kernel(1) void kb(uint32_t &x) { x = B; }
`
	mod := lowerSrc(t, src, 10)
	if len(mod.Funcs) != 1 || mod.Funcs[0].Name != "ka" {
		t.Fatalf("device 10 should only get ka: %v", mod.Funcs)
	}
	if memByName(mod, "A") == nil || memByName(mod, "B") != nil {
		t.Error("device 10 should have A only")
	}
}

func TestLowerDeviceIDMaterialized(t *testing.T) {
	src := `_kernel(1) void k(uint16_t &x) { x = device.id; }`
	mod := lowerSrc(t, src, 7)
	// The store to x must use the constant 7 directly.
	found := false
	mod.Funcs[0].Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpStoreMsg {
			if c, ok := i.Args[1].(*ir.Const); ok && c.Val == 7 {
				found = true
			}
		}
		return true
	})
	if !found {
		t.Errorf("device.id not materialized:\n%s", mod.Funcs[0])
	}
}

func TestLowerUnrollCounts(t *testing.T) {
	src := `
_net_ uint32_t M[8][64];
_kernel(1) void k(uint32_t idx, uint32_t _spec(8) *v) {
  for (auto i = 0; i < 8; ++i)
    v[i] = ncl::atomic_add(&M[i][idx], v[i]);
}
`
	mod := lowerSrc(t, src, 1)
	if n := countOps(mod, ir.OpAtomicRMW); n != 8 {
		t.Errorf("unroll: got %d atomics, want 8", n)
	}
	// Loop induction variable is constant per iteration: first index of
	// each atomic is a constant.
	mod.Funcs[0].Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpAtomicRMW {
			if _, ok := i.Args[0].(*ir.Const); !ok {
				t.Errorf("outer index not constant: %s", i)
			}
		}
		return true
	})
}

func TestLowerUnrollDownCounting(t *testing.T) {
	src := `
_kernel(1) void k(uint32_t &x) {
  uint32_t acc = 0;
  for (int i = 4; i > 0; --i) acc = acc + i;
  x = acc;
}
`
	mod := lowerSrc(t, src, 1)
	if mod == nil {
		t.Fatal("nil")
	}
}

func TestLowerUnrollErrors(t *testing.T) {
	lowerErr(t, `
_kernel(1) void k(uint32_t n, uint32_t &x) {
  for (auto i = 0; i < n; ++i) x = x + i;
}
`, "not compile-time evaluable")

	lowerErr(t, `
_kernel(1) void k(uint32_t &x) {
  for (auto i = 0; i < 4; ++i) { i = 2; x = x + i; }
}
`, "modifies induction variable")

	lowerErr(t, `
_kernel(1) void k(uint32_t n, uint32_t &x) {
  while (n > 0) { x = x + 1; }
}
`, "cannot unroll while")
}

func TestLowerUnrollLimit(t *testing.T) {
	var d lang.Diagnostics
	f := lang.ParseFile("t", `
_kernel(1) void k(uint32_t &x) {
  for (auto i = 0; i < 100000; ++i) x = x + 1;
}
`, nil, &d)
	prog := sema.Check(f, &d)
	Module(prog, 1, Options{MaxUnroll: 64}, &d)
	if !d.HasErrors() || !strings.Contains(d.String(), "unroll limit") {
		t.Fatalf("expected unroll-limit error, got: %s", d.String())
	}
}

func TestLowerTernaryActionReturn(t *testing.T) {
	src := `_kernel(1) void k(char hit) { return hit ? ncl::reflect() : ncl::drop(); }`
	mod := lowerSrc(t, src, 1)
	kinds := map[ir.ActionKind]int{}
	mod.Funcs[0].Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpRetAction {
			kinds[i.ActionKind]++
		}
		return true
	})
	if kinds[ir.ActReflect] != 1 || kinds[ir.ActDrop] != 1 {
		t.Errorf("actions: %v", kinds)
	}
}

func TestLowerImplicitPass(t *testing.T) {
	src := `_kernel(1) void k(char op, uint32_t &v) { if (op == 1) { v = 42; return ncl::drop(); } }`
	mod := lowerSrc(t, src, 1)
	pass := 0
	mod.Funcs[0].Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpRetAction && i.ActionKind == ir.ActPass {
			pass++
		}
		return true
	})
	if pass == 0 {
		t.Error("implicit pass() missing")
	}
}

func TestLowerNetFunctionReturnValue(t *testing.T) {
	src := `
_net_ uint32_t helper(uint32_t a, uint32_t b) {
  if (a > b) return a - b;
  return b - a;
}
_kernel(1) void k(uint32_t a, uint32_t b, uint32_t &out) {
  out = helper(a, b) + helper(b, a);
}
`
	mod := lowerSrc(t, src, 1)
	for _, f := range mod.Funcs {
		if err := ir.Verify(f); err != nil {
			t.Fatalf("verify: %v\n%s", err, f)
		}
	}
}

func TestLowerByValIsDeviceLocal(t *testing.T) {
	// Writing a by-value param must not produce a StoreMsg.
	src := `_kernel(1) void k(uint32_t x, uint32_t &out) { x = x + 1; out = x; }`
	mod := lowerSrc(t, src, 1)
	mod.Funcs[0].Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpStoreMsg && i.Param.Name == "x" {
			t.Error("by-value parameter written to the message")
		}
		return true
	})
}

func TestLowerMultiDimFlattening(t *testing.T) {
	src := `
_kernel(1) void k(uint32_t i, uint32_t &out) {
  uint32_t a[2][3];
  a[1][2] = 7;
  out = a[1][2];
}
`
	mod := lowerSrc(t, src, 1)
	// Flattened: 1*3+2 = 5.
	found := false
	mod.Funcs[0].Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpStore {
			if c, ok := i.Args[1].(*ir.Const); ok && c.Val == 5 {
				found = true
			}
		}
		return true
	})
	if !found {
		t.Errorf("expected flattened index 5:\n%s", mod.Funcs[0])
	}
}

func TestLowerLookupWithOutput(t *testing.T) {
	src := `
_net_ _lookup_ ncl::kv<unsigned, unsigned> m[] = {{1,10},{2,20}};
_kernel(1) void k(unsigned key, unsigned &v, char &hit) {
  hit = ncl::lookup(m, key, v);
}
`
	mod := lowerSrc(t, src, 1)
	if countOps(mod, ir.OpLookup) != 1 || countOps(mod, ir.OpLookupVal) != 1 {
		t.Error("lookup/lookupval pair expected")
	}
	if countOps(mod, ir.OpSelect) != 1 {
		t.Error("miss-preserving select expected")
	}
	m := memByName(mod, "m")
	if m.LKind != ir.LookupExact || len(m.Init) != 4 {
		t.Errorf("mem: %+v", m)
	}
}

// TestLowerUnrollStepsAtDeclaredType: a uint8_t induction variable
// wraps at 8 bits, so 250 + 10 is 4 and the loop runs once.
func TestLowerUnrollStepsAtDeclaredType(t *testing.T) {
	mod := lowerSrc(t, `
_kernel(1) void k(uint32_t &x) {
  for (uint8_t i = 250; i != 4; i += 10) x = x + 1;
}
`, 1)
	if n := countOps(mod, ir.OpStoreMsg); n != 1 {
		t.Errorf("loop body lowered %d times, want 1", n)
	}
}

// TestLowerUnrollCondAtDeclaredType: the loop condition compares at the
// induction variable's declared type, as C does. For a uint32_t i,
// -1 converts to 0xFFFFFFFF, so i > -1 never holds and the body is
// never lowered; for an int32_t i the same loop runs four times.
func TestLowerUnrollCondAtDeclaredType(t *testing.T) {
	for _, c := range []struct {
		loop string
		want int
	}{
		{"for (uint32_t i = 1; i > -1; i--) x = x + 1;", 0},
		{"for (int32_t i = 3; i > -1; i--) x = x + 1;", 4},
	} {
		mod := lowerSrc(t, "_kernel(1) void k(uint32_t &x) {\n  "+c.loop+"\n}\n", 1)
		if n := countOps(mod, ir.OpStoreMsg); n != c.want {
			t.Errorf("%s: body lowered %d times, want %d", c.loop, n, c.want)
		}
	}
}

// memByName finds a memory object of mod.
func memByName(mod *ir.Module, name string) *ir.MemRef {
	for _, g := range mod.Mems {
		if g.Name == name {
			return g
		}
	}
	return nil
}
