package passes

import (
	"fmt"
	"strings"
	"testing"

	"netcl/internal/ir"
	"netcl/internal/lang"
	"netcl/internal/lower"
	"netcl/internal/sema"
)

func buildModule(t *testing.T, src string, dev uint16, defs map[string]uint64) *ir.Module {
	t.Helper()
	var d lang.Diagnostics
	f := lang.ParseFile("test.ncl", src, defs, &d)
	if d.HasErrors() {
		t.Fatalf("parse: %s", d.String())
	}
	prog := sema.Check(f, &d)
	if d.HasErrors() {
		t.Fatalf("sema: %s", d.String())
	}
	mod := lower.Module(prog, dev, lower.Options{}, &d)
	if d.HasErrors() || mod == nil {
		t.Fatalf("lower: %s", d.String())
	}
	return mod
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

// fig7 is the reliable AllReduce kernel of the paper (Figure 7), with
// small sizes so tests stay fast.
const fig7 = `
#define NUM_SLOTS 16
#define SLOT_SIZE 4
#define NUM_WORKERS 4

_net_ uint16_t Bitmap[2][NUM_SLOTS];
_net_ uint32_t Agg[SLOT_SIZE][NUM_SLOTS * 2];
_net_ uint8_t Count[NUM_SLOTS * 2];

_kernel(1) void allreduce( uint8_t ver, uint16_t bmp_idx,
                           uint16_t agg_idx, uint16_t mask,
                           uint32_t _spec(SLOT_SIZE) *v) {
  uint16_t bitmap;
  if (ver == 0) {
    bitmap = ncl::atomic_or(&Bitmap[0][bmp_idx], mask);
    ncl::atomic_and(&Bitmap[1][bmp_idx], ~mask);
  } else {
    ncl::atomic_and(&Bitmap[0][bmp_idx], ~mask);
    bitmap = ncl::atomic_or(&Bitmap[1][bmp_idx], mask);
  }

  if (bitmap == 0) {
    for (auto i = 0; i < SLOT_SIZE; ++i)
      Agg[i][agg_idx] = v[i];
    Count[agg_idx] = NUM_WORKERS - 1;
  } else {
    auto seen = bitmap & mask;
    for (auto i = 0; i < SLOT_SIZE; ++i)
      v[i] = ncl::atomic_cond_add_new(&Agg[i][agg_idx], !seen, v[i]);

    auto cnt = ncl::atomic_cond_dec(&Count[agg_idx], !seen);
    if (cnt == 0)
      return ncl::reflect();
    if (cnt == 1)
      return ncl::multicast(42);
  }
  return ncl::drop();
}
`

func TestPipelineFig7TNA(t *testing.T) {
	mod := buildModule(t, fig7, 1, nil)
	st, err := Run(mod, DefaultOptions(TargetTNA))
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	// Bitmap splits into 2, Agg splits into SLOT_SIZE=4.
	if st.MemPartitions != 2 {
		t.Errorf("partitions: got %d, want 2", st.MemPartitions)
	}
	for _, name := range []string{"Bitmap__0", "Bitmap__1", "Agg__0", "Agg__3", "Count"} {
		if memByName(mod, name) == nil {
			t.Errorf("missing partitioned memory %s", name)
		}
	}
	if memByName(mod, "Bitmap") != nil || memByName(mod, "Agg") != nil {
		t.Error("original arrays should be replaced by partitions")
	}
	// No φ-nodes may survive.
	if countOps(mod, ir.OpPhi) != 0 {
		t.Error("φ-nodes remain after pipeline")
	}
	for _, f := range mod.Funcs {
		if err := ir.Verify(f); err != nil {
			t.Errorf("verify: %v", err)
		}
	}
}

func TestPipelineFig7V1Model(t *testing.T) {
	mod := buildModule(t, fig7, 1, nil)
	st, err := Run(mod, DefaultOptions(TargetV1Model))
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	// v1model performs no partitioning.
	if st.MemPartitions != 0 {
		t.Errorf("v1model should not partition, got %d", st.MemPartitions)
	}
	if memByName(mod, "Bitmap") == nil {
		t.Error("Bitmap should be intact on v1model")
	}
	if countOps(mod, ir.OpPhi) != 0 {
		t.Error("φ-nodes remain")
	}
}

func TestMem2RegPromotesScalars(t *testing.T) {
	mod := buildModule(t, `
_kernel(1) void k(uint32_t a, uint32_t b, uint32_t &out) {
  uint32_t x = a;
  if (b > 10) { x = x + b; } else { x = x - b; }
  out = x;
}
`, 1, nil)
	f := mod.Funcs[0]
	Mem2Reg(f)
	phis := 0
	f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpPhi {
			phis++
		}
		if i.Op == ir.OpAlloca {
			t.Errorf("alloca survived mem2reg: %s", i)
		}
		return true
	})
	if phis != 1 {
		t.Errorf("phis: got %d, want 1", phis)
	}
}

func TestMem2RegKeepsDynamicArrays(t *testing.T) {
	mod := buildModule(t, `
_kernel(1) void k(uint32_t i, uint32_t &out) {
  uint32_t a[4];
  a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
  out = a[i];
}
`, 1, nil)
	f := mod.Funcs[0]
	Mem2Reg(f)
	allocas := 0
	f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpAlloca {
			allocas++
			if i.Count != 4 {
				t.Errorf("array alloca count: %d", i.Count)
			}
		}
		return true
	})
	if allocas != 1 {
		t.Errorf("dynamic array should remain in memory form, allocas=%d", allocas)
	}
}

func TestSimplifyFoldsUnrolledMin(t *testing.T) {
	// Constant folding should collapse a fully-constant computation.
	mod := buildModule(t, `
_kernel(1) void k(uint32_t &out) {
  uint32_t x = 0;
  for (auto i = 1; i <= 4; ++i) x = x + i;
  out = x;
}
`, 1, nil)
	f := mod.Funcs[0]
	Mem2Reg(f)
	Simplify(f)
	// out = 10 should be a single StoreMsg of the constant.
	found := false
	f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpStoreMsg {
			if c, ok := i.Args[1].(*ir.Const); ok && c.Val == 10 {
				found = true
			}
		}
		if i.Op == ir.OpAdd {
			t.Errorf("unfolded add remains: %s", i)
		}
		return true
	})
	if !found {
		t.Errorf("constant sum not folded:\n%s", f)
	}
}

func TestSimplifyBranchFolding(t *testing.T) {
	mod := buildModule(t, `
_kernel(1) void k(uint32_t &out) {
  if (2 > 1) { out = 1; } else { out = 2; }
}
`, 1, nil)
	f := mod.Funcs[0]
	Mem2Reg(f)
	Simplify(f)
	if len(f.Blocks) != 1 {
		t.Errorf("constant branch not folded: %d blocks\n%s", len(f.Blocks), f)
	}
}

// TestCSEMergesHashes: equal hashes merge, also over field lists longer
// than the key's inline operands; lists that differ past the third
// operand, in a constant or in a value, do not.
func TestCSEMergesHashes(t *testing.T) {
	mod := buildModule(t, `
_net_ uint32_t A[256], B[256], C[256], D[256], E[256], F[256];
_kernel(1) void k(uint32_t key, uint32_t sel, uint32_t &x, uint32_t &y) {
  x = ncl::atomic_add(&A[ncl::crc16(key)], 1);
  y = ncl::atomic_add(&B[ncl::crc16(key)], 1);
  x = ncl::atomic_add(&C[ncl::crc16(key, sel, 7, key, 3)], x);
  y = ncl::atomic_add(&D[ncl::crc16(key, sel, 7, key, 3)], y);
  x = ncl::atomic_add(&E[ncl::crc16(key, sel, 7, key, 4)], x);
  y = ncl::atomic_add(&F[ncl::crc16(key, sel, 7, sel, 3)], y);
}
`, 1, nil)
	f := mod.Funcs[0]
	Mem2Reg(f)
	Simplify(f)
	hashes := 0
	f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpHash {
			hashes++
		}
		return true
	})
	if hashes != 4 {
		t.Errorf("hashes after CSE: %d, want 4", hashes)
	}
}

func TestPartitionRequiresConstOuter(t *testing.T) {
	mod := buildModule(t, `
_net_ uint32_t M[4][16];
_kernel(1) void k(uint32_t i, uint32_t j, uint32_t &out) {
  out = ncl::atomic_add(&M[i][j], 1);
}
`, 1, nil)
	for _, f := range mod.Funcs {
		Mem2Reg(f)
		Simplify(f)
	}
	if n := PartitionMemory(mod); n != 0 {
		t.Errorf("dynamic outer index must not partition, got %d splits", n)
	}
}

func TestPartitionSlicesInit(t *testing.T) {
	mod := buildModule(t, `
_net_ uint32_t M[2][2];
_kernel(1) void k(uint32_t j, uint32_t &a, uint32_t &b) {
  a = ncl::atomic_read(&M[0][j]);
  b = ncl::atomic_read(&M[1][j]);
}
`, 1, nil)
	// Give M an initializer by hand (globals are zero-initialized in
	// NetCL; this exercises the slicing logic directly).
	memByName(mod, "M").Init = []int64{1, 2, 3, 4}
	for _, f := range mod.Funcs {
		Mem2Reg(f)
		Simplify(f)
	}
	if n := PartitionMemory(mod); n != 1 {
		t.Fatalf("splits: %d", n)
	}
	m0, m1 := memByName(mod, "M__0"), memByName(mod, "M__1")
	if m0 == nil || m1 == nil {
		t.Fatal("partitions missing")
	}
	if m0.Init[0] != 1 || m0.Init[1] != 2 || m1.Init[0] != 3 || m1.Init[1] != 4 {
		t.Errorf("init slicing wrong: %v %v", m0.Init, m1.Init)
	}
}

func TestDuplicateLookups(t *testing.T) {
	mod := buildModule(t, `
_net_ _lookup_ ncl::kv<unsigned,unsigned> tbl[] = {{1,2},{3,4}};
_kernel(1) void k(unsigned a, unsigned b, unsigned &x, unsigned &y) {
  if (a > 10) { unsigned v = 0; char h = ncl::lookup(tbl, a, v); x = v; }
  else        { unsigned v = 0; char h = ncl::lookup(tbl, b, v); y = v; }
}
`, 1, nil)
	for _, f := range mod.Funcs {
		Mem2Reg(f)
		Simplify(f)
	}
	if n := DuplicateLookups(mod); n != 1 {
		t.Fatalf("dups: %d", n)
	}
	if memByName(mod, "tbl__dup1") == nil {
		t.Error("duplicate memory missing")
	}
	// The two lookups must now reference different objects.
	var refs []*ir.MemRef
	for _, f := range mod.Funcs {
		f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
			if i.Op == ir.OpLookup {
				refs = append(refs, i.G)
			}
			return true
		})
	}
	if len(refs) != 2 || refs[0] == refs[1] {
		t.Errorf("lookup refs: %v", refs)
	}
}

func TestMemCheckMultiAccessSamePath(t *testing.T) {
	// Paper §V-D kernel 2: x = m[0] + m[1] is invalid.
	mod := buildModule(t, `
_net_ int m[42];
_kernel(1) void a(int x, int &out) { out = ncl::atomic_read(&m[0]) + ncl::atomic_read(&m[1]); }
`, 1, nil)
	for _, f := range mod.Funcs {
		Mem2Reg(f)
		Simplify(f)
	}
	errs := CheckMemory(mod)
	if len(errs) == 0 || errs[0].Kind != "multi-access" {
		t.Fatalf("expected multi-access error, got %v", errs)
	}
}

func TestMemCheckMutuallyExclusiveOK(t *testing.T) {
	// Paper §V-D kernel 1: ternary access is valid.
	mod := buildModule(t, `
_net_ int m[42];
_kernel(1) void b(int x, int &out) {
  if (x > 10) { out = ncl::atomic_read(&m[0]); }
  else        { out = ncl::atomic_read(&m[1]); }
}
`, 1, nil)
	for _, f := range mod.Funcs {
		Mem2Reg(f)
		Simplify(f)
	}
	if errs := CheckMemory(mod); len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs[0])
	}
}

func TestMemCheckOrderConflict(t *testing.T) {
	// Paper §V-D kernel "a": dependent accesses in reverse order.
	mod := buildModule(t, `
_net_ int m1[42], m2[42];
_kernel(1) void a(int x, int &out) {
  if (x > 10) { int t = ncl::atomic_read(&m1[0]); out = ncl::atomic_read(&m2[t]); }
  else        { int t = ncl::atomic_read(&m2[0]); out = ncl::atomic_read(&m1[t]); }
}
`, 1, nil)
	for _, f := range mod.Funcs {
		Mem2Reg(f)
		Simplify(f)
	}
	errs := CheckMemory(mod)
	found := false
	for _, e := range errs {
		if e.Kind == "order" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected order conflict, got %v", errs)
	}
}

func TestMemCheckReorderableOK(t *testing.T) {
	// Paper §V-D kernel "b": independent accesses can be reordered.
	mod := buildModule(t, `
_net_ int m1[42], m2[42];
_kernel(1) void b(int x, int &out) {
  if (x > 10) { out = ncl::atomic_read(&m1[0]) + ncl::atomic_read(&m2[x]); }
  else        { out = ncl::atomic_read(&m2[x]) + ncl::atomic_read(&m1[0]); }
}
`, 1, nil)
	for _, f := range mod.Funcs {
		Mem2Reg(f)
		Simplify(f)
	}
	for _, e := range CheckMemory(mod) {
		if e.Kind == "order" {
			t.Fatalf("reorderable accesses flagged: %v", e)
		}
	}
}

func TestSpeculationMovesCode(t *testing.T) {
	mod := buildModule(t, `
_kernel(1) void k(uint32_t a, uint32_t b, uint32_t c, uint32_t &out) {
  if (c > 10) {
    out = a * 2 + b;
  }
}
`, 1, nil)
	f := mod.Funcs[0]
	Mem2Reg(f)
	Simplify(f)
	n := Speculate(f)
	if n == 0 {
		t.Errorf("speculation moved nothing:\n%s", f)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("verify after speculation: %v", err)
	}
}

func TestPhiElimRemovesAllPhis(t *testing.T) {
	mod := buildModule(t, `
_kernel(1) void k(uint32_t a, uint32_t b, uint32_t &out) {
  uint32_t x = 0;
  if (a > b) { x = a; } else { x = b; }
  out = x;
}
`, 1, nil)
	f := mod.Funcs[0]
	Mem2Reg(f)
	Simplify(f)
	PhiElim(f)
	f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpPhi {
			t.Errorf("phi remains: %s", i)
		}
		return true
	})
	if err := ir.Verify(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestDetectByteSwap16(t *testing.T) {
	mod := buildModule(t, `
_kernel(1) void k(uint16_t x, uint16_t &out) {
  out = (uint16_t)((x << 8) | (x >> 8));
}
`, 1, nil)
	f := mod.Funcs[0]
	Mem2Reg(f)
	Simplify(f)
	if n := DetectByteSwaps(f); n != 1 {
		t.Errorf("byteswap not detected (%d):\n%s", n, f)
	}
}

func TestCmpToSubMSB(t *testing.T) {
	mod := buildModule(t, `
_kernel(1) void k(uint16_t a, uint16_t b, char &out) {
  out = a < b;
}
`, 1, nil)
	f := mod.Funcs[0]
	Mem2Reg(f)
	Simplify(f)
	if n := CmpToSubMSB(f); n != 1 {
		t.Fatalf("rewrites: %d", n)
	}
	// The resulting compare must be against a constant.
	f.Instrs(func(b *ir.Block, i *ir.Instr) bool {
		if i.Op == ir.OpICmp {
			_, c0 := i.Args[0].(*ir.Const)
			_, c1 := i.Args[1].(*ir.Const)
			if !c0 && !c1 {
				t.Errorf("dynamic compare remains: %s", i)
			}
		}
		return true
	})
	if err := ir.Verify(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestPipelineStatsAblation(t *testing.T) {
	// Speculation off must not move instructions.
	mod := buildModule(t, fig7, 1, nil)
	opts := DefaultOptions(TargetTNA)
	opts.Speculate = false
	opts.DuplicateLookups = false
	st, err := Run(mod, opts)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if st.Speculated != 0 || st.LookupDups != 0 {
		t.Errorf("ablation flags ignored: %+v", st)
	}
}

// TestMemCheckDistance: two accesses of one object condDepthThreshold
// (3) conditional levels apart share a stage; one level more violates
// the distance rule.
func TestMemCheckDistance(t *testing.T) {
	for _, tc := range []struct {
		distance int
		want     bool // a distance error
	}{{3, false}, {4, true}} {
		// m[0] sits one level deep, m[1] 1+distance levels deep, each
		// level on a parameter of its own.
		var params, nested string
		for i := 0; i < tc.distance; i++ {
			params += fmt.Sprintf("int b%d, ", i)
			nested += fmt.Sprintf("if (b%d > 0) { ", i)
		}
		nested += "out = ncl::atomic_read(&m[1]); " + strings.Repeat("} ", tc.distance)
		src := `
_net_ int m[4];
_kernel(1) void k(int a, ` + params + `int &out) {
  if (a > 0) {
    out = ncl::atomic_read(&m[0]);
  } else {
    ` + nested + `
  }
}
`
		mod := buildModule(t, src, 1, nil)
		for _, f := range mod.Funcs {
			Mem2Reg(f)
			Simplify(f)
		}
		errs := CheckMemory(mod)
		found := false
		for _, e := range errs {
			if e.Kind == "distance" {
				found = true
			}
		}
		if found != tc.want {
			t.Errorf("distance %d: distance error %v, want %v (errors %v)", tc.distance, found, tc.want, errs)
		}
	}
}

func TestStrEnumsNonEmpty(t *testing.T) {
	if strings.TrimSpace(ir.OpAtomicRMW.String()) == "" {
		t.Error("op name missing")
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
