package netcl

// Error-quality tests: each §V-D restriction and placement rule must
// produce a clear, actionable error through the public Compile API.

import (
	"strings"
	"testing"
)

func compileErr(t *testing.T, src string, opts Options, wantSub string) {
	t.Helper()
	_, err := Compile("bad", src, opts)
	if err == nil {
		t.Fatalf("expected error containing %q, compiled fine", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not mention %q", err.Error(), wantSub)
	}
}

func TestErrorMessages(t *testing.T) {
	tna := Options{Target: TargetTNA}

	t.Run("multi-access same path", func(t *testing.T) {
		compileErr(t, `
_net_ int m[42];
_kernel(1) void a(int x, int &out) {
  out = ncl::atomic_read(&m[0]) + ncl::atomic_read(&m[1]);
}
`, tna, "stage-local")
	})

	t.Run("order violation", func(t *testing.T) {
		compileErr(t, `
_net_ int m1[42], m2[42];
_kernel(1) void a(int x, int &out) {
  if (x > 10) { int t = ncl::atomic_read(&m1[0]); out = ncl::atomic_read(&m2[t]); }
  else        { int t = ncl::atomic_read(&m2[0]); out = ncl::atomic_read(&m1[t]); }
}
`, tna, "different orders")
	})

	t.Run("non-unrollable loop", func(t *testing.T) {
		compileErr(t, `
_kernel(1) void k(unsigned n, unsigned &x) {
  for (auto i = 0; i < n; ++i) x = x + 1;
}
`, tna, "unroll")
	})

	t.Run("goto", func(t *testing.T) {
		compileErr(t, `_kernel(1) void k(int x) { goto done; }`, tna, "goto")
	})

	t.Run("recursion", func(t *testing.T) {
		compileErr(t, `
_net_ void f(int x) { f(x); }
_kernel(1) void k(int x) { f(x); }
`, tna, "recursion")
	})

	t.Run("placement ambiguity", func(t *testing.T) {
		compileErr(t, `
_kernel(1) _at(1) void a(int x) {}
_kernel(1) void b(int x) {}
`, tna, "placement is ambiguous")
	})

	t.Run("reference validity", func(t *testing.T) {
		compileErr(t, `
_net_ _at(1,2) int m[4];
_kernel(1) void k(int x) { m[0] = x; }
`, tna, "placed only at")
	})

	t.Run("spec mismatch", func(t *testing.T) {
		compileErr(t, `
_kernel(1) _at(1) void a(int x[3]) {}
_kernel(1) _at(2) void b(int x[4]) {}
`, Options{Target: TargetTNA, Devices: []uint16{1}}, "specification")
	})

	t.Run("action outside return", func(t *testing.T) {
		compileErr(t, `_kernel(1) void k(int x) { ncl::drop(); }`, tna, "return statement")
	})

	t.Run("pointer assignment", func(t *testing.T) {
		compileErr(t, `_kernel(1) void k(int _spec(4) *v) { v = v; }`, tna, "pointer parameter")
	})

	t.Run("lookup write from device", func(t *testing.T) {
		compileErr(t, `
_net_ _lookup_ ncl::kv<int,int> a[] = {{1,2}};
_kernel(1) void k(int x) { a[0] = x; }
`, tna, "read-only")
	})

	t.Run("managed lookup multi access", func(t *testing.T) {
		// Mutually exclusive accesses are fine for _net_ lookups (they
		// get duplicated) but not for managed ones (the control plane
		// cannot bulk-update duplicates, §VI-B).
		compileErr(t, `
_managed_ _lookup_ ncl::kv<unsigned,unsigned> tbl[8];
_kernel(1) void k(unsigned a, unsigned b, unsigned &x, unsigned &y) {
  if (a > b) { ncl::lookup(tbl, a, x); }
  else       { ncl::lookup(tbl, b, y); }
}
`, tna, "managed")
	})

	t.Run("unknown target", func(t *testing.T) {
		// A valid kernel: the target alone must be refused, not
		// compiled to v1model under another name.
		compileErr(t, `_kernel(1) void k(int x) {}`, Options{Target: "bogus"}, `unknown target "bogus"`)
	})
}

// TestV1ModelIsMorePermissive compiles a program that violates the
// Tofino memory rules but is fine on the software switch (the paper's
// "reject programs on a per-target basis" policy, §V-D).
func TestV1ModelIsMorePermissive(t *testing.T) {
	const src = `
_net_ int m[42];
_kernel(1) void a(int x, int &out) {
  out = ncl::atomic_read(&m[0]) + ncl::atomic_read(&m[1]);
}
`
	if _, err := Compile("p", src, Options{Target: TargetTNA}); err == nil {
		t.Fatal("TNA must reject the double access")
	}
	if _, err := Compile("p", src, Options{Target: TargetV1Model}); err != nil {
		t.Fatalf("v1model must accept it: %v", err)
	}
}
