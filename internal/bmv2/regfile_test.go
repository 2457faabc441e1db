package bmv2

import (
	"testing"

	"netcl/internal/p4"
)

// progWithRegister builds a minimal program declaring one ingress
// register plus a register action incrementing cell [index arg].
func progWithRegister(size int, init []int64) *p4.Program {
	ing := &p4.Control{
		Name: "MyIngress",
		Registers: []*p4.Register{
			{Name: "reg_r", Bits: 32, Size: size, Init: init},
		},
		RegActs: []*p4.RegisterAction{
			{
				Name: "ra_inc", Register: "reg_r",
				Body: []p4.Stmt{
					&p4.Assign{
						LHS: &p4.FieldRef{Parts: []string{"m"}},
						RHS: &p4.Bin{
							Op: "+",
							X:  &p4.FieldRef{Parts: []string{"m"}},
							Y:  &p4.IntLit{Val: 1, Bits: 32},
						},
					},
				},
			},
		},
		Apply: []p4.Stmt{},
	}
	return &p4.Program{Name: "regtest", Ingress: ing}
}

func TestRegfileLazyAllocation(t *testing.T) {
	// A big declared register must not materialize cell pages until a
	// write touches one.
	const size = 1 << 20
	s := New(progWithRegister(size, nil))
	decl, alloc := s.RegisterFileBytes()
	if decl != size*8 {
		t.Fatalf("declared bytes = %d, want %d", decl, size*8)
	}
	if alloc != 0 {
		t.Fatalf("allocated %d bytes before any write, want 0", alloc)
	}
	// Unwritten cells read as zero, even far beyond any page.
	if v, err := s.RegisterRead("reg_r", size-1); err != nil || v != 0 {
		t.Fatalf("read of untouched cell = %d, %v; want 0, nil", v, err)
	}
	if _, alloc = s.RegisterFileBytes(); alloc != 0 {
		t.Fatalf("read materialized %d bytes, want 0", alloc)
	}

	// One write materializes exactly one page.
	if _, err := s.Write(NewWriteBatch().RegisterWrite("reg_r", size/2, 7)); err != nil {
		t.Fatal(err)
	}
	if _, alloc = s.RegisterFileBytes(); alloc != regPageSize*8 {
		t.Fatalf("allocated %d bytes after one write, want %d", alloc, regPageSize*8)
	}
	if v, _ := s.RegisterRead("reg_r", size/2); v != 7 {
		t.Fatalf("read back %d, want 7", v)
	}
	// A neighbor on the same page stays zero and costs nothing extra.
	if v, _ := s.RegisterRead("reg_r", size/2+1); v != 0 {
		t.Fatalf("same-page neighbor = %d, want 0", v)
	}
	if _, alloc = s.RegisterFileBytes(); alloc != regPageSize*8 {
		t.Fatalf("allocated %d bytes, want still %d", alloc, regPageSize*8)
	}
}

func TestRegfileInitValues(t *testing.T) {
	// Nonzero init values are visible immediately; zero init entries do
	// not force pages.
	init := make([]int64, regPageSize+3)
	init[regPageSize+2] = 99 // second page
	s := New(progWithRegister(4*regPageSize, init))
	if v, _ := s.RegisterRead("reg_r", regPageSize+2); v != 99 {
		t.Fatalf("init cell = %d, want 99", v)
	}
	if v, _ := s.RegisterRead("reg_r", 0); v != 0 {
		t.Fatalf("zero-init cell = %d, want 0", v)
	}
	// Only the page holding the nonzero value was materialized.
	if _, alloc := s.RegisterFileBytes(); alloc != regPageSize*8 {
		t.Fatalf("allocated %d bytes, want %d", alloc, regPageSize*8)
	}
}

func TestRegfileOddSize(t *testing.T) {
	// A register smaller than one page still works edge to edge.
	s := New(progWithRegister(3, nil))
	if _, err := s.Write(NewWriteBatch().RegisterWrite("reg_r", 2, 5)); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.RegisterRead("reg_r", 2); v != 5 {
		t.Fatalf("read back %d, want 5", v)
	}
	if _, err := s.Write(NewWriteBatch().RegisterWrite("reg_r", 3, 1)); err == nil {
		t.Fatal("out-of-range write succeeded")
	}
	if _, err := s.RegisterRead("reg_r", -1); err == nil {
		t.Fatal("negative-index read succeeded")
	}
}

func TestRegfileBatchWrite(t *testing.T) {
	s := New(progWithRegister(1<<16, nil))
	b := NewWriteBatch().
		RegisterWrite("reg_r", 10, 3).
		RegisterWrite("reg_r", regPageSize+1, 4)
	if _, err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.RegisterRead("reg_r", 10); v != 3 {
		t.Fatalf("cell 10 = %d, want 3", v)
	}
	if v, _ := s.RegisterRead("reg_r", regPageSize+1); v != 4 {
		t.Fatalf("cell %d = %d, want 4", regPageSize+1, v)
	}
	if _, alloc := s.RegisterFileBytes(); alloc != 2*regPageSize*8 {
		t.Fatalf("allocated %d bytes, want %d", alloc, 2*regPageSize*8)
	}
	// A batch failing validation must stage nothing: the failing op
	// aborts the whole batch, including the valid first write.
	bad := NewWriteBatch().
		RegisterWrite("reg_r", 20, 9).
		RegisterWrite("reg_r", 1<<20, 1) // out of range
	if _, err := s.Write(bad); err == nil {
		t.Fatal("out-of-range batch write succeeded")
	}
	if v, _ := s.RegisterRead("reg_r", 20); v != 0 {
		t.Fatalf("failed batch leaked a write: cell 20 = %d, want 0", v)
	}
}
