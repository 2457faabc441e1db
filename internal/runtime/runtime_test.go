package runtime

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"netcl/internal/ir"
	"netcl/internal/p4"
	"netcl/internal/p4rt"
	"netcl/internal/wire"
)

func demoSpec() *MessageSpec {
	return &MessageSpec{
		Comp: 1,
		Args: []ArgSpec{
			{Name: "op", Bytes: 1, Count: 1},
			{Name: "k", Bytes: 4, Count: 1},
			{Name: "v", Bytes: 4, Count: 4, Out: true},
		},
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	spec := demoSpec()
	hdr := Message{Src: 1, Dst: 2, Device: 3, Comp: 1}.Header()
	buf, err := Pack(spec, hdr, [][]uint64{{7}, {0xDEADBEEF}, {1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != spec.Size() {
		t.Fatalf("size %d, want %d", len(buf), spec.Size())
	}
	op := make([]uint64, 1)
	k := make([]uint64, 1)
	v := make([]uint64, 4)
	outHdr, err := UnpackInto(spec, buf, [][]uint64{op, k, v})
	if err != nil {
		t.Fatal(err)
	}
	if outHdr.To != 3 || outHdr.From != wire.None {
		t.Errorf("header: %+v", outHdr)
	}
	if op[0] != 7 || k[0] != 0xDEADBEEF || v[3] != 4 {
		t.Errorf("values: %v %v %v", op, k, v)
	}
}

func TestPackNilSkipsArgument(t *testing.T) {
	spec := demoSpec()
	hdr := Message{Src: 1, Dst: 2, Device: 3, Comp: 1}.Header()
	buf, err := Pack(spec, hdr, [][]uint64{{7}, nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	k := make([]uint64, 1)
	if _, err := UnpackInto(spec, buf, [][]uint64{nil, k, nil}); err != nil {
		t.Fatal(err)
	}
	if k[0] != 0 {
		t.Errorf("nil-packed arg should read back zero, got %d", k[0])
	}
}

func TestPackErrors(t *testing.T) {
	spec := demoSpec()
	hdr := wire.Header{}
	if _, err := Pack(spec, hdr, [][]uint64{{1}}); err == nil {
		t.Error("wrong slot count must fail")
	}
	if _, err := Pack(spec, hdr, [][]uint64{{1}, {2}, {3}}); err == nil {
		t.Error("wrong element count must fail")
	}
	if _, err := UnpackInto(spec, make([]byte, 4), make([][]uint64, 3)); err == nil {
		t.Error("short message must fail")
	}
}

func TestPackUnpackProperty(t *testing.T) {
	spec := &MessageSpec{Comp: 2, Args: []ArgSpec{
		{Name: "a", Bytes: 2, Count: 3},
		{Name: "b", Bytes: 8, Count: 1},
	}}
	f := func(a0, a1, a2 uint16, b uint64) bool {
		hdr := Message{Src: 9, Dst: 8, Device: 7, Comp: 2}.Header()
		buf, err := Pack(spec, hdr, [][]uint64{{uint64(a0), uint64(a1), uint64(a2)}, {b}})
		if err != nil {
			return false
		}
		a := make([]uint64, 3)
		bb := make([]uint64, 1)
		if _, err := UnpackInto(spec, buf, [][]uint64{a, bb}); err != nil {
			return false
		}
		return a[0] == uint64(a0) && a[1] == uint64(a1) && a[2] == uint64(a2) && bb[0] == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameDeframe(t *testing.T) {
	msg := []byte{1, 2, 3, 4, 5}
	pkt := Frame(msg, 0xAA, 0xBB)
	if len(pkt) != FrameOverhead+len(msg) {
		t.Fatalf("frame size %d", len(pkt))
	}
	out, ok := Deframe(pkt)
	if !ok || string(out) != string(msg) {
		t.Fatal("deframe mismatch")
	}
	// Non-NetCL port must be rejected.
	pkt[36] = 0
	pkt[37] = 53
	if _, ok := Deframe(pkt); ok {
		t.Error("wrong port accepted")
	}
	if _, ok := Deframe([]byte{1, 2, 3}); ok {
		t.Error("short frame accepted")
	}
}

func TestManagedResolution(t *testing.T) {
	mems := []*ir.MemRef{
		{Name: "cms__0", Elem: ir.U32, Dims: []int{4096}, Managed: true},
		{Name: "cms__1", Elem: ir.U32, Dims: []int{4096}, Managed: true},
		{Name: "flat", Elem: ir.U16, Dims: []int{8, 4}, Managed: true},
		{Name: "ro", Elem: ir.U32, Dims: []int{4}},
	}
	fake := &fakeCP{regs: map[string][]uint64{
		"reg_cms__0": make([]uint64, 4096),
		"reg_cms__1": make([]uint64, 4096),
		"reg_flat":   make([]uint64, 32),
		"reg_ro":     make([]uint64, 4),
	}}
	c := &DeviceConnection{CP: fake, Mems: mems}

	// Partition-aware resolution: cms[1][7] -> reg_cms__1[7].
	if err := c.ManagedWrite("cms", []int{1, 7}, 99); err != nil {
		t.Fatal(err)
	}
	if fake.regs["reg_cms__1"][7] != 99 {
		t.Error("partitioned write landed wrong")
	}
	v, err := c.ManagedRead("cms", []int{1, 7})
	if err != nil || v != 99 {
		t.Errorf("read back %d, %v", v, err)
	}
	// Multi-dim flattening: flat[2][3] -> index 11.
	if err := c.ManagedWrite("flat", []int{2, 3}, 5); err != nil {
		t.Fatal(err)
	}
	if fake.regs["reg_flat"][11] != 5 {
		t.Error("flattening wrong")
	}
	// _net_-only memory rejects host writes.
	if err := c.ManagedWrite("ro", []int{0}, 1); err == nil {
		t.Error("write to _net_ memory must fail")
	}
	// Bounds checks.
	if err := c.ManagedWrite("flat", []int{9, 0}, 1); err == nil {
		t.Error("oob index must fail")
	}
	if _, err := c.ManagedRead("nosuch", nil); err == nil {
		t.Error("unknown memory must fail")
	}
	// Bulk access: the registers behind a name, partitioned or not.
	if regs, err := c.Registers("cms"); err != nil || !reflect.DeepEqual(regs, []string{"reg_cms__0", "reg_cms__1"}) {
		t.Errorf("Registers(cms) = %v, %v", regs, err)
	}
	if regs, err := c.Registers("flat", "cms"); err != nil || !reflect.DeepEqual(regs, []string{"reg_flat", "reg_cms__0", "reg_cms__1"}) {
		t.Errorf("Registers(flat, cms) = %v, %v", regs, err)
	}
	if _, err := c.Registers("flat", "nosuch"); err == nil {
		t.Error("Registers of an unknown memory must fail")
	}
}

// fakeCP is an in-memory control plane speaking the batch API.
type fakeCP struct {
	regs    map[string][]uint64
	entries map[string][]*p4.Entry
	batches int // Write calls observed
	ops     int // ops observed across all batches
}

func (f *fakeCP) RegisterRead(name string, idx int) (uint64, error) {
	return f.regs[name][idx], nil
}

func (f *fakeCP) Write(b *p4rt.WriteBatch) (*p4rt.WriteResult, error) {
	f.batches++
	f.ops += len(b.Ops)
	res := &p4rt.WriteResult{Removed: make([]int, len(b.Ops))}
	for i := range b.Ops {
		op := &b.Ops[i]
		switch op.Kind {
		case p4rt.OpRegisterWrite:
			f.regs[op.Reg][op.Idx] = op.Val
		case p4rt.OpInsert:
			if f.entries == nil {
				f.entries = map[string][]*p4.Entry{}
			}
			f.entries[op.Table] = append(f.entries[op.Table], op.Entry)
		case p4rt.OpDelete:
			var keep []*p4.Entry
			for _, e := range f.entries[op.Table] {
				if entryMatches(e, op.Keys) {
					res.Removed[i]++
					continue
				}
				keep = append(keep, e)
			}
			if f.entries == nil {
				f.entries = map[string][]*p4.Entry{}
			}
			f.entries[op.Table] = keep
		}
	}
	return res, nil
}

// entryMatches is the full-tuple delete rule: same arity, all values
// equal.
func entryMatches(e *p4.Entry, keys []uint64) bool {
	if len(keys) == 0 || len(e.Keys) != len(keys) {
		return false
	}
	for i, k := range keys {
		if e.Keys[i].Value != k {
			return false
		}
	}
	return true
}

func TestManagedLookupEntries(t *testing.T) {
	mems := []*ir.MemRef{
		{Name: "cache", Elem: ir.U32, KeyType: ir.U32, Dims: []int{64},
			LKind: ir.LookupExact, Managed: true},
	}
	fake := &fakeCP{regs: map[string][]uint64{}}
	c := &DeviceConnection{CP: fake, Mems: mems}
	if err := c.LookupInsert("cache", 5, 50); err != nil {
		t.Fatal(err)
	}
	if err := c.LookupInsert("cache", 5, 51); err != nil {
		t.Fatal(err)
	}
	// Replace semantics: one entry for key 5 with the new value.
	es := fake.entries["lu_cache"]
	if len(es) != 1 || es[0].Action.Args[0] != 51 {
		t.Fatalf("entries: %+v", es)
	}
	// Each replace pair must ride in ONE batch: a concurrent packet may
	// never observe the key unbound mid-replace.
	if fake.batches != 2 || fake.ops != 4 {
		t.Errorf("replaces should be 2-op batches: %d ops in %d batches", fake.ops, fake.batches)
	}
	n, err := c.LookupDelete("cache", 5)
	if err != nil || n != 1 {
		t.Fatalf("delete: %d %v", n, err)
	}
	if err := c.LookupInsert("nosuch", 1, 1); err == nil {
		t.Error("unknown lookup must fail")
	}
}

func TestManagedTxnWriteCombining(t *testing.T) {
	mems := []*ir.MemRef{
		{Name: "vals", Elem: ir.U32, Dims: []int{16}, Managed: true},
		{Name: "cache", Elem: ir.U32, KeyType: ir.U32, Dims: []int{64},
			LKind: ir.LookupExact, Managed: true},
	}
	fake := &fakeCP{regs: map[string][]uint64{"reg_vals": make([]uint64, 16)}}
	c := &DeviceConnection{CP: fake, Mems: mems}

	txn := c.Txn()
	for v := uint64(1); v <= 100; v++ {
		txn.Write("vals", []int{3}, v) // same cell: must write-combine
	}
	txn.Write("vals", []int{4}, 44)
	txn.LookupInsert("cache", 9, 90)
	if txn.Len() != 4 { // combined cell + cell 4 + delete + insert
		t.Errorf("txn staged %d ops, want 4 after write-combining", txn.Len())
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if fake.batches != 1 {
		t.Errorf("commit sent %d batches, want 1", fake.batches)
	}
	if fake.regs["reg_vals"][3] != 100 {
		t.Errorf("combined cell holds %d, want the last value 100", fake.regs["reg_vals"][3])
	}
	if fake.regs["reg_vals"][4] != 44 {
		t.Error("uncombined cell lost its write")
	}
	if es := fake.entries["lu_cache"]; len(es) != 1 || es[0].Action.Args[0] != 90 {
		t.Errorf("lookup insert missing: %+v", es)
	}

	// Sticky resolution errors: nothing reaches the device.
	bad := c.Txn().Write("nosuch", []int{0}, 1).Write("vals", []int{5}, 5)
	if err := bad.Commit(); err == nil {
		t.Error("bad txn must fail at Commit")
	}
	if fake.regs["reg_vals"][5] != 0 {
		t.Error("failed txn must send nothing")
	}
}

func TestHostConnTimeout(t *testing.T) {
	h, err := Dial(DialConfig{ID: 1, Local: "127.0.0.1:0", Device: "127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Recv(20 * time.Millisecond); err == nil {
		t.Error("expected timeout")
	}
}
