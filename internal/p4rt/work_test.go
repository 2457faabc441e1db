package p4rt

import (
	"bytes"
	"testing"

	"netcl/internal/p4"
)

// churnFrame is a ctrl_churn-shaped 64-op write frame: on the exact
// flow table 19 inserts, 19 deletes and 18 modifies; on the route
// table a delete, an insert and two modifies; on the firewall the same.
func churnFrame(t *testing.T) []byte {
	flow := func(k uint64) *p4.Entry {
		return &p4.Entry{Keys: []p4.KeyValue{{Value: k, PrefixLen: -1}},
			Action: &p4.ActionCall{Name: "set_cls", Args: []uint64{k & 0xFF}}}
	}
	route := func(p uint64) *p4.Entry {
		return &p4.Entry{Keys: []p4.KeyValue{{Value: p << 8, PrefixLen: 24}},
			Action: &p4.ActionCall{Name: "set_hop", Args: []uint64{p & 0xFF, 3}}}
	}
	rule := func(s uint64) *p4.Entry {
		return &p4.Entry{Keys: []p4.KeyValue{{Value: s << 16, Mask: 0xFFFF_0000}, {Value: 80, Hi: 90}, {Value: 2, Mask: 3}},
			Action: &p4.ActionCall{Name: "deny"}, Priority: int(s)}
	}
	var ops []Op
	for i := uint64(0); i < 19; i++ {
		ops = append(ops, Op{Kind: OpInsert, Table: "flow", Entry: flow(1000 + i)},
			Op{Kind: OpDelete, Table: "flow", Keys: []uint64{2000 + i}})
	}
	for i := uint64(0); i < 18; i++ {
		ops = append(ops, Op{Kind: OpModify, Table: "flow", Entry: flow(3000 + i)})
	}
	ops = append(ops, Op{Kind: OpDelete, Table: "route", Keys: []uint64{7 << 8}}, Op{Kind: OpInsert, Table: "route", Entry: route(8)},
		Op{Kind: OpModify, Table: "route", Entry: route(9)}, Op{Kind: OpModify, Table: "route", Entry: route(10)},
		Op{Kind: OpDelete, Table: "fw", Keys: []uint64{7 << 16, 80, 2}}, Op{Kind: OpInsert, Table: "fw", Entry: rule(8)},
		Op{Kind: OpModify, Table: "fw", Entry: rule(9)}, Op{Kind: OpModify, Table: "fw", Entry: rule(10)})
	f, err := appendFrame(nil, &msg{kind: kindWrite, ops: ops})
	if err != nil || len(ops) != 64 {
		t.Fatalf("%d ops: %v", len(ops), err)
	}
	return f
}

// TestWriteWork pins the allocations a server connection makes to
// decode a ctrl_churn-shaped 64-op write frame after one like it: the
// frame decodes into the storage the last one left, so none. -v prints
// the count.
func TestWriteWork(t *testing.T) {
	f := churnFrame(t)
	var d wireReader
	var rd bytes.Reader
	decode := func() {
		rd.Reset(f)
		if m, err := d.read(&rd, kindWrite); err != nil || len(m.ops) != 64 {
			t.Fatalf("decode: %v", err)
		}
	}
	decode()
	allocs := testing.AllocsPerRun(20, decode)
	t.Logf("allocations per decoded 64-op frame: %.0f", allocs)
	if allocs > 0 {
		t.Errorf("decoding a 64-op frame allocated %.0f times, want 0", allocs)
	}
}
