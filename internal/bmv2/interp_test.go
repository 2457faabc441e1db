package bmv2

import (
	"testing"

	"netcl/internal/p4"
)

// prog builds a small exercising program: parse one header, apply
// tables of each match kind, run a register action.
func prog() *p4.Program {
	p4p := &p4.Program{Name: "t", Target: p4.TargetTNA}
	p4p.Headers = []*p4.HeaderDecl{{Name: "h", Fields: []*p4.Field{
		{Name: "tag", Bits: 8},
		{Name: "key", Bits: 32},
		{Name: "out", Bits: 32},
	}}}
	p4p.Metadata = []*p4.Field{
		{Name: "nexthop", Bits: 16}, {Name: "mcast_grp", Bits: 16},
		{Name: "drop_flag", Bits: 1}, {Name: "egress_port", Bits: 16},
	}
	p4p.Parser = &p4.Parser{Name: "P", States: []*p4.ParserState{
		{Name: "start", Extracts: []string{"h"}, Next: "accept"},
	}}
	ctl := &p4.Control{Name: "In"}
	ctl.Locals = []*p4.Field{{Name: "tmp", Bits: 32}}
	ctl.Registers = []*p4.Register{{Name: "r", Bits: 32, Size: 8, Init: []int64{5, 6, 7}}}
	ctl.RegActs = []*p4.RegisterAction{{
		Name: "bump", Register: "r",
		Body: []p4.Stmt{
			&p4.Assign{LHS: p4.FR("o"), RHS: p4.FR("m")},
			&p4.Assign{LHS: p4.FR("m"), RHS: &p4.Bin{Op: "+", X: p4.FR("m"), Y: &p4.IntLit{Val: 1}}},
		},
	}}
	ctl.Actions = []*p4.ActionDecl{
		{Name: "set_out", Params: []*p4.Field{{Name: "v", Bits: 32}},
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "h", "out"), RHS: p4.FR("v")}}},
		{Name: "dflt",
			Body: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "h", "out"), RHS: &p4.IntLit{Val: 0xDEAD, Bits: 32}}}},
	}
	ctl.Tables = []*p4.Table{
		{
			Name:    "exact_t",
			Keys:    []*p4.TableKey{{Expr: p4.FR("hdr", "h", "key"), Match: p4.MatchExact}},
			Actions: []string{"set_out", "dflt"},
			Default: &p4.ActionCall{Name: "dflt"},
			Entries: []*p4.Entry{
				{Keys: []p4.KeyValue{{Value: 10, PrefixLen: -1}}, Action: &p4.ActionCall{Name: "set_out", Args: []uint64{100}}},
			},
		},
		{
			Name:    "tern_t",
			Keys:    []*p4.TableKey{{Expr: p4.FR("hdr", "h", "key"), Match: p4.MatchTernary}},
			Actions: []string{"set_out"},
			Entries: []*p4.Entry{
				{Keys: []p4.KeyValue{{Value: 0x10, Mask: 0xF0}}, Action: &p4.ActionCall{Name: "set_out", Args: []uint64{1}}, Priority: 1},
				{Keys: []p4.KeyValue{{Value: 0x12, Mask: 0xFF}}, Action: &p4.ActionCall{Name: "set_out", Args: []uint64{2}}, Priority: 0},
			},
		},
		{
			Name:    "lpm_t",
			Keys:    []*p4.TableKey{{Expr: p4.FR("hdr", "h", "key"), Match: p4.MatchLPM}},
			Actions: []string{"set_out"},
			Entries: []*p4.Entry{
				{Keys: []p4.KeyValue{{Value: 0x80000000, PrefixLen: 1}}, Action: &p4.ActionCall{Name: "set_out", Args: []uint64{1}}},
				{Keys: []p4.KeyValue{{Value: 0xC0000000, PrefixLen: 2}}, Action: &p4.ActionCall{Name: "set_out", Args: []uint64{2}}},
			},
		},
	}
	// tag selects which table runs.
	ctl.Apply = []p4.Stmt{
		&p4.If{Cond: &p4.Bin{Op: "==", X: p4.FR("hdr", "h", "tag"), Y: &p4.IntLit{Val: 1, Bits: 8}},
			Then: []p4.Stmt{&p4.ApplyTable{Table: "exact_t"}}},
		&p4.If{Cond: &p4.Bin{Op: "==", X: p4.FR("hdr", "h", "tag"), Y: &p4.IntLit{Val: 2, Bits: 8}},
			Then: []p4.Stmt{&p4.ApplyTable{Table: "tern_t"}}},
		&p4.If{Cond: &p4.Bin{Op: "==", X: p4.FR("hdr", "h", "tag"), Y: &p4.IntLit{Val: 3, Bits: 8}},
			Then: []p4.Stmt{&p4.ApplyTable{Table: "lpm_t"}}},
		&p4.If{Cond: &p4.Bin{Op: "==", X: p4.FR("hdr", "h", "tag"), Y: &p4.IntLit{Val: 4, Bits: 8}},
			Then: []p4.Stmt{&p4.Assign{LHS: p4.FR("hdr", "h", "out"),
				RHS: &p4.CallExpr{Recv: "bump", Method: "execute", Args: []p4.Expr{&p4.Cast{Bits: 32, X: p4.FR("hdr", "h", "key")}}}}}},
		&p4.Assign{LHS: p4.FR("meta", "egress_port"), RHS: &p4.IntLit{Val: 9, Bits: 16}},
	}
	p4p.Ingress = ctl
	return p4p
}

// mkPkt builds a packet for header h: tag(1) key(4) out(4).
func mkPkt(tag uint8, key uint32) []byte {
	return []byte{
		tag,
		byte(key >> 24), byte(key >> 16), byte(key >> 8), byte(key),
		0, 0, 0, 0,
		0xAA, 0xBB, // payload
	}
}

// outOf extracts the out field from a processed packet.
func outOf(t *testing.T, data []byte) uint32 {
	t.Helper()
	if len(data) < 9 {
		t.Fatalf("short output: %d bytes", len(data))
	}
	return uint32(data[5])<<24 | uint32(data[6])<<16 | uint32(data[7])<<8 | uint32(data[8])
}

func TestExactMatchAndDefault(t *testing.T) {
	sw := New(prog())
	res, err := sw.Process(mkPkt(1, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := outOf(t, res.Data); got != 100 {
		t.Errorf("exact hit: out=%d", got)
	}
	res, err = sw.Process(mkPkt(1, 11), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := outOf(t, res.Data); got != 0xDEAD {
		t.Errorf("default action: out=%#x", got)
	}
	if res.Port != 9 {
		t.Errorf("egress port %d", res.Port)
	}
}

func TestTernaryPriority(t *testing.T) {
	sw := New(prog())
	// 0x12 matches both entries; lower priority value wins.
	res, _ := sw.Process(mkPkt(2, 0x12), 1)
	if got := outOf(t, res.Data); got != 2 {
		t.Errorf("ternary priority: out=%d, want 2", got)
	}
	// 0x15 matches only the masked entry.
	res, _ = sw.Process(mkPkt(2, 0x15), 1)
	if got := outOf(t, res.Data); got != 1 {
		t.Errorf("ternary mask: out=%d, want 1", got)
	}
}

func TestLPMLongestPrefixWins(t *testing.T) {
	sw := New(prog())
	res, _ := sw.Process(mkPkt(3, 0xC1000000), 1)
	if got := outOf(t, res.Data); got != 2 {
		t.Errorf("lpm /2: out=%d", got)
	}
	res, _ = sw.Process(mkPkt(3, 0x81000000), 1)
	if got := outOf(t, res.Data); got != 1 {
		t.Errorf("lpm /1: out=%d", got)
	}
}

func TestRegisterActionAndInit(t *testing.T) {
	sw := New(prog())
	// Initialized cell 2 = 7; bump returns the old value.
	res, _ := sw.Process(mkPkt(4, 2), 1)
	if got := outOf(t, res.Data); got != 7 {
		t.Errorf("register init/old value: out=%d", got)
	}
	v, err := sw.RegisterRead("r", 2)
	if err != nil || v != 8 {
		t.Errorf("post-bump memory: %d %v", v, err)
	}
	// Out-of-range index: cell ignored, result zero.
	res, _ = sw.Process(mkPkt(4, 100), 1)
	if got := outOf(t, res.Data); got != 0 {
		t.Errorf("oob register read: out=%d", got)
	}
}

func TestPayloadPreservedAndCounters(t *testing.T) {
	sw := New(prog())
	res, _ := sw.Process(mkPkt(1, 10), 1)
	n := len(res.Data)
	if res.Data[n-2] != 0xAA || res.Data[n-1] != 0xBB {
		t.Error("payload not preserved")
	}
	if sw.PacketsIn != 1 || sw.PacketsOut != 1 {
		t.Errorf("counters: in=%d out=%d", sw.PacketsIn, sw.PacketsOut)
	}
}

func TestShortPacketRejected(t *testing.T) {
	sw := New(prog())
	if _, err := sw.Process([]byte{1, 2}, 1); err == nil {
		t.Error("short packet must error")
	}
}

func TestRuntimeEntriesAndDefaults(t *testing.T) {
	sw := New(prog())
	if _, err := sw.Write(NewWriteBatch().Insert("exact_t", &p4.Entry{
		Keys:   []p4.KeyValue{{Value: 42}},
		Action: &p4.ActionCall{Name: "set_out", Args: []uint64{4242}},
	})); err != nil {
		t.Fatal(err)
	}
	res, _ := sw.Process(mkPkt(1, 42), 1)
	if got := outOf(t, res.Data); got != 4242 {
		t.Errorf("runtime entry: out=%d", got)
	}
	if n := deleteEntry(t, sw, "exact_t", 42); n != 1 {
		t.Errorf("delete removed %d", n)
	}
	if _, err := sw.Write(NewWriteBatch().SetDefault("exact_t", "set_out", []uint64{7})); err != nil {
		t.Fatal(err)
	}
	res, _ = sw.Process(mkPkt(1, 42), 1)
	if got := outOf(t, res.Data); got != 7 {
		t.Errorf("new default: out=%d", got)
	}
	if _, err := sw.Write(NewWriteBatch().Insert("nosuch", &p4.Entry{})); err == nil {
		t.Error("unknown table must error")
	}
	if _, err := sw.Write(NewWriteBatch().SetDefault("nosuch", "a", nil)); err == nil {
		t.Error("unknown table default must error")
	}
}

func TestHashKnownAnswers(t *testing.T) {
	// CRC-16/ARC of "123456789" is 0xBB3D; CRC-32 is 0xCBF43926.
	data := []byte("123456789")
	if got := crc16(data); got != 0xBB3D {
		t.Errorf("crc16 = %#x", got)
	}
	if got := crc32IEEE(data); got != 0xCBF43926 {
		t.Errorf("crc32 = %#x", got)
	}
	if got := crc64ECMA(data); got != 0x6C40DF5F0B497347 {
		t.Errorf("crc64 = %#x", got)
	}
	if xor16([]byte{0x12, 0x34, 0x56, 0x78}) != 0x124C^0x0000^(0x1234^0x5678) && false {
		t.Error("unreachable")
	}
	if got := xor16([]byte{0x12, 0x34, 0x56, 0x78}); got != 0x1234^0x5678 {
		t.Errorf("xor16 = %#x", got)
	}
	if got := identityHash([]byte{1, 2}); got != 0x0102 {
		t.Errorf("identity = %#x", got)
	}
	// csum16 of zeros is all-ones complemented.
	if got := csum16([]byte{0, 0}); got != 0xFFFF {
		t.Errorf("csum16 = %#x", got)
	}
}

func TestValBitsSemantics(t *testing.T) {
	v := val{v: 0x1FF, bits: 8}
	if v.wrapped() != 0xFF {
		t.Error("wrap")
	}
	s := val{v: 0x80, bits: 8}
	if s.signed() != -128 {
		t.Errorf("signed: %d", s.signed())
	}
	u := val{v: 0x7F, bits: 8}
	if u.signed() != 127 {
		t.Error("positive signed")
	}
}
