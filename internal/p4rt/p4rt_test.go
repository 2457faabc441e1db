package p4rt

import (
	"encoding/gob"
	"errors"
	"net"
	"strings"
	"testing"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
	"netcl/internal/passes"
	"netcl/internal/testutil"
)

func newSwitch(t *testing.T) *bmv2.Switch {
	t.Helper()
	prog, _, err := testutil.CompileOne(testutil.CounterKernel, passes.TargetTNA, 1)
	if err != nil {
		t.Fatal(err)
	}
	return bmv2.New(prog)
}

// mustWrite commits one batch through cl.
func mustWrite(t *testing.T, cl Client, b *WriteBatch) *WriteResult {
	t.Helper()
	res, err := cl.Write(b)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDirectClient(t *testing.T) {
	sw := newSwitch(t)
	var cl Client = &Direct{SW: sw}
	mustWrite(t, cl, NewWriteBatch().RegisterWrite("reg_hits", 3, 42))
	v, err := cl.RegisterRead("reg_hits", 3)
	if err != nil || v != 42 {
		t.Fatalf("read: %d %v", v, err)
	}
	if _, err := cl.RegisterRead("nope", 0); err == nil {
		t.Error("unknown register must fail")
	}
	mustWrite(t, cl, NewWriteBatch().Insert("netcl_fwd", &p4.Entry{
		Keys:   []p4.KeyValue{{Value: 5}},
		Action: &p4.ActionCall{Name: "set_port", Args: []uint64{2}},
	}))
	if n := mustWrite(t, cl, NewWriteBatch().Delete("netcl_fwd", 5)).Removed[0]; n != 1 {
		t.Fatalf("delete: %d", n)
	}
}

func TestTCPControlPlane(t *testing.T) {
	sw := newSwitch(t)
	srv, err := Serve("127.0.0.1:0", &Direct{SW: sw})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	mustWrite(t, cl, NewWriteBatch().RegisterWrite("reg_hits", 7, 1234))
	v, err := cl.RegisterRead("reg_hits", 7)
	if err != nil || v != 1234 {
		t.Fatalf("tcp read: %d %v", v, err)
	}
	// Errors cross the wire.
	if _, err := cl.RegisterRead("bogus", 0); err == nil {
		t.Error("remote error not propagated")
	}
	// Entries cross the wire (gob round trip of p4.Entry).
	mustWrite(t, cl, NewWriteBatch().Insert("netcl_fwd", fwdEntry(9, 4)))
	got := sw.Entries("netcl_fwd")
	if len(got) != 1 || got[0].Action.Args[0] != 4 {
		t.Fatalf("entry did not arrive: %+v", got)
	}
	if n := mustWrite(t, cl, NewWriteBatch().Delete("netcl_fwd", 9)).Removed[0]; n != 1 {
		t.Fatalf("tcp delete: %d", n)
	}
}

func fwdEntry(key, port uint64) *p4.Entry {
	return &p4.Entry{
		Keys:   []p4.KeyValue{{Value: key, PrefixLen: -1}},
		Action: &p4.ActionCall{Name: "set_port", Args: []uint64{port}},
	}
}

func TestBatchOverTCP(t *testing.T) {
	sw := newSwitch(t)
	srv, err := Serve("127.0.0.1:0", &Direct{SW: sw})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// A whole mixed batch rides in one request frame.
	b := NewWriteBatch().
		Insert("netcl_fwd", fwdEntry(1, 10)).
		Insert("netcl_fwd", fwdEntry(2, 20)).
		RegisterWrite("reg_hits", 0, 99).
		Delete("netcl_fwd", 1).
		SetDefault("netcl_fwd", "set_port", []uint64{7})
	res, err := cl.Write(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 5 || res.Removed[3] != 1 {
		t.Fatalf("removed counts: %v", res.Removed)
	}
	if got := sw.Entries("netcl_fwd"); len(got) != 1 || got[0].Keys[0].Value != 2 {
		t.Fatalf("post-batch entries: %+v", got)
	}
	if v, _ := cl.RegisterRead("reg_hits", 0); v != 99 {
		t.Errorf("register write lost: %d", v)
	}

	// A failed batch reports the op index across the wire and leaves
	// the device untouched.
	bad := NewWriteBatch().
		Insert("netcl_fwd", fwdEntry(3, 30)).
		RegisterWrite("no_such_reg", 0, 1)
	if _, err := cl.Write(bad); err == nil {
		t.Fatal("bad batch must fail")
	} else {
		var be *BatchError
		if !errors.As(err, &be) || be.Index != 1 {
			t.Fatalf("want BatchError index 1, got %v", err)
		}
	}
	if got := sw.Entries("netcl_fwd"); len(got) != 1 {
		t.Fatalf("failed batch leaked state: %+v", got)
	}
}

func TestTCPDeleteFullTuple(t *testing.T) {
	// Multi-key deletes over TCP must match the full tuple — the old
	// wire protocol silently matched the first key only.
	prog, _, err := testutil.CompileOne(testutil.CounterKernel, passes.TargetTNA, 1)
	if err != nil {
		t.Fatal(err)
	}
	sw := bmv2.New(prog)
	if err := sw.InsertEntry("netcl_fwd", fwdEntry(5, 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", &Direct{SW: sw})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Wrong arity removes nothing.
	if n := mustWrite(t, cl, NewWriteBatch().Delete("netcl_fwd", 5, 6)).Removed[0]; n != 0 {
		t.Fatalf("arity-mismatched delete: %d", n)
	}
	// Exact tuple removes the entry.
	if n := mustWrite(t, cl, NewWriteBatch().Delete("netcl_fwd", 5)).Removed[0]; n != 1 {
		t.Fatalf("full-tuple delete: %d", n)
	}
}

func TestWireVersionRejected(t *testing.T) {
	sw := newSwitch(t)
	srv, err := Serve("127.0.0.1:0", &Direct{SW: sw})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	if err := enc.Encode(&request{Ver: 1, Op: "rread", Name: "reg_hits"}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Err, "wire version") {
		t.Fatalf("stale version accepted: %+v", resp)
	}
}
