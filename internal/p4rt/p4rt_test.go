package p4rt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

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
	// Entries cross the wire (frame round trip of p4.Entry).
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
	if _, err := sw.Write(bmv2.NewWriteBatch().Insert("netcl_fwd", fwdEntry(5, 1))); err != nil {
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

// serveSwitch serves sw's control plane and dials it; both close with
// the test.
func serveSwitch(t *testing.T, sw *bmv2.Switch) (*Server, *TCPClient) {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", &Direct{SW: sw})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

// frame builds a raw frame with an honest length prefix.
func frame(ver, kind byte, body ...byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(2+len(body)))
	return append(append(b, ver, kind), body...)
}

// exchange sends raw bytes on a fresh connection, half-closes it, and
// returns the error carried by the server's one response frame. It
// fails the test unless the server then closes the connection.
func exchange(t *testing.T, srv *Server, raw []byte) error {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	r := bufio.NewReader(conn)
	var d wireReader
	resp, err := d.read(r, kindResp)
	if err != nil {
		t.Fatalf("no error frame: %v", err)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open after a bad frame: %v", err)
	}
	return resp.err()
}

func TestWireVersionRejected(t *testing.T) {
	srv, _ := serveSwitch(t, newSwitch(t))
	body := append(appendStr(nil, "reg_hits"), 0)
	for _, ver := range []byte{1, 3, wireVersion + 1} {
		err := exchange(t, srv, frame(ver, kindRRead, body...))
		if !errors.Is(err, ErrUnsupportedVersion) || !strings.Contains(err.Error(), "wire version") {
			t.Fatalf("version %d accepted: %v", ver, err)
		}
	}
}

// TestErrorCodes checks that every code of the closed set keeps its
// identity (errors.Is), its *BatchError index and its message through
// Direct and over TCP alike. Transport codes arise only on the wire.
func TestErrorCodes(t *testing.T) {
	sw := newSwitch(t)
	srv, tcp := serveSwitch(t, sw)
	mustWrite(t, tcp, NewWriteBatch().Insert("netcl_fwd", fwdEntry(5, 1)))

	write := func(b *WriteBatch) func(Client) error {
		return func(cl Client) error { _, err := cl.Write(b); return err }
	}
	rread := func(name string, idx int) func(Client) error {
		return func(cl Client) error { _, err := cl.RegisterRead(name, idx); return err }
	}
	ok := NewWriteBatch().RegisterWrite("reg_hits", 0, 1)
	rows := []struct {
		name  string
		call  func(Client) error
		want  error
		index int // -1: not a *BatchError
	}{
		{"insert no table", write(NewWriteBatch().RegisterWrite("reg_hits", 0, 1).Insert("nope", fwdEntry(1, 1))), bmv2.ErrNoTable, 1},
		{"modify no table", write(NewWriteBatch().Modify("nope", fwdEntry(1, 1))), bmv2.ErrNoTable, 0},
		{"default no table", write(NewWriteBatch().SetDefault("nope", "a", nil)), bmv2.ErrNoTable, 0},
		{"register write no register", write(NewWriteBatch().RegisterWrite("bogus", 0, 1)), bmv2.ErrNoRegister, 0},
		{"register write range", write(NewWriteBatch().Insert("netcl_fwd", fwdEntry(6, 1)).RegisterWrite("reg_hits", 1<<20, 1)), bmv2.ErrRegisterRange, 1},
		{"insert nil entry", write(NewWriteBatch().Insert("netcl_fwd", nil)), bmv2.ErrNilEntry, 0},
		{"modify nil entry", write(NewWriteBatch().Modify("netcl_fwd", nil)), bmv2.ErrNilEntry, 0},
		{"modify no match", write(NewWriteBatch().Delete("netcl_fwd", 9).Modify("netcl_fwd", fwdEntry(77, 1))), bmv2.ErrNoMatch, 1},
		{"unknown op kind", write(&WriteBatch{Ops: append(ok.Ops, Op{Kind: 99})}), bmv2.ErrUnknownOp, 1},
		{"read no register", rread("bogus", 0), bmv2.ErrNoRegister, -1},
		{"read range", rread("reg_hits", -1), bmv2.ErrRegisterRange, -1},
	}
	seen := map[error]bool{}
	check := func(name string, err, want error, index int) {
		t.Helper()
		var be *BatchError
		switch isBatch := errors.As(err, &be); {
		case !errors.Is(err, want):
			t.Errorf("%s: %v does not match %v", name, err, want)
		case index < 0 && isBatch, index >= 0 && (!isBatch || be.Index != index):
			t.Errorf("%s: want op index %d, got %v", name, index, err)
		}
		seen[want] = true
	}
	for _, r := range rows {
		dErr := r.call(&Direct{SW: sw})
		tErr := r.call(tcp)
		check(r.name+" (direct)", dErr, r.want, r.index)
		check(r.name+" (tcp)", tErr, r.want, r.index)
		if dErr != nil && tErr != nil && dErr.Error() != tErr.Error() {
			t.Errorf("%s: message changed over TCP: %q vs %q", r.name, dErr, tErr)
		}
	}
	transport := []struct {
		name string
		raw  []byte
		want error
	}{
		{"old version", frame(3, kindRRead, append(appendStr(nil, "reg_hits"), 0)...), ErrUnsupportedVersion},
		{"op count 2^40", frame(wireVersion, kindWrite, binary.AppendUvarint(nil, 1<<40)...), ErrMalformedFrame},
	}
	for _, r := range transport {
		check(r.name, exchange(t, srv, r.raw), r.want, -1)
	}
	for c, want := range codes[1:codeOther] {
		if !seen[want] {
			t.Errorf("code %d (%v) has no row", c+1, want)
		}
	}
	// A failed batch changed nothing; the entry written first is intact.
	if got := sw.Entries("netcl_fwd"); len(got) != 1 || got[0].Keys[0].Value != 5 {
		t.Fatalf("failed batches leaked state: %+v", got)
	}
}

// TestHostileFramesKeepServing sends frames that once crashed or could
// crash the device process — an op count of 2^40 made the decoder
// allocate 2^47 bytes and die with a fatal out-of-memory error — plus
// oversized, short, truncated and ill-typed frames. Each gets a typed
// malformed-frame error; the server keeps answering a connection opened
// before them and a new Dial after each.
func TestHostileFramesKeepServing(t *testing.T) {
	srv, old := serveSwitch(t, newSwitch(t))
	huge := binary.AppendUvarint(nil, 1<<40)
	cases := []struct {
		name string
		raw  []byte
		why  string // in the error's text
	}{
		{"op count 2^40", frame(wireVersion, kindWrite, huge...), "count 1099511627776 exceeds"},
		{"length 0xFFFFFFFF", []byte{0xFF, 0xFF, 0xFF, 0xFF}, "frame length 4294967295"},
		{"length past cap", binary.BigEndian.AppendUint32(nil, maxFrame+1), "frame length"},
		{"length 1", []byte{0, 0, 0, 1, wireVersion}, "frame length 1"},
		{"short header", []byte{0, 0}, "truncated frame"},
		{"truncated frame", frame(wireVersion, kindWrite, 1, byte(OpRegisterWrite), 0, 0, 0)[:8], "truncated frame"},
		{"truncated body", frame(wireVersion, kindWrite, 1, byte(OpRegisterWrite), 0, 0), "truncated body"},
		{"name length 2^40", frame(wireVersion, kindRRead, append(huge, 0)...), "exceeds"},
		{"key count 2^40", frame(wireVersion, kindWrite, append([]byte{1, byte(OpInsert), 0, 1}, huge...)...), "exceeds"},
		{"unknown op kind", frame(wireVersion, kindWrite, 1, 99, 0, 0), "unknown op kind 99"},
		{"unknown frame kind", frame(wireVersion, 9), "unexpected kind 9"},
		{"response sent to server", frame(wireVersion, kindResp, 0, 1, 0, 0, 0), "unexpected kind"},
		{"trailing bytes", frame(wireVersion, kindRRead, append(appendStr(nil, "reg_hits"), 0, 0)...), "1 trailing bytes"},
	}
	for _, c := range cases {
		if err := exchange(t, srv, c.raw); !errors.Is(err, ErrMalformedFrame) || !strings.Contains(err.Error(), c.why) {
			t.Errorf("%s: want a malformed-frame error naming %q, got %v", c.name, c.why, err)
		}
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatalf("%s: server stopped accepting: %v", c.name, err)
		}
		if _, err := cl.RegisterRead("reg_hits", 0); err != nil {
			t.Fatalf("%s: server stopped serving: %v", c.name, err)
		}
		cl.Close()
		if _, err := old.RegisterRead("reg_hits", 0); err != nil {
			t.Fatalf("%s: an unrelated connection broke: %v", c.name, err)
		}
	}
}
