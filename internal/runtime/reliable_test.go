package runtime

import (
	"errors"
	"testing"
	"time"

	"netcl/internal/wire"
)

// fakeTransport drives the reliability protocol without sockets or
// timers: Send hands the message to a scripted responder, Recv pops
// the inbox or advances a virtual clock by the timeout. Deterministic
// and instant, whatever the configured timeouts.
type fakeTransport struct {
	now    time.Duration
	inbox  [][]byte
	onSend func(f *fakeTransport, msg []byte)
	sends  int
	// readErr is returned once by the next receive.
	readErr error
}

func (f *fakeTransport) Send(msg []byte) error {
	f.sends++
	if f.onSend != nil {
		f.onSend(f, append([]byte(nil), msg...))
	}
	return nil
}

func (f *fakeTransport) Recv(timeout time.Duration) ([]byte, error) {
	if err := f.readErr; err != nil {
		f.readErr = nil
		return nil, err
	}
	if len(f.inbox) == 0 {
		f.now += timeout
		return nil, ErrTimeout
	}
	f.now += time.Microsecond
	m := f.inbox[0]
	f.inbox = f.inbox[1:]
	return m, nil
}

func (f *fakeTransport) Now() time.Duration { return f.now }

func testMsg(src, dst uint16, data ...byte) []byte {
	h := wire.Header{Src: src, Dst: dst, From: wire.None, To: 5, Comp: 1}
	return append(h.Marshal(nil), data...)
}

// stopAndWait is the engine behind HostConn's and HostEndpoint's Call,
// SendReliable and Recv: a Channel of window 1. The tests below pin the
// Endpoint contract on it.
func stopAndWait(t *testing.T, tr Transport, cfg ReliabilityConfig) *Channel {
	ch := NewChannel(tr, ChannelConfig{Window: 1, Reliability: cfg})
	t.Cleanup(func() { ch.Close() })
	return ch
}

// TestCallRetransmitsUntilResponse drops the first two requests; the
// third send is echoed back (a device reflect carries the trailer
// untouched), and Call must deliver its body.
func TestCallRetransmitsUntilResponse(t *testing.T) {
	ft := &fakeTransport{}
	ft.onSend = func(f *fakeTransport, msg []byte) {
		if f.sends >= 3 {
			f.inbox = append(f.inbox, msg) // device-style echo, trailer intact
		}
	}
	ep := stopAndWait(t, ft, ReliabilityConfig{Timeout: time.Millisecond})
	body, err := ep.Call(testMsg(1, 2, 0xAB), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != wire.HeaderBytes+1 || body[wire.HeaderBytes] != 0xAB {
		t.Errorf("body %x", body)
	}
	st := ep.Stats()
	if st.Retransmits != 2 || st.Timeouts != 2 || st.Sent != 1 {
		t.Errorf("stats %+v", st)
	}
}

// TestCallSuppressesDuplicateResponses echoes every request twice; the
// duplicate must neither satisfy a later call nor leak out of Recv.
func TestCallSuppressesDuplicateResponses(t *testing.T) {
	ft := &fakeTransport{}
	ft.onSend = func(f *fakeTransport, msg []byte) {
		f.inbox = append(f.inbox, msg, append([]byte(nil), msg...))
	}
	ep := stopAndWait(t, ft, ReliabilityConfig{Timeout: time.Millisecond})
	for i := byte(1); i <= 2; i++ {
		body, err := ep.Call(testMsg(1, 2, i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if body[wire.HeaderBytes] != i {
			t.Fatalf("call %d answered by %x", i, body)
		}
	}
	// The second call's duplicate echo is still queued; Recv must
	// suppress it.
	if _, err := ep.Recv(time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("duplicate leaked through Recv: %v", err)
	}
	if st := ep.Stats(); st.Duplicates != 2 {
		t.Errorf("stats %+v", st)
	}
}

// TestCallExponentialBackoff checks the virtual-time spacing of
// retransmissions: Call's timeout replaces the configured 1ms, then
// 2, 4 and 8ms capped by MaxTimeout at 5ms. The failure is Call's
// alone: it does not stick to the endpoint's later receives.
func TestCallExponentialBackoff(t *testing.T) {
	ft := &fakeTransport{}
	ep := stopAndWait(t, ft, ReliabilityConfig{
		Timeout: time.Millisecond, MaxRetries: 3, MaxTimeout: 5 * time.Millisecond,
	})
	_, err := ep.Call(testMsg(1, 2), 2*time.Millisecond)
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("want ErrRetryBudget, got %v", err)
	}
	if want := (2 + 4 + 5 + 5) * time.Millisecond; ft.now != want {
		t.Errorf("virtual time %v, want %v", ft.now, want)
	}
	if ft.sends != 4 {
		t.Errorf("%d sends, want 4", ft.sends)
	}
	if st := ep.Stats(); st.Failures != 1 || st.InFlight != 0 {
		t.Errorf("stats %+v", st)
	}
	if _, err := ep.Recv(time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("Recv after a failed Call: %v, want ErrTimeout", err)
	}
}

// TestSendReliableAcked: the responder host acknowledges, completing
// the one-way delivery.
func TestSendReliableAcked(t *testing.T) {
	ft := &fakeTransport{}
	ft.onSend = func(f *fakeTransport, msg []byte) {
		body, sq, ok := wire.ParseSeq(msg)
		if !ok || sq.Flags&wire.SeqFlagWantAck == 0 {
			t.Errorf("reliable send lacks WantAck: %x", msg)
			return
		}
		f.inbox = append(f.inbox, wire.Seq{Seq: sq.Seq, Flags: wire.SeqFlagAck}.Append(body))
	}
	ep := stopAndWait(t, ft, ReliabilityConfig{Timeout: time.Millisecond})
	p, err := ep.SendReliable(testMsg(1, 2, 9))
	if err == nil {
		_, err = p.Wait(0)
	}
	if err != nil {
		t.Fatal(err)
	}
	st := ep.Stats()
	if st.AcksReceived != 1 || st.Retransmits != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestSendReliableBudget: no ack ever arrives; the budget must bound
// the retries and surface ErrRetryBudget.
func TestSendReliableBudget(t *testing.T) {
	ft := &fakeTransport{}
	ep := stopAndWait(t, ft, ReliabilityConfig{Timeout: time.Millisecond, MaxRetries: 2})
	p, err := ep.SendReliable(testMsg(1, 2))
	if err == nil {
		_, err = p.Wait(0)
	}
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("want ErrRetryBudget, got %v", err)
	}
	if ft.sends != 3 {
		t.Errorf("%d sends, want 3 (1 + 2 retries)", ft.sends)
	}
}

// TestRecvAcksAndDedups: a WantAck message is delivered once and
// acknowledged on every copy (the previous ack may be the one lost),
// also when the copies arrive while a Call is waiting for its reply.
func TestRecvAcksAndDedups(t *testing.T) {
	ft := &fakeTransport{}
	var acks [][]byte
	inbound := wire.Seq{Seq: 77, Flags: wire.SeqFlagWantAck}.Append(testMsg(3, 1, 5))
	ft.onSend = func(f *fakeTransport, msg []byte) {
		if _, sq, ok := wire.ParseSeq(msg); ok && sq.Flags&wire.SeqFlagAck != 0 {
			acks = append(acks, msg)
			return
		}
		// A peer's message and its retransmission race the reply.
		f.inbox = append(f.inbox, inbound, append([]byte(nil), inbound...), msg)
	}
	ep := stopAndWait(t, ft, ReliabilityConfig{})
	if _, err := ep.Call(testMsg(1, 2, 4), 0); err != nil {
		t.Fatal(err)
	}
	body, err := ep.Recv(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if body[wire.HeaderBytes] != 5 {
		t.Errorf("body %x", body)
	}
	if _, err := ep.Recv(time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("duplicate delivered: %v", err)
	}
	if len(acks) != 2 {
		t.Fatalf("%d acks sent, want 2", len(acks))
	}
	body, sq, ok := wire.ParseSeq(acks[0])
	if !ok || sq.Seq != 77 || sq.Flags&wire.SeqFlagAck == 0 {
		t.Fatalf("not an ack of 77: %x", acks[0])
	}
	var hdr wire.Header
	if _, ok := hdr.Unmarshal(body); !ok || hdr.Src != 1 || hdr.Dst != 3 {
		t.Errorf("ack header not swapped: %+v", hdr)
	}
	if hdr.To != wire.None {
		t.Errorf("ack would invoke a kernel: to=%d", hdr.To)
	}
}

// TestRecvPassthrough: untrailered messages reach the application
// unchanged — the pre-reliability wire format keeps working — and one
// arriving while a Call waits is kept for the next Recv, not dropped.
func TestRecvPassthrough(t *testing.T) {
	ft := &fakeTransport{}
	plain := testMsg(3, 1, 1, 2, 3)
	ft.onSend = func(f *fakeTransport, msg []byte) {
		f.inbox = append(f.inbox, append([]byte(nil), plain...), msg)
	}
	ep := stopAndWait(t, ft, ReliabilityConfig{})
	if _, err := ep.Call(testMsg(1, 2, 4), 0); err != nil {
		t.Fatal(err)
	}
	got, err := ep.Recv(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(plain) {
		t.Errorf("passthrough mangled: %x vs %x", got, plain)
	}
}

// TestBadReadIsStrayNotFatal: a read the transport refuses to split is
// counted; the call and the receive behind it carry on.
func TestBadReadIsStrayNotFatal(t *testing.T) {
	ft := echoTransport()
	ft.readErr = errBadRead
	ep := stopAndWait(t, ft, ReliabilityConfig{Timeout: time.Millisecond})
	if _, err := ep.Call(testMsg(1, 2, 7), 0); err != nil {
		t.Fatal(err)
	}
	ft.readErr = errBadRead
	ft.inbox = append(ft.inbox, testMsg(3, 1, 9))
	if m, err := ep.Recv(time.Millisecond); err != nil || m[wire.HeaderBytes] != 9 {
		t.Fatalf("recv: %x, %v", m, err)
	}
	if st := ep.Stats(); st.Stray != 2 {
		t.Errorf("stats %+v, want 2 stray", st)
	}
}
