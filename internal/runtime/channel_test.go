package runtime

import (
	"errors"
	"slices"
	"testing"
	"time"

	"netcl/internal/wire"
)

// fakeBatchTransport is fakeTransport plus both batching extensions, so
// tests can observe what leaves in one send operation and hand the
// channel a read that carries several messages.
type fakeBatchTransport struct {
	fakeTransport
	batches [][]int // sizes of each SendBatch call
}

// RecvBatch returns the whole inbox as one read.
func (f *fakeBatchTransport) RecvBatch(timeout time.Duration) ([][]byte, error) {
	if err := f.readErr; err != nil {
		f.readErr = nil
		return nil, err
	}
	if len(f.inbox) == 0 {
		f.now += timeout
		return nil, ErrTimeout
	}
	f.now += time.Microsecond
	msgs := f.inbox
	f.inbox = nil
	return msgs, nil
}

// sizes flattens the recorded batch sizes.
func (f *fakeBatchTransport) sizes() []int {
	var out []int
	for _, b := range f.batches {
		out = append(out, b[0])
	}
	return out
}

// echoBatchTransport reflects every message back, like echoTransport.
func echoBatchTransport() *fakeBatchTransport {
	ft := &fakeBatchTransport{}
	ft.onSend = func(f *fakeTransport, msg []byte) { f.inbox = append(f.inbox, msg) }
	return ft
}

func (f *fakeBatchTransport) SendBatch(msgs [][]byte) error {
	f.batches = append(f.batches, []int{len(msgs)})
	for _, m := range msgs {
		if err := f.Send(m); err != nil {
			return err
		}
	}
	return nil
}

// echoTransport wires onSend to reflect every message back, the
// fake-device behavior (trailer rides along untouched).
func echoTransport() *fakeTransport {
	ft := &fakeTransport{}
	ft.onSend = func(f *fakeTransport, msg []byte) {
		f.inbox = append(f.inbox, msg)
	}
	return ft
}

// TestChannelCallPipelined issues more calls than the window and
// checks every response lands on its own Pending, with occupancy
// capped at the window.
func TestChannelCallPipelined(t *testing.T) {
	ft := echoTransport()
	ch := NewChannel(ft, ChannelConfig{Window: 4, Reliability: ReliabilityConfig{Timeout: time.Millisecond}})
	defer ch.Close()
	const ops = 10
	pend := make([]*Pending, ops)
	for i := 0; i < ops; i++ {
		var err error
		pend[i], err = ch.CallAsync(testMsg(1, 2, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range pend {
		resp, err := p.Wait(0)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp[wire.HeaderBytes] != byte(i) {
			t.Errorf("call %d answered with %#x", i, resp[wire.HeaderBytes])
		}
	}
	st := ch.Stats()
	if st.Sent != ops || st.Completed != ops || st.Retransmits != 0 {
		t.Errorf("stats %+v", st)
	}
	if st.PeakInFlight > 4 {
		t.Errorf("window 4 overshot: peak %d in flight", st.PeakInFlight)
	}
	if st.InFlight != 0 {
		t.Errorf("window not drained: %d in flight", st.InFlight)
	}
}

// TestChannelBackoffBudget pins the retransmission schedule to the
// stop-and-wait contract: per-attempt timeouts 1, 2, 4ms then capped
// at 5ms, four transmissions total, failing at 12ms virtual time.
func TestChannelBackoffBudget(t *testing.T) {
	ft := &fakeTransport{}
	ch := NewChannel(ft, ChannelConfig{Window: 1, Reliability: ReliabilityConfig{
		Timeout: time.Millisecond, MaxRetries: 3, MaxTimeout: 5 * time.Millisecond,
	}})
	defer ch.Close()
	p, err := ch.CallAsync(testMsg(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(0); !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("want ErrRetryBudget, got %v", err)
	}
	if want := (1 + 2 + 4 + 5) * time.Millisecond; ft.now != want {
		t.Errorf("virtual time %v, want %v", ft.now, want)
	}
	if ft.sends != 4 {
		t.Errorf("%d sends, want 4", ft.sends)
	}
	st := ch.Stats()
	if st.Failures != 1 || st.Retransmits != 3 || st.Timeouts != 4 {
		t.Errorf("stats %+v", st)
	}
	if err := ch.Err(); err != nil {
		t.Errorf("a failure its Wait returned also stuck: %v", err)
	}
}

// TestChannelFixedBackoff: a Backoff factor of 1 keeps the cadence
// fixed — the slot-protocol drivers rely on it.
func TestChannelFixedBackoff(t *testing.T) {
	ft := &fakeTransport{}
	ch := NewChannel(ft, ChannelConfig{Window: 1, Reliability: ReliabilityConfig{
		Timeout: 2 * time.Millisecond, MaxRetries: 3, Backoff: 1,
	}})
	defer ch.Close()
	p, _ := ch.CallAsync(testMsg(1, 2))
	if _, err := p.Wait(0); !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("want ErrRetryBudget, got %v", err)
	}
	if want := 4 * 2 * time.Millisecond; ft.now != want {
		t.Errorf("virtual time %v, want %v (fixed 2ms cadence)", ft.now, want)
	}
}

// TestChannelPostComplete: posted entries retransmit until the
// application resolves them by token; unknown tokens report false.
func TestChannelPostComplete(t *testing.T) {
	ft := &fakeTransport{}
	ch := NewChannel(ft, ChannelConfig{Window: 2, Reliability: ReliabilityConfig{Timeout: time.Millisecond}})
	defer ch.Close()
	if err := ch.Post(100, testMsg(1, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ch.Post(200, testMsg(1, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if ch.Complete(999) {
		t.Error("unknown token completed")
	}
	if !ch.Complete(100) || !ch.Complete(200) {
		t.Error("posted tokens did not complete")
	}
	if ch.Complete(100) {
		t.Error("token completed twice")
	}
	if err := ch.Drain(0); err != nil {
		t.Fatal(err)
	}
	st := ch.Stats()
	if st.Completed != 2 || st.InFlight != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestChannelPostRetransmits: an unresolved posted entry rides the
// shared timer, then exhausts its budget into the sticky error that
// Recv and Drain surface.
func TestChannelPostRetransmits(t *testing.T) {
	ft := &fakeTransport{}
	ch := NewChannel(ft, ChannelConfig{Window: 1, Reliability: ReliabilityConfig{
		Timeout: time.Millisecond, MaxRetries: 2, Backoff: 1,
	}})
	defer ch.Close()
	if err := ch.Post(7, testMsg(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := ch.Drain(0); !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("want ErrRetryBudget from Drain, got %v", err)
	}
	if ft.sends != 3 {
		t.Errorf("%d sends, want 3 (1 + 2 retries)", ft.sends)
	}
	if _, err := ch.Recv(time.Millisecond); !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("want sticky ErrRetryBudget from Recv, got %v", err)
	}
}

// TestChannelSendReliableAck: the ack completes the entry; the ack
// itself is counted.
func TestChannelSendReliableAck(t *testing.T) {
	ft := &fakeTransport{}
	ft.onSend = func(f *fakeTransport, msg []byte) {
		body, sq, ok := wire.ParseSeq(msg)
		if !ok || sq.Flags&wire.SeqFlagWantAck == 0 {
			t.Errorf("reliable send lacks WantAck: %x", msg)
			return
		}
		f.inbox = append(f.inbox, wire.Seq{Seq: sq.Seq, Flags: wire.SeqFlagAck}.Append(body))
	}
	ch := NewChannel(ft, ChannelConfig{Window: 2, Reliability: ReliabilityConfig{Timeout: time.Millisecond}})
	defer ch.Close()
	p, err := ch.SendReliable(testMsg(1, 2, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(0); err != nil {
		t.Fatal(err)
	}
	if st := ch.Stats(); st.AcksReceived != 1 || st.Retransmits != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestChannelDuplicateResponses: a device echoing twice completes the
// call once; the duplicate is suppressed by the anti-replay window,
// not delivered.
func TestChannelDuplicateResponses(t *testing.T) {
	ft := &fakeTransport{}
	ft.onSend = func(f *fakeTransport, msg []byte) {
		f.inbox = append(f.inbox, msg, append([]byte(nil), msg...))
	}
	ch := NewChannel(ft, ChannelConfig{Window: 1, Reliability: ReliabilityConfig{Timeout: time.Millisecond}})
	defer ch.Close()
	if _, err := ch.Call(testMsg(1, 2, 1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Recv(time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("duplicate response leaked out of Recv: %v", err)
	}
	if st := ch.Stats(); st.Duplicates != 1 {
		t.Errorf("stats %+v", st)
	}
}

// TestChannelRecvAcksInbound: inbound WantAck traffic is delivered
// once and acknowledged on every copy.
func TestChannelRecvAcksInbound(t *testing.T) {
	ft := &fakeTransport{}
	var acks [][]byte
	ft.onSend = func(f *fakeTransport, msg []byte) { acks = append(acks, msg) }
	inbound := wire.Seq{Seq: 77, Flags: wire.SeqFlagWantAck}.Append(testMsg(3, 1, 5))
	ft.inbox = append(ft.inbox, inbound, append([]byte(nil), inbound...))

	ch := NewChannel(ft, ChannelConfig{Window: 1})
	defer ch.Close()
	body, err := ch.Recv(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if body[wire.HeaderBytes] != 5 {
		t.Errorf("body %x", body)
	}
	if _, err := ch.Recv(time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("duplicate delivered: %v", err)
	}
	if len(acks) != 2 {
		t.Fatalf("%d acks sent, want 2", len(acks))
	}
	ackBody, sq, ok := wire.ParseSeq(acks[0])
	if !ok || sq.Seq != 77 || sq.Flags&wire.SeqFlagAck == 0 {
		t.Fatalf("not an ack of 77: %x", acks[0])
	}
	var hdr wire.Header
	if _, ok := hdr.Unmarshal(ackBody); !ok || hdr.Src != 1 || hdr.Dst != 3 || hdr.To != wire.None {
		t.Errorf("ack header wrong: %+v", hdr)
	}
}

// TestChannelPassthrough: untrailered inbound messages reach the
// application unchanged.
func TestChannelPassthrough(t *testing.T) {
	ft := &fakeTransport{}
	plain := testMsg(3, 1, 1, 2, 3)
	ft.inbox = append(ft.inbox, append([]byte(nil), plain...))
	ch := NewChannel(ft, ChannelConfig{Window: 1})
	defer ch.Close()
	got, err := ch.Recv(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(plain) {
		t.Errorf("passthrough mangled: %x vs %x", got, plain)
	}
}

// TestChannelBatchedRetransmits: entries due together go out through
// one SendBatch call when the transport supports it.
func TestChannelBatchedRetransmits(t *testing.T) {
	ft := &fakeBatchTransport{}
	ch := NewChannel(ft, ChannelConfig{Window: 4, Reliability: ReliabilityConfig{
		Timeout: time.Millisecond, MaxRetries: 1, Backoff: 1,
	}})
	defer ch.Close()
	for i := 0; i < 3; i++ {
		if err := ch.Post(uint64(i), testMsg(1, 2, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The first pass sends the three staged messages as one batch; past
	// the shared deadline all three retransmit as one more.
	ch.Drain(0)
	if got := ft.sizes(); !slices.Equal(got, []int{3, 3}) {
		t.Errorf("batches %v, want [3 3]", got)
	}
	if st := ch.Stats(); st.Retransmits != 3 {
		t.Errorf("stats %+v", st)
	}
}

// TestChannelCloseAbandons: Close resolves pending entries with
// ErrWindowClosed without making it sticky.
func TestChannelCloseAbandons(t *testing.T) {
	ft := &fakeTransport{}
	ch := NewChannel(ft, ChannelConfig{Window: 2, Reliability: ReliabilityConfig{Timeout: time.Second}})
	p, err := ch.CallAsync(testMsg(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	ch.Close()
	if _, err := p.Wait(0); !errors.Is(err, ErrWindowClosed) {
		t.Fatalf("want ErrWindowClosed, got %v", err)
	}
	if _, err := ch.CallAsync(testMsg(1, 2)); !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("send on closed channel: %v", err)
	}
	if err := ch.Err(); err != nil {
		t.Errorf("abandonment stuck as channel error: %v", err)
	}
}

// TestChannelGauges: Stats tracks window occupancy and its peak.
func TestChannelGauges(t *testing.T) {
	ft := echoTransport()
	ch := NewChannel(ft, ChannelConfig{
		Window:      3,
		Reliability: ReliabilityConfig{Timeout: time.Millisecond},
	})
	defer ch.Close()
	pend := make([]*Pending, 6)
	for i := range pend {
		var err error
		if pend[i], err = ch.CallAsync(testMsg(1, 2, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pend {
		if _, err := p.Wait(0); err != nil {
			t.Fatal(err)
		}
	}
	st := ch.Stats()
	if st.InFlight != 0 {
		t.Errorf("in flight %d after drain, want 0", st.InFlight)
	}
	if st.PeakInFlight < 1 || st.PeakInFlight > 3 {
		t.Errorf("in-flight peak %d, want within (0,3]", st.PeakInFlight)
	}
}

// TestChannelWindowFillIsOneFlush: admitting stages; the service pass of
// the first pumping call sends the whole window as one SendBatch.
func TestChannelWindowFillIsOneFlush(t *testing.T) {
	ft := echoBatchTransport()
	ch := NewChannel(ft, ChannelConfig{Window: 8})
	defer ch.Close()
	pend := make([]*Pending, 8)
	for i := range pend {
		var err error
		if pend[i], err = ch.CallAsync(testMsg(1, 2, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if ft.sends != 0 {
		t.Fatalf("%d messages sent by admit alone", ft.sends)
	}
	for i, p := range pend {
		if resp, err := p.Wait(0); err != nil || resp[wire.HeaderBytes] != byte(i) {
			t.Fatalf("call %d: %x %v", i, resp, err)
		}
	}
	if got := ft.sizes(); !slices.Equal(got, []int{8}) {
		t.Errorf("batches %v, want one of 8", got)
	}
	if st := ch.Stats(); st.Sent != 8 || st.Flushes != 1 {
		t.Errorf("stats %+v, want Sent 8 in 1 flush", st)
	}
}

// TestChannelCallIsOneMessagePerFlush: stop-and-wait pays no batching
// delay — every Call is one send of one message, then one receive.
func TestChannelCallIsOneMessagePerFlush(t *testing.T) {
	ft := echoBatchTransport()
	ch := NewChannel(ft, ChannelConfig{Window: 1})
	defer ch.Close()
	for i := 0; i < 5; i++ {
		if _, err := ch.Call(testMsg(1, 2, byte(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := ft.sizes(); !slices.Equal(got, []int{1, 1, 1, 1, 1}) {
		t.Errorf("batches %v, want five of 1", got)
	}
}

// TestChannelReadDispatchedWholeBeforeFlush pins the batch size of the
// closed-loop ring (wait for the oldest, admit one more): the k replies
// of one read complete k entries before the pump looks at its condition
// again, so the k re-admissions that follow are staged while the later
// Waits return at once, and leave together. A pump that returned after
// the first reply of a read would send batches of one.
func TestChannelReadDispatchedWholeBeforeFlush(t *testing.T) {
	const window, rounds = 4, 3
	ft := echoBatchTransport()
	ch := NewChannel(ft, ChannelConfig{Window: window})
	defer ch.Close()
	ring := make([]*Pending, window)
	for i := 0; i < (rounds+1)*window; i++ {
		if p := ring[i%window]; p != nil {
			if _, err := p.Wait(0); err != nil {
				t.Fatal(err)
			}
		}
		if i < rounds*window {
			var err error
			if ring[i%window], err = ch.CallAsync(testMsg(1, 2, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := ft.sizes(); !slices.Equal(got, []int{window, window, window}) {
		t.Errorf("batches %v, want %d of %d", got, rounds, window)
	}
}

// TestChannelCloseReleasesStaged: entries admitted but never sent are
// abandoned like any other, and nothing of them is sent afterwards.
func TestChannelCloseReleasesStaged(t *testing.T) {
	ft := &fakeBatchTransport{}
	ch := NewChannel(ft, ChannelConfig{Window: 4})
	p, err := ch.CallAsync(testMsg(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Post(9, testMsg(1, 2)); err != nil {
		t.Fatal(err)
	}
	ch.Close()
	if _, err := p.Wait(0); !errors.Is(err, ErrWindowClosed) {
		t.Errorf("staged call after Close: %v", err)
	}
	if st := ch.Stats(); st.InFlight != 0 || st.Failures != 2 || len(ch.staged) != 0 {
		t.Errorf("stats %+v, %d staged", st, len(ch.staged))
	}
	if ft.sends != 0 {
		t.Errorf("%d messages sent", ft.sends)
	}
}

// TestChannelCompleteBeforeFlush: a posted entry completed before any
// pump ran is never sent, and its slot is reusable at once.
func TestChannelCompleteBeforeFlush(t *testing.T) {
	ft := &fakeBatchTransport{}
	ch := NewChannel(ft, ChannelConfig{Window: 2})
	defer ch.Close()
	for i := 0; i < 10; i++ {
		if err := ch.Post(uint64(i), testMsg(1, 2, byte(i))); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 && !ch.Complete(uint64(i)) {
			t.Fatalf("token %d not pending", i)
		}
		if i%2 == 1 {
			if err := ch.Post(100, testMsg(1, 2, 0xFF)); err != nil {
				t.Fatal(err)
			}
			ch.Complete(uint64(i))
			ch.Complete(100)
		}
	}
	if err := ch.Drain(0); err != nil {
		t.Fatal(err)
	}
	if len(ch.staged) != 0 || ft.sends != 0 {
		t.Errorf("%d staged, %d sent, want none", len(ch.staged), ft.sends)
	}
}

// TestChannelBadReadIsStray: a read the transport refuses to split is
// counted and the pump carries on to the reply behind it.
func TestChannelBadReadIsStray(t *testing.T) {
	ft := echoBatchTransport()
	ft.readErr = errBadRead
	ch := NewChannel(ft, ChannelConfig{Window: 1})
	defer ch.Close()
	if _, err := ch.Call(testMsg(1, 2, 7), 0); err != nil {
		t.Fatal(err)
	}
	if st := ch.Stats(); st.Stray != 1 || st.Completed != 1 {
		t.Errorf("stats %+v", st)
	}
}
