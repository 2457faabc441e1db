package apps

import (
	gort "runtime"
	"testing"
	"time"

	"netcl/internal/passes"
	"netcl/internal/runtime"
)

// nullTransport sinks sends instantly: the harness for measuring the
// host send path alone (pack + admit + complete), without a network.
type nullTransport struct{ now time.Duration }

func (t *nullTransport) Send([]byte) error { return nil }
func (t *nullTransport) Recv(time.Duration) ([]byte, error) {
	return nil, runtime.ErrTimeout
}
func (t *nullTransport) Now() time.Duration {
	t.now += time.Microsecond
	return t.now
}

// TestHostSendPathAllocs is the tier-1 allocation gate: the pooled
// channel send path (pack one CALC message into a pooled buffer, Post
// it to a window-64 channel over a null transport, Complete it) is
// allocation-free in steady state (it measures 0.000–0.002 allocs/msg;
// the remainder is a pool refill after a GC), so one allocation per
// message must fail. The bound is the one netsim's
// TestSteadyStateAllocsPerEvent uses. Skipped under -race like that
// test: there sync.Pool drops buffers on purpose and the path reads
// 1.0 allocs/msg.
func TestHostSendPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	_, specs, _, err := CompileApp(ByName("CALC"), passes.TargetTNA, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := specs[1]
	ch := runtime.NewChannel(&nullTransport{}, runtime.ChannelConfig{Window: 64})
	defer ch.Close()

	hdr := runtime.Message{Src: 7, Dst: 7, Device: 1, Comp: 1}.Header()
	op := []uint64{1}
	a := []uint64{0}
	b := []uint64{0}
	send := func(i int) {
		buf := runtime.GetBuf()
		a[0], b[0] = uint64(i), uint64(2*i)
		msg, err := runtime.PackAppend(*buf, spec, hdr, [][]uint64{op, a, b, nil})
		if err == nil {
			*buf = msg
			err = ch.Post(uint64(i), msg)
		}
		runtime.PutBuf(buf)
		if err != nil {
			t.Fatal(err)
		}
		ch.Complete(uint64(i))
	}
	for i := 0; i < 64; i++ { // warm the pool
		send(i)
	}
	const ops = 8192
	var before, after gort.MemStats
	gort.GC()
	gort.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		send(i)
	}
	gort.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / ops
	if allocs > 0.05 {
		t.Errorf("channel send path allocates %.3f allocs/msg, want ≈0", allocs)
	}
	t.Logf("send path: %.3f allocs/msg", allocs)
}
