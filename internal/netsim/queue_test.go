package netsim

import (
	"math"
	"strconv"
	"testing"
	"time"
)

// refSim is the event queue this package shipped before the two-tier
// one: a single 4-ary min-heap of whole event values under (at, seq).
// It survives here as the oracle the differential tests compare the
// Sim against; its run and step mirror Sim.Run and Sim.step.
type refSim struct {
	q         []event
	now       Time
	seq       uint64
	exec      func(*event)
	processed uint64
	peak      int
	bad       bool
}

func (r *refSim) less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (r *refSim) push(e event) {
	r.q = append(r.q, e)
	i := len(r.q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !r.less(&r.q[i], &r.q[p]) {
			break
		}
		r.q[i], r.q[p] = r.q[p], r.q[i]
		i = p
	}
	if len(r.q) > r.peak {
		r.peak = len(r.q)
	}
}

func (r *refSim) pop() event {
	top := r.q[0]
	n := len(r.q) - 1
	r.q[0] = r.q[n]
	r.q[n] = event{}
	r.q = r.q[:n]
	i := 0
	for {
		min := i
		c := 4*i + 1
		last := c + 4
		if last > n {
			last = n
		}
		for ; c < last; c++ {
			if r.less(&r.q[c], &r.q[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		r.q[i], r.q[min] = r.q[min], r.q[i]
		i = min
	}
	return top
}

func (r *refSim) post(delay Time, e event) {
	if delay < 0 {
		delay = 0
	}
	e.at = r.now + delay
	r.postAbs(e)
}

func (r *refSim) postAbs(e event) {
	r.seq++
	e.seq = r.seq
	if e.at != e.at {
		r.bad = true
		return
	}
	r.push(e)
}

func (r *refSim) run1() {
	e := r.pop()
	r.now = e.at
	r.processed++
	r.exec(&e)
}

func (r *refSim) run(until Time) (ok bool) {
	for !r.bad {
		if len(r.q) == 0 || (until > 0 && r.q[0].at > until) {
			if until > r.now {
				r.now = until
			}
			return true
		}
		r.run1()
	}
	return false
}

func (r *refSim) step(horizon Time) (ran, ok bool) {
	if r.bad {
		return false, false
	}
	if len(r.q) == 0 || (horizon > 0 && r.q[0].at > horizon) {
		if horizon > r.now {
			r.now = horizon
		}
		return false, true
	}
	r.run1()
	return !r.bad, !r.bad
}

// stamp is what the differential tests compare: which event ran, when.
type stamp struct {
	at  Time
	seq uint64
}

// queueDelays are the delays the differential ops draw from: ties,
// sub-bucket fractions, both sides of the 2 ns bucket edge and of each
// wheel level's reach (8192 ns, 2^25 ns, 2^37 ns, 2^49 ns), the three
// benchmark workloads' own delays, and times only the overflow list
// holds.
var queueDelays = []Time{
	0, 0, 0.125, 0.5, 1, 1.5, 1.875, 2, 2.125, 3.75, 4, 6, 100, 224.59016393442624,
	1001, 1006.48, 2000, 3500, 7600, 8189.5, 8190, 8191.875, 8192, 8192.125, 8194, 12599.875,
	16384, 1 << 25, 1<<25 - 2, 1<<25 + 2, 5e7, 1 << 37, 1<<37 + 8192, 2e11,
	1 << 49, 1<<49 - 2, 1e15, 1e300, Time(math.Inf(1)), -5,
}

// queuePair drives a Sim and the reference heap through the same
// operations and fails on the first observable difference.
type queuePair struct {
	t    *testing.T
	s    Sim
	r    refSim
	slog []stamp
	rlog []stamp
	ops  int
	// sparse makes the structural check (a scan of every wheel slot) run
	// on every eighth operation only: the fuzzer's throughput.
	sparse bool
}

func newQueuePair(t *testing.T) *queuePair {
	p := &queuePair{t: t}
	// An executed event with node > 0 schedules node children, walking
	// the delay table from port: inserts into the bucket being drained,
	// behind it, and far ahead of it.
	p.s.exec = func(e *event) {
		p.slog = append(p.slog, stamp{e.at, e.seq})
		for i := int32(0); i < e.node; i++ {
			p.s.post(queueDelays[int(e.port+i)%len(queueDelays)], event{kind: evTimer, port: e.port + i + 1})
		}
	}
	p.r.exec = func(e *event) {
		p.rlog = append(p.rlog, stamp{e.at, e.seq})
		for i := int32(0); i < e.node; i++ {
			p.r.post(queueDelays[int(e.port+i)%len(queueDelays)], event{kind: evTimer, port: e.port + i + 1})
		}
	}
	return p
}

// op applies one operation, selected and parameterised by two bytes.
func (p *queuePair) op(code, arg byte) {
	d := queueDelays[int(arg)%len(queueDelays)]
	switch code % 10 {
	case 0, 1: // plain event
		e := event{kind: evTimer, port: int32(arg)}
		p.s.post(d, e)
		p.r.post(d, e)
	case 2: // event that fans out when it runs
		e := event{kind: evTimer, node: int32(arg%5) + 1, port: int32(arg)}
		p.s.post(d, e)
		p.r.post(d, e)
	case 3: // mailbox hand-off at an absolute time, possibly in the past
		e := event{kind: evTimer, at: p.s.now + d - 3}
		p.s.postAbs(e)
		p.r.postAbs(e)
	case 4: // a burst at one instant
		for i := 0; i < int(arg%7)+2; i++ {
			e := event{kind: evTimer, port: int32(i)}
			p.s.post(d, e)
			p.r.post(d, e)
		}
	case 5, 6: // pop one
		ran, err := p.s.step(0)
		rran, rok := p.r.step(0)
		if ran != rran || (err == nil) != rok {
			p.t.Fatalf("step(0): ran=%v err=%v, reference ran=%v ok=%v", ran, err, rran, rok)
		}
	case 7: // pop one within a horizon, or time out onto it
		h := p.s.now + d
		ran, err := p.s.step(h)
		rran, rok := p.r.step(h)
		if ran != rran || (err == nil) != rok {
			p.t.Fatalf("step(%v): ran=%v err=%v, reference ran=%v ok=%v", h, ran, err, rran, rok)
		}
	case 8: // run to a horizon that lands exactly on table sums
		h := p.s.now + d
		err := p.s.Run(h)
		if rok := p.r.run(h); (err == nil) != rok {
			p.t.Fatalf("run(%v): err=%v, reference ok=%v", h, err, rok)
		}
	case 9: // peek, then schedule behind the advanced cursor
		p.s.nextAt()
		e := event{kind: evTimer, port: int32(arg)}
		p.s.post(d/64, e)
		p.r.post(d/64, e)
	}
	p.compare()
}

// compare checks everything a caller can observe, and the queue's own
// invariants.
func (p *queuePair) compare() {
	t := p.t
	t.Helper()
	if len(p.slog) != len(p.rlog) {
		t.Fatalf("%d events ran, reference ran %d", len(p.slog), len(p.rlog))
	}
	for i := range p.slog {
		if p.slog[i] != p.rlog[i] {
			t.Fatalf("event %d: ran (at %v, seq %d), reference (at %v, seq %d)",
				i, p.slog[i].at, p.slog[i].seq, p.rlog[i].at, p.rlog[i].seq)
		}
	}
	// Logs are compared incrementally: keep only what the next op adds.
	p.slog, p.rlog = p.slog[:0], p.rlog[:0]
	if p.s.now != p.r.now && !(math.IsNaN(float64(p.s.now)) && math.IsNaN(float64(p.r.now))) {
		t.Fatalf("now %v, reference %v", p.s.now, p.r.now)
	}
	if p.s.Pending() != len(p.r.q) || p.s.PeakQueue != p.r.peak || p.s.Processed != p.r.processed {
		t.Fatalf("pending/peak/processed %d/%d/%d, reference %d/%d/%d",
			p.s.Pending(), p.s.PeakQueue, p.s.Processed, len(p.r.q), p.r.peak, p.r.processed)
	}
	if (p.s.bad != nil) != p.r.bad {
		t.Fatalf("bad=%v, reference %v", p.s.bad, p.r.bad)
	}
	if p.ops++; !p.sparse || p.ops%8 == 0 {
		checkQueue(t, &p.s)
	}
}

// drain runs both queues dry and compares the tail.
func (p *queuePair) drain() {
	err := p.s.Run(0)
	if rok := p.r.run(0); (err == nil) != rok {
		p.t.Fatalf("drain: err=%v, reference ok=%v", err, rok)
	}
	p.compare()
	checkQueue(p.t, &p.s)
	if err == nil && p.s.Pending() != 0 {
		p.t.Fatalf("%d events pending after a drain", p.s.Pending())
	}
}

// checkQueue verifies the two-tier queue's structure: every pending
// event is in exactly one place, the near tier holds exactly the
// buckets the cursor has reached, far events sit inside their level's
// window in the slot their bucket names, the bitmaps mirror the lists,
// and no free cell pins a buffer or closure.
func checkQueue(t *testing.T, s *Sim) {
	t.Helper()
	seen := make(map[int32]bool)
	claim := func(ci int32, where string) *event {
		if ci <= 0 || int(ci) >= len(s.cells) || seen[ci] {
			t.Fatalf("%s: cell %d invalid or listed twice", where, ci)
		}
		seen[ci] = true
		return &s.cells[ci]
	}
	for i, k := range s.near {
		e := claim(k.cell, "near")
		if e.at != k.at || e.seq != k.seq {
			t.Fatalf("near key %d (at %v, seq %d) names cell (at %v, seq %d)", i, k.at, k.seq, e.at, e.seq)
		}
		if bucketOf(k.at) > s.cursor {
			t.Fatalf("near key at %v is in bucket %d beyond cursor %d", k.at, bucketOf(k.at), s.cursor)
		}
		if i > 0 && less(&s.near[i], &s.near[(i-1)/4]) {
			t.Fatalf("near heap order broken at %d", i)
		}
	}
	walk := func(h int32, visit func(e *event)) (n int) {
		for h != 0 {
			ch := &s.chunks[h]
			if ch.n < 1 || int(ch.n) > len(ch.idx) {
				t.Fatalf("chunk %d holds %d cells", h, ch.n)
			}
			for _, ci := range ch.idx[:ch.n] {
				visit(claim(ci, "far"))
				n++
			}
			h = ch.next
		}
		return n
	}
	for l, w := range s.wheels {
		if w == nil {
			continue
		}
		sh := uint(l) * wheelBits
		for slot := range w.head {
			n := walk(w.head[slot], func(e *event) {
				b := bucketOf(e.at)
				if b <= s.cursor || b >= overflowBucket || b>>sh&wheelMask != uint64(slot) || b>>sh-s.cursor>>sh >= wheelSlots {
					t.Fatalf("level %d slot %d holds bucket %d (cursor %d)", l, slot, b, s.cursor)
				}
			})
			if bit := w.occ[slot>>6]>>(uint(slot)&63)&1 == 1; bit != (n > 0) {
				t.Fatalf("level %d slot %d: %d cells, occupancy bit %v", l, slot, n, bit)
			}
		}
		for i, word := range w.occ {
			if (w.sum>>uint(i)&1 == 1) != (word != 0) {
				t.Fatalf("level %d: summary bit %d disagrees with word %#x", l, i, word)
			}
		}
	}
	walk(s.over, func(e *event) {
		if bucketOf(e.at) != overflowBucket || s.cursor >= overflowBucket {
			t.Fatalf("overflow list holds time %v (cursor %d)", e.at, s.cursor)
		}
	})
	if len(seen) != s.pending {
		t.Fatalf("%d cells listed, %d events pending", len(seen), s.pending)
	}
	for ci := range s.cells {
		if !seen[int32(ci)] && (s.cells[ci].buf != nil || s.cells[ci].fn != nil) {
			t.Fatalf("free cell %d still pins a buffer or closure", ci)
		}
	}
}

// TestQueueDifferential replays seeded random operation streams —
// dense ties, sparse gaps, far-future and overflow times, fan-out into
// the bucket being drained, horizons on exact event times, pushes
// behind a peeked cursor — through the two-tier queue and the
// reference heap: popped (at, seq) sequences, the clock, Pending,
// PeakQueue and Processed must agree after every operation.
func TestQueueDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		p := newQueuePair(t)
		x := seed * 0x9E3779B97F4A7C15
		for i := 0; i < 600; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			code, arg := byte(x>>33), byte(x>>41)
			if seed%4 == 0 {
				arg %= 14 // a dense profile: ties and sub-bucket delays only
			}
			p.op(code, arg)
		}
		p.drain()
	}
}

// FuzzEventQueueOrder is TestQueueDifferential with the operation
// stream chosen by the fuzzer, two bytes per operation. The op value 255
// schedules an event at NaN: both sides must refuse to run further.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0, 7, 0, 7, 5, 0, 5, 0})
	f.Add([]byte{4, 0, 2, 1, 9, 3, 8, 22, 6, 0, 3, 1, 7, 23})
	f.Add([]byte{0, 27, 0, 31, 0, 34, 0, 38, 0, 36, 8, 27, 5, 0, 9, 24, 8, 38})
	f.Add([]byte{2, 4, 2, 9, 2, 14, 8, 11, 4, 21, 4, 22, 4, 23, 7, 21, 7, 22, 6, 0})
	f.Add([]byte{0, 3, 255, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		p := newQueuePair(t)
		p.sparse = true
		for i := 0; i+1 < len(data); i += 2 {
			if data[i] == 255 {
				nan := event{kind: evTimer, at: Time(math.NaN())}
				p.s.postAbs(nan)
				p.r.postAbs(nan)
				p.compare()
				continue
			}
			p.op(data[i], data[i+1])
		}
		p.drain()
	})
}

// TestNonFiniteTimes pins the time boundary: a NaN time is reported by
// Run and StepNext instead of silently breaking the order; +Inf and
// times beyond the wheels' span wait on the overflow list and still
// run in (time, scheduling) order after everything finite.
func TestNonFiniteTimes(t *testing.T) {
	var s Sim
	var order []int
	note := func(i int) func() { return func() { order = append(order, i) } }
	s.At(Time(math.Inf(1)), note(6))
	s.At(1e300, note(5))
	s.At(1e15, note(3)) // beyond 2^49 ns: overflow
	s.At(1e15, note(4))
	s.At(5e14, note(2)) // the top wheel level
	s.At(10, note(1))
	if s.over == 0 {
		t.Fatal("no event reached the overflow list")
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order %v, want 1..6", order)
		}
	}
	if len(order) != 6 || !math.IsInf(float64(s.Now()), 1) {
		t.Fatalf("ran %d events, clock %v", len(order), s.Now())
	}

	var n Sim
	ran := 0
	n.At(5, func() { ran++; n.At(Time(math.NaN()), func() { ran += 100 }) })
	n.At(7, func() { ran += 10 })
	if err := n.RunAll(); err == nil {
		t.Fatal("Run did not report an event scheduled at NaN")
	}
	if ran != 1 {
		t.Errorf("ran=%d: the run went on past the NaN (or ran it)", ran)
	}
	if ok, err := n.StepNext(0); ok || err == nil {
		t.Errorf("StepNext after a NaN: ran=%v err=%v", ok, err)
	}
	checkQueue(t, &n)
}

// TestZeroDelayLivelockHitsBudget: an event that re-posts itself at
// delay 0 must end in the event-budget error under every engine. The
// partitioned engine used to check the budget only between windows,
// and such an event never leaves its window.
func TestZeroDelayLivelockHitsBudget(t *testing.T) {
	for _, k := range []int{0, 1, 2} {
		n, _ := chainNet(t, 1)
		if k > 0 {
			if err := n.SetPartitions(k); err != nil {
				t.Fatal(err)
			}
		}
		n.MaxEvents = 5000
		h := n.hs.at(n.hs.count - 1) // on the last device: partition k-1
		var spin func()
		spin = func() { h.At(0, spin) }
		h.At(10, spin)
		done := make(chan error, 1)
		go func() { done <- n.RunAll() }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("partitions=%d: livelock ran to completion", k)
			}
			if p := n.TotalProcessed(); p < 5000 || p > 5002 {
				t.Errorf("partitions=%d: stopped after %d events, budget 5000", k, p)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("partitions=%d: RunAll still spinning after 20 s; the event budget was not enforced inside the window", k)
		}
	}
}

// TestPeakQueueCountsBothTiers: PeakQueue is the most events pending
// at once wherever they wait — near heap, any wheel level, overflow.
func TestPeakQueueCountsBothTiers(t *testing.T) {
	var s Sim
	for i := 0; i < 10; i++ {
		s.At(0, func() {})                 // near
		s.At(Time(100+i), func() {})       // level 0
		s.At(Time(1e5+i), func() {})       // level 1
		s.At(Time(1e9), func() {})         // level 2
		s.At(Time(math.Inf(1)), func() {}) // overflow
	}
	if len(s.near) == 0 || s.wheels[0] == nil || s.wheels[1] == nil || s.wheels[2] == nil || s.over == 0 {
		t.Fatal("the events did not spread over the near heap, three wheel levels and the overflow list")
	}
	if s.PeakQueue != 50 || s.Pending() != 50 {
		t.Fatalf("PeakQueue=%d Pending=%d, want 50/50", s.PeakQueue, s.Pending())
	}
	if err := s.Run(1e6); err != nil {
		t.Fatal(err)
	}
	s.At(1, func() {})
	if s.PeakQueue != 50 || s.Pending() != 21 {
		t.Fatalf("after a partial run PeakQueue=%d Pending=%d, want 50/21", s.PeakQueue, s.Pending())
	}
}

// TestQueueSteadyStateAllocs extends the allocation guard to the far
// tier: self-re-arming timers that carry the cursor through several
// revolutions of level 0, others that wait in level 1 and are re-filed
// down, and events filed on the overflow list allocate nothing once the
// slabs are warm — there are no per-bucket slices to grow.
func TestQueueSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	var s Sim
	fired, rearm := 0, true
	s.exec = func(e *event) {
		fired++
		if e.node > 0 && rearm { // port ns ahead
			s.post(Time(e.port), event{kind: evTimer, node: 1, port: e.port})
		}
	}
	for i := int32(0); i < 64; i++ {
		s.post(Time(i), event{kind: evTimer, node: 1, port: 700 + 13*i})    // level 0
		s.post(Time(i), event{kind: evTimer, node: 1, port: 20000 + 977*i}) // level 1, then down
	}
	round := func() {
		for i := 0; i < 8; i++ {
			s.post(1e15, event{kind: evTimer}) // overflow list
		}
		if err := s.Run(s.now + 1e5); err != nil { // 12 revolutions of level 0
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	before, cursor := fired, s.cursor
	allocs := testing.AllocsPerRun(20, round)
	if s.wheels[1] == nil || s.over == 0 || s.cursor < cursor+20*10*wheelSlots {
		t.Fatalf("the rounds did not exercise level 1, the overflow list and many revolutions (cursor %d → %d)", cursor, s.cursor)
	}
	if perEvent := allocs * 21 / float64(fired-before); perEvent > 0.002 {
		t.Errorf("%.4f allocs/event with the far tier in play (want ≈0)", perEvent)
	}
	checkQueue(t, &s)
	rearm = false
	if err := s.RunAll(); err != nil { // the overflow events run too
		t.Fatal(err)
	}
	if s.over != 0 || s.Pending() != 0 {
		t.Errorf("%d events left after the drain", s.Pending())
	}
}

// holdMixes are the delay distributions of the three simulated
// benchmark workloads, measured by logging every post of a run (seed 1)
// at the parent of the commit that introduced the two-tier queue:
// {share, base ns, uniform extra ns} per event kind.
var holdMixes = map[string][][3]float64{
	// timers 100..12600 ns, host send/receive 2000, link arrival
	// 1001..1013 (serialisation + latency), device pipeline 224.59.
	"scale": {{0.20, 100, 12500}, {0.35, 2000, 0}, {0.36, 1001, 12}, {0.09, 224.59016393442624, 0}},
	"agg":   {{0.49, 2000, 0}, {0.48, 1040.44, 223}, {0.03, 296.72131147540983, 0}},
	"cache": {{0.35, 3500, 0}, {0.05, 7600, 0}, {0.40, 1037.56, 105}, {0.20, 296.72131147540983, 0}},
}

// BenchmarkEventQueueHold is the classic hold model on a bare Sim: pop
// the earliest event, schedule one more at now+Δ, with the pending set
// held at a fixed size and Δ drawn from a workload's delay mix. The
// claim it checks is that the cost per hold does not follow the size
// of the pending set.
func BenchmarkEventQueueHold(b *testing.B) {
	for _, mix := range []string{"scale", "agg", "cache"} {
		// A fixed table of draws keeps the generator out of the timing.
		table := make([]Time, 1<<14)
		x := uint64(7)
		rnd := func() float64 {
			x = x*6364136223846793005 + 1442695040888963407
			return float64(x>>11) / (1 << 53)
		}
		for i := range table {
			u := rnd()
			for _, m := range holdMixes[mix] {
				if u -= m[0]; u < 0 {
					table[i] = Time(m[1] + math.Floor(rnd()*m[2]*8)/8)
					break
				}
			}
		}
		for _, pending := range []int{3, 64, 4096, 100_000, 1_000_000} {
			b.Run(mix+"/"+strconv.Itoa(pending), func(b *testing.B) {
				var s Sim
				k := 0
				s.exec = func(*event) {
					k++
					s.post(table[k&(len(table)-1)], event{kind: evTimer})
				}
				for i := 0; i < pending; i++ {
					k++
					s.post(table[k&(len(table)-1)], event{kind: evTimer})
				}
				limit := s.limit()
				for i := 0; i < 2*pending; i++ { // reach the steady state
					s.nextAt()
					s.step1(limit)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.nextAt()
					s.step1(limit)
				}
				if s.Pending() != pending {
					b.Fatalf("%d pending, want %d", s.Pending(), pending)
				}
			})
		}
	}
}
