// Package netsim is a deterministic discrete-event network simulator:
// hosts running Go callbacks, devices running P4 programs on the bmv2
// interpreter, and links with latency and bandwidth. It substitutes
// for the paper's physical testbed (six servers and a Tofino switch,
// §VII) in the end-to-end experiments of Figure 14.
package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is simulated time in nanoseconds.
type Time float64

// Microsecond/Millisecond helpers.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1e3
	Millisecond Time = 1e6
	Second      Time = 1e9
)

// Event kinds. evFunc is the zero value so At-scheduled closures need
// no initialization; every other kind is a closure-free record whose
// meaning lives entirely in the packed index fields, dispatched by the
// switch in events.go. The steady-state network path (send → transmit
// → device pipeline → deliver → receive) schedules only typed events,
// so a million-host run allocates nothing per event.
const (
	evFunc     uint8 = iota // fn: generic closure (timers, tests, drivers)
	evHostSend              // node: host idx; buf: chain of framed packets
	evArrive                // link+dir: packet reaches the far end of a link
	evDevFwd                // node: device idx; port: unicast egress port
	evDevMcast              // node: device idx; port: multicast group id
	evHostRecv              // node: host idx; buf: frame for the Receive callback
	evTimer                 // node: host idx; fires the network's OnTimer hook
)

// event is one scheduled occurrence: a tagged union ordered by
// (time, seq). The 48-byte value is written once into a slab cell when
// it is scheduled and read once when it runs; ordering never moves it.
// at and seq are its first and last words on purpose: loading a bucket
// reads those two, which pulls in both cache lines of a cell that
// straddles one before pop reads the whole cell.
type event struct {
	at   Time
	buf  *pbuf  // pooled packet buffer (typed kinds)
	fn   func() // evFunc only
	link int32
	node int32
	port int32
	kind uint8
	dir  uint8
	seq  uint64
}

// Queue geometry (DESIGN.md §12 has the measurements behind it). An
// event's bucket is floor(at / 2 ns), a monotone function of its time,
// so ordering buckets never contradicts ordering times. Each wheel level
// is a ring of wheelSlots buckets, level l's bucket spanning
// wheelSlots^l level-0 buckets: 8 µs, 33 ms, 137 s and 6.5 days of
// reach. Buckets from overflowBucket up (2^49 ns, +Inf) share one list.
const (
	bucketsPerNs   = 0.5
	wheelBits      = 12
	wheelSlots     = 1 << wheelBits
	wheelMask      = wheelSlots - 1
	wheelLevels    = 4
	overflowBucket = 1 << (wheelBits * wheelLevels)
	smallQueue     = 8  // below this a queue with no far events stays a heap (postAbs)
	chunkCells     = 14 // makes a chunk one 64-byte cache line
)

// bucketOf maps a time to its bucket number. The caller has rejected
// NaN; negative times share bucket 0 and everything from overflowBucket
// up (including +Inf) shares overflowBucket, so the float→int
// conversion only ever sees a value it represents.
func bucketOf(at Time) uint64 {
	x := float64(at) * bucketsPerNs
	if !(x < overflowBucket) {
		return overflowBucket
	}
	if x < 1 {
		return 0
	}
	return uint64(x)
}

// qkey is what the near heap orders; cell holds the rest of the event.
type qkey struct {
	at   Time
	seq  uint64
	cell int32
}

// chunk is one cache line of a bucket's list: cell indices and the next
// chunk. Loading a bucket reads the cells a chunk names; with the
// indices side by side those reads are independent and their cache
// misses overlap, which a list linked through the cells would serialise.
type chunk struct {
	next int32
	n    int32
	idx  [chunkCells]int32
}

// wheel is one level of the far tier: per-bucket list heads into the
// chunk slab and a two-level occupancy bitmap (sum bit w set iff occ[w]
// != 0), so the next occupied bucket is two bit scans away.
type wheel struct {
	head [wheelSlots]int32
	occ  [wheelSlots / 64]uint64
	sum  uint64
}

// next returns the circular distance (1..wheelSlots-1) from slot p to
// the next occupied slot. The wheel must be non-empty; the cursor's own
// slot p never is occupied.
func (w *wheel) next(p uint64) uint64 {
	q := (p + 1) & wheelMask
	wi := q >> 6
	if m := w.occ[wi] >> (q & 63); m != 0 {
		return 1 + uint64(bits.TrailingZeros64(m))
	}
	// Words after q's, else wrap to the first occupied word: if that is
	// q's own word, its bits at and above q were just seen empty.
	m := w.sum &^ (1<<(wi+1) - 1)
	if m == 0 {
		m = w.sum
	}
	k := uint64(bits.TrailingZeros64(m))
	slot := k<<6 + uint64(bits.TrailingZeros64(w.occ[k]))
	return (slot - p) & wheelMask
}

// Sim is the event engine. Events at equal times run in scheduling
// order, so runs are reproducible.
//
// The queue has two tiers under one (time, seq) order (DESIGN.md §12).
// Events whose bucket the cursor has reached sit in the near tier, a
// 4-ary min-heap of 24-byte keys; every other event is filed in O(1) on
// its bucket's list, in the wheel level whose window reaches it. Near
// events precede far ones by bucket number and the heap breaks ties
// inside a bucket by seq, so the pop order is the one a single heap over
// all events gives (refSim in queue_test.go), whatever number is pending.
type Sim struct {
	near    []qkey  // events with bucket <= cursor
	cells   []event // slab; free cells are chained through link
	free    int32   // free-cell list head
	chunks  []chunk // slab; free chunks are chained through next
	cfree   int32   // free-chunk list head
	over    int32   // overflow list head
	cursor  uint64  // bucket the near tier has reached
	wheels  [wheelLevels]*wheel
	pending int
	now     Time
	seq     uint64
	bad     error // first scheduling error (a NaN time); Run and StepNext report it
	// exec dispatches typed (non-evFunc) events; a Network binds it to
	// the owning partition's dispatch switch. A bare Sim (exec nil)
	// carries closure events only.
	exec func(*event)
	// cur is the event being dispatched; pop copies it here straight from
	// its cell. Passing &cur (not the address of a local) through the
	// exec func value keeps the event off the heap — escape analysis
	// cannot see through exec. Dispatch must not read the event after
	// invoking a user callback that could pump the simulator recursively.
	cur event
	// Processed counts executed events (a runaway guard for tests).
	Processed uint64
	// MaxEvents aborts runs beyond this many events (0 = no limit).
	MaxEvents uint64
	// PeakQueue is the high-water mark of pending events, both tiers.
	PeakQueue int
	// ExecWall accumulates real time spent inside Run/StepNext, for
	// events-per-second reporting.
	ExecWall time.Duration
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn after delay.
func (s *Sim) At(delay Time, fn func()) {
	s.post(delay, event{fn: fn})
}

// post schedules a typed event after delay, stamping time and
// scheduling order.
func (s *Sim) post(delay Time, e event) {
	if delay < 0 {
		delay = 0
	}
	e.at = s.now + delay
	s.postAbs(e)
}

// postAbs enqueues an event that already carries its absolute time
// (a mailbox hand-off from another partition), assigning it the next
// local scheduling-order number.
func (s *Sim) postAbs(e event) {
	s.seq++
	e.seq = s.seq
	if e.at != e.at {
		if s.bad == nil {
			s.bad = fmt.Errorf("netsim: event %d scheduled at NaN time", e.seq)
		}
		return
	}
	ci := s.free
	if ci != 0 {
		s.free = s.cells[ci].link
	} else {
		if len(s.cells) == 0 { // first use: index 0 of either slab means "none"
			s.cells, s.chunks = make([]event, 1, 16), make([]chunk, 1, 4)
		}
		ci = int32(len(s.cells))
		s.cells = append(s.cells, event{})
	}
	s.cells[ci] = e
	s.pending++
	if s.pending > s.PeakQueue {
		s.PeakQueue = s.pending
	}
	if b := bucketOf(e.at); b > s.cursor {
		far := s.pending - 1 - len(s.near)
		if far > 0 || len(s.near) >= smallQueue || b-s.cursor >= wheelSlots {
			s.file(ci, b)
			return
		}
		// Nothing waits in the wheels and little here: any cursor is a
		// valid one, and a heap this small beats a trip through a bucket.
		s.cursor = b
	}
	s.pushNear(qkey{at: e.at, seq: e.seq, cell: ci})
}

// file appends cell ci to the list of bucket b (> cursor): at the lowest
// level whose window of wheelSlots buckets reaches b, else on overflow.
func (s *Sim) file(ci int32, b uint64) {
	head := &s.over
	if b < overflowBucket {
		l, sh := 0, uint(0)
		for b>>sh-s.cursor>>sh >= wheelSlots {
			l++
			sh += wheelBits
		}
		w := s.wheels[l]
		if w == nil {
			w = new(wheel)
			s.wheels[l] = w
		}
		slot := b >> sh & wheelMask
		w.occ[slot>>6] |= 1 << (slot & 63)
		w.sum |= 1 << (slot >> 6)
		head = &w.head[slot]
	}
	h := *head
	if h == 0 || s.chunks[h].n == chunkCells {
		nh := s.cfree
		if nh != 0 {
			s.cfree = s.chunks[nh].next
		} else {
			nh = int32(len(s.chunks))
			s.chunks = append(s.chunks, chunk{})
		}
		s.chunks[nh] = chunk{next: h}
		h, *head = nh, nh
	}
	c := &s.chunks[h]
	c.idx[c.n] = ci
	c.n++
}

// advance refills the empty near tier: the cursor jumps to the earliest
// occupied bucket start of any level and every bucket starting there is
// unloaded — level 0 into the near heap, a higher level (whose bucket
// now covers the cursor) down. The overflow list comes last: all of it
// joins the heap, and with the cursor on overflowBucket so do later events.
func (s *Sim) advance() {
	for len(s.near) == 0 {
		var start [wheelLevels]uint64
		best := uint64(overflowBucket)
		for l, w := range s.wheels {
			start[l] = overflowBucket
			if w != nil && w.sum != 0 {
				sh := uint(l) * wheelBits
				c := s.cursor >> sh
				start[l] = (c + w.next(c&wheelMask)) << sh
			}
			best = min(best, start[l])
		}
		s.cursor = best
		if best == overflowBucket {
			s.unload(&s.over)
		}
		for l, w := range s.wheels {
			if start[l] == best && best < overflowBucket {
				slot := best >> (uint(l) * wheelBits) & wheelMask
				if w.occ[slot>>6] &^= 1 << (slot & 63); w.occ[slot>>6] == 0 {
					w.sum &^= 1 << (slot >> 6)
				}
				s.unload(&w.head[slot])
			}
		}
		for i := (len(s.near)+2)/4 - 1; i >= 0; i-- { // from the last parent up
			siftDown(s.near, i)
		}
	}
}

// unload empties one bucket's list: events the cursor has reached are
// appended to the near tier (advance heapifies it), the rest filed again.
func (s *Sim) unload(head *int32) {
	h := *head
	*head = 0
	for h != 0 {
		ch := s.chunks[h] // by value, freed first: file may reuse it or grow the slab
		s.chunks[h].next, s.cfree = s.cfree, h
		h = ch.next
		for _, ci := range ch.idx[:ch.n] {
			e := &s.cells[ci]
			if b := bucketOf(e.at); b > s.cursor {
				s.file(ci, b)
			} else {
				s.near = append(s.near, qkey{at: e.at, seq: e.seq, cell: ci})
			}
		}
	}
}

func less(a, b *qkey) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// pushNear adds a key to the near heap (parent of i is (i-1)/4).
func (s *Sim) pushNear(k qkey) {
	s.near = append(s.near, k)
	q := s.near
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !less(&q[i], &q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// siftDown restores heap order below i (children 4i+1..4i+4).
func siftDown(q []qkey, i int) {
	for {
		lo := i
		c := 4*i + 1
		for last := min(c+4, len(q)); c < last; c++ {
			if less(&q[c], &q[lo]) {
				lo = c
			}
		}
		if lo == i {
			return
		}
		q[i], q[lo] = q[lo], q[i]
		i = lo
	}
}

// nextAt reports the time of the earliest pending event, advancing the
// cursor to it if the near tier is empty.
func (s *Sim) nextAt() (Time, bool) {
	if len(s.near) == 0 {
		if s.pending == 0 {
			return 0, false
		}
		s.advance()
	}
	return s.near[0].at, true
}

// pop moves the earliest event (nextAt has made the near tier
// non-empty) into cur; its cell goes back on the free list with its
// pointers cleared, so the slab pins neither the closure nor the buffer.
func (s *Sim) pop() {
	q := s.near
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	s.near = q[:n]
	siftDown(s.near, 0)
	c := &s.cells[top.cell]
	s.cur = *c
	c.buf, c.fn = nil, nil
	c.link = s.free
	s.free = top.cell
	s.pending--
}

// limit is MaxEvents as a cap on Processed.
func (s *Sim) limit() uint64 {
	if s.MaxEvents == 0 {
		return math.MaxUint64
	}
	return s.MaxEvents
}

// step1 pops the earliest event and executes it, unless it is the one
// that takes Processed past limit (the event budget).
func (s *Sim) step1(limit uint64) error {
	s.pop()
	s.now = s.cur.at
	s.Processed++
	if s.Processed > limit {
		return fmt.Errorf("netsim: event budget exceeded (%d)", limit)
	}
	if s.cur.kind == evFunc {
		s.cur.fn()
	} else {
		s.exec(&s.cur)
	}
	return s.bad
}

// addWall adds the wall time since start to ExecWall (deferred by callers).
func (s *Sim) addWall(start time.Time) { s.ExecWall += time.Since(start) }

// Run processes events until the queue is empty or the given horizon
// is reached; with a horizon, the clock always lands exactly on it
// (even when the queue drains early), matching StepNext's timeout
// semantics. It returns an error if MaxEvents is exceeded or an event
// was scheduled at NaN time.
func (s *Sim) Run(until Time) error {
	if err := s.runWindow(Time(math.Inf(1)), until, s.limit()); err != nil {
		return err
	}
	if until > s.now {
		s.now = until
	}
	return nil
}

// RunAll processes every pending event.
func (s *Sim) RunAll() error { return s.Run(0) }

// runWindow processes events strictly before wEnd (and not beyond
// until when until > 0): one conservative-lookahead round, and the one
// run loop (Sim.Run is a single window of +Inf). limit caps Processed
// at what is left of the network-wide MaxEvents, so an event that
// re-posts itself into the window forever stops it. It returns the
// error that stopped it; the network's coordinator instead sums
// Processed and reads bad after the barrier.
func (s *Sim) runWindow(wEnd, until Time, limit uint64) error {
	defer s.addWall(time.Now())
	for s.bad == nil {
		at, ok := s.nextAt()
		// An infinite window admits events at +Inf too.
		if !ok || (at >= wEnd && !math.IsInf(float64(wEnd), 1)) || (until > 0 && at > until) {
			return nil
		}
		if err := s.step1(limit); err != nil {
			return err
		}
	}
	return s.bad
}

// StepNext executes the next pending event if it is scheduled at or
// before horizon (0 = any). It reports whether an event ran; when no
// eligible event exists and a horizon is given, the clock advances to
// the horizon so blocking receivers observe the timeout.
func (s *Sim) StepNext(horizon Time) (bool, error) {
	defer s.addWall(time.Now())
	return s.step(horizon)
}

// step is StepNext without the wall-clock accounting: a caller that
// pumps many events in one loop times the loop once.
func (s *Sim) step(horizon Time) (bool, error) {
	if s.bad != nil {
		return false, s.bad
	}
	at, ok := s.nextAt()
	if !ok || (horizon > 0 && at > horizon) {
		if horizon > s.now {
			s.now = horizon
		}
		return false, nil
	}
	err := s.step1(s.limit())
	return err == nil, err
}

// Pending reports queued events.
func (s *Sim) Pending() int { return s.pending }

// EventsPerSec reports the event execution rate over the wall time
// spent inside Run/StepNext (0 until anything ran).
func (s *Sim) EventsPerSec() float64 {
	if s.ExecWall <= 0 {
		return 0
	}
	return float64(s.Processed) / s.ExecWall.Seconds()
}
