package bmv2

import "sync/atomic"

// Register files are allocated lazily, in fixed-size pages: a declared
// register costs only its page-pointer directory until some cell is
// written, and a program that touches a narrow band of a wide array
// (Paxos instance logs, NetCache sketches, per-rack slot spaces on a
// fabric leaf) materializes just the pages it writes. Unwritten cells
// read as their declared initial value; pages carrying nonzero Init
// values are materialized at construction so the lazy default is
// always zero.
//
// Concurrency follows the shard-by-flow contract for cell data (two
// packets touching one cell run on one goroutine), but page
// installation can race across cells of the same page, so the
// directory is atomic and installs go through a CAS: every racer ends
// up on the same zero-filled page, and a concurrent reader of another
// cell sees either nil (reads the zero default) or the published page
// (reads the same zero) — never a torn state.

// regPageShift sizes a page at 1024 cells = 8 KiB.
const (
	regPageShift = 10
	regPageSize  = 1 << regPageShift
	regPageMask  = regPageSize - 1
)

type regPage [regPageSize]uint64

// regfile is one register's lazily-paged cell array.
type regfile struct {
	size  int // declared cell count
	bits  int // declared cell width
	pages []atomic.Pointer[regPage]
	live  atomic.Int64 // pages materialized (stats)
}

// newRegfile builds the page directory and materializes only the pages
// covered by nonzero initial values.
func newRegfile(size, bits int, init []int64) *regfile {
	rf := &regfile{size: size, bits: bits}
	rf.pages = make([]atomic.Pointer[regPage], (size+regPageSize-1)/regPageSize)
	m := maskOf(bits)
	for i, v := range init {
		if i >= size {
			break
		}
		if uint64(v)&m == 0 {
			continue
		}
		rf.store(i, uint64(v)&m)
	}
	return rf
}

// load reads a cell; an unmaterialized page reads as zero. The caller
// bounds-checks idx against rf.size.
func (rf *regfile) load(idx int) uint64 {
	p := rf.pages[idx>>regPageShift].Load()
	if p == nil {
		return 0
	}
	return p[idx&regPageMask]
}

// page returns the page covering idx, materializing it on first touch.
func (rf *regfile) page(idx int) *regPage {
	slot := &rf.pages[idx>>regPageShift]
	p := slot.Load()
	if p == nil {
		np := new(regPage)
		if slot.CompareAndSwap(nil, np) {
			rf.live.Add(1)
			return np
		}
		p = slot.Load()
	}
	return p
}

// store writes a cell, materializing its page. The caller
// bounds-checks idx against rf.size.
func (rf *regfile) store(idx int, v uint64) {
	rf.page(idx)[idx&regPageMask] = v
}

// bytes reports (declared, allocated) cell bytes: declared is the full
// architectural size, allocated what lazy paging actually materialized
// (page granularity).
func (rf *regfile) bytes() (declared, allocated uint64) {
	return uint64(rf.size) * 8, uint64(rf.live.Load()) * regPageSize * 8
}

// RegisterFileBytes sums the declared and actually-allocated register
// memory across every register of the switch: the headroom ROADMAP
// item 2 noted ("register files dominate memory long before host state
// does") made measurable.
func (s *Switch) RegisterFileBytes() (declared, allocated uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rf := range s.regs {
		d, a := rf.bytes()
		declared += d
		allocated += a
	}
	return declared, allocated
}
