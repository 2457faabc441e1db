package netsim

// Slab and struct-of-arrays storage for million-host topologies.
//
// Hosts and links live in chunked slabs: handle structs are allocated
// 8192 at a time so &chunk[i] stays stable forever (the public API
// hands out *Host and *Link), while the hot per-host fields live in
// flat struct-of-arrays columns indexed by the same integer — the
// event loop touches counters and delays without chasing a pointer
// per host, and a topology costs a handful of allocations per 8k
// nodes instead of one map entry plus one struct per node.

const (
	slabShift = 13 // 8192 entries per chunk
	slabMask  = (1 << slabShift) - 1
)

// hostCols is the struct-of-arrays half of host state: everything the
// steady-state event path reads or writes, indexed by Host.idx.
type hostCols struct {
	link   []int32 // attached link index + 1 (0 = unattached)
	part   []int32 // owning partition (0 while the network is uncut)
	procNs []Time  // per-message host-side processing cost
	sent   []uint64
	recvd  []uint64
	recv   []func(*Host, []byte)
	hash   []uint64 // per-host delivery hash chain (0 = empty)
}

func (hc *hostCols) add() int32 {
	i := int32(len(hc.link))
	hc.link = append(hc.link, 0)
	hc.part = append(hc.part, 0)
	hc.procNs = append(hc.procNs, 2*Microsecond)
	hc.sent = append(hc.sent, 0)
	hc.recvd = append(hc.recvd, 0)
	hc.recv = append(hc.recv, nil)
	hc.hash = append(hc.hash, 0)
	return i
}

// hostSlab holds the stable Host handles.
type hostSlab struct {
	chunks [][]Host
	count  int32
}

func (hs *hostSlab) alloc() *Host {
	if int(hs.count)>>slabShift == len(hs.chunks) {
		hs.chunks = append(hs.chunks, make([]Host, 1<<slabShift))
	}
	h := &hs.chunks[hs.count>>slabShift][hs.count&slabMask]
	hs.count++
	return h
}

func (hs *hostSlab) at(i int32) *Host { return &hs.chunks[i>>slabShift][i&slabMask] }

// linkSlab holds the stable Link structs.
type linkSlab struct {
	chunks [][]Link
	count  int32
}

func (ls *linkSlab) alloc() *Link {
	if int(ls.count)>>slabShift == len(ls.chunks) {
		ls.chunks = append(ls.chunks, make([]Link, 1<<slabShift))
	}
	l := &ls.chunks[ls.count>>slabShift][ls.count&slabMask]
	l.idx = ls.count
	ls.count++
	return l
}

func (ls *linkSlab) at(i int32) *Link { return &ls.chunks[i>>slabShift][i&slabMask] }

// pbuf is a pooled packet buffer flowing transmit→deliver. refs counts
// in-flight events sharing the buffer (multicast fan-out, duplication
// faults); next links send-batch chains and the pool free list. All
// refcounting is single-threaded within the owning partition —
// cross-partition hand-offs transfer or copy the buffer (see
// part.transmit) so two partitions never touch one refs field.
type pbuf struct {
	b    []byte
	next *pbuf
	refs int32
}

// bufPool is a per-partition free list of packet buffers. Buffers keep
// their backing arrays between uses, so after warm-up the packet path
// allocates nothing; PrewarmBuffers moves the warm-up into topology
// build time. live/peak track the checked-out working set.
type bufPool struct {
	free *pbuf
	live int
	peak int
}

func (p *bufPool) get() *pbuf {
	p.live++
	if p.live > p.peak {
		p.peak = p.live
	}
	if pb := p.free; pb != nil {
		p.free = pb.next
		pb.next = nil
		pb.refs = 1
		return pb
	}
	return &pbuf{refs: 1}
}

func (p *bufPool) put(pb *pbuf) {
	p.live--
	pb.next = p.free
	p.free = pb
}

// prewarm stocks the free list with n buffers of the given capacity
// (bypassing the live/peak accounting — these were never checked out).
func (p *bufPool) prewarm(n, size int) {
	for i := 0; i < n; i++ {
		p.free = &pbuf{b: make([]byte, 0, size), next: p.free}
	}
}

// release drops one reference, returning the buffer to the pool when
// the last holder lets go.
func (p *bufPool) release(pb *pbuf) {
	pb.refs--
	if pb.refs == 0 {
		p.put(pb)
	}
}
