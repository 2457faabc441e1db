package bmv2

// machine.go is the execute half of the prepare/execute split: the
// per-packet state of the compiled engine. All dynamic name lookup was
// resolved to slot indices at compile time, so a packet's entire
// lifetime touches one flat frame of words plus a few flat scratch
// slices, all pooled and reused across packets. A packet does only
// the work its program needs: the parser loads the fields some
// instruction reads or writes, and the deparser copies the input and
// stores the written fields over it unless the packet changed shape.
// Steady-state allocations per packet are O(1): the Result struct and
// the exact-sized deparse buffer (which escapes into the caller and
// cannot be pooled); none when the caller's Result is reused.

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// machine is pooled per-packet execution state.
type machine struct {
	sw      *Switch
	prog    *cprog
	gen     *generation // rule-set generation pinned for this packet
	frame   []uint64
	valid   []bool
	emitted []bool
	ordered []int     // extracted/validated header indices, in order
	exts    []extract // every extraction, in order
	emitOrd []int     // deparse scratch: headers to emit, deduplicated
	keys    []uint64  // table-apply scratch
	hashBuf []byte
	payload []byte
	cells   []*uint64 // a fused run's register cells, from opRegLoadV to opRegStoreV
	exited  bool
	full    bool  // the deparser must emit every header (deparseInto)
	instrs  int64 // instructions dispatched, counted under the bmv2count tag
}

// extract records one header extraction: the header and its offset
// in the input packet.
type extract struct{ hi, off int32 }

// getMachine checks a reset machine out of the pool.
func (p *cprog) getMachine() *machine {
	m := p.pool.Get().(*machine)
	// One atomic load pins the whole rule set for this packet (or for
	// the whole burst): every table applied reads the same generation,
	// so a concurrently committed batch is either fully visible or not
	// at all (the transactional consistency guarantee).
	m.gen = p.gen.Load()
	m.reset(p)
	return m
}

// reset readies the machine for the next packet of a burst without
// re-pinning the generation or touching the pool. Only the global
// prefix of the frame needs its initial values back: every later slot
// (constants, parameters, temporaries) is read-only or written before
// it is read.
func (m *machine) reset(p *cprog) {
	copy(m.frame[:p.nGlobal], p.initFrame)
	clear(m.valid)
	m.ordered = m.ordered[:0]
	m.exts = m.exts[:0]
	m.payload = nil
	m.exited, m.full = false, false
}

func (p *cprog) putMachine(m *machine) {
	m.payload = nil // do not retain the caller's packet buffer
	m.gen = nil     // do not pin a retired generation in the pool
	if countInstrs {
		m.flushInstrs()
	}
	p.pool.Put(m)
}

// run1 executes one packet on a checked-out machine, filling res and
// reporting whether the packet was dropped. Counter updates are left
// to the caller so bursts can batch them.
func (p *cprog) run1(m *machine, data []byte, inPort int, res *Result) (bool, error) {
	// Masked at store, like every other write of a declared name.
	m.frame[p.inPortSlot] = uint64(inPort) & p.inPortMask
	if err := m.parse(p, data); err != nil {
		return false, err
	}
	if err := m.exec(p.ingress.body.start, p.ingress.body.end); err != nil {
		return false, err
	}
	if p.egress != nil && !m.exited {
		if err := m.exec(p.egress.body.start, p.egress.body.end); err != nil {
			return false, err
		}
	}
	// Keep whatever capacity the caller left in res.Data so steady-state
	// callers (netsim's device hot loop, burst pumps) reuse one buffer
	// instead of allocating per packet. A dropped packet leaves Data
	// empty with that capacity kept, so the next packet still reuses it.
	scratch := res.Data
	*res = Result{
		Port:  int(m.frame[p.portSlot]),
		Mcast: int(m.frame[p.mcastSlot]),
	}
	if m.frame[p.dropSlot] != 0 {
		res.Dropped, res.Data = true, scratch[:0]
		return true, nil
	}
	res.Data = m.deparseInto(p, data, scratch)
	if res.Port == 0 && res.Mcast == 0 {
		res.NoMatch = true
	}
	return false, nil
}

// process runs one packet through the compiled pipeline. Counters and
// Result semantics match the reference Process exactly; counter
// updates are atomic because shards call process concurrently.
func (p *cprog) process(data []byte, inPort int) (*Result, error) {
	s := p.sw
	atomic.AddUint64(&s.PacketsIn, 1)
	m := p.getMachine()
	res := &Result{}
	dropped, err := p.run1(m, data, inPort, res)
	p.putMachine(m)
	if err != nil {
		return nil, err
	}
	if dropped {
		atomic.AddUint64(&s.PacketsDropped, 1)
	} else {
		atomic.AddUint64(&s.PacketsOut, 1)
	}
	return res, nil
}

// processInto runs one packet like process but fills a caller-owned
// Result, reusing res.Data's capacity for the deparse output. The
// zero-alloc path for callers that hold one Result per device or per
// worker (netsim's delivery loop).
func (p *cprog) processInto(data []byte, inPort int, res *Result) error {
	s := p.sw
	atomic.AddUint64(&s.PacketsIn, 1)
	m := p.getMachine()
	dropped, err := p.run1(m, data, inPort, res)
	p.putMachine(m)
	if err != nil {
		return err
	}
	if dropped {
		atomic.AddUint64(&s.PacketsDropped, 1)
	} else {
		atomic.AddUint64(&s.PacketsOut, 1)
	}
	return nil
}

// processBurst runs a burst (≤ MaxBurst packets, enforced by the
// Switch wrapper) through one machine checkout under one pinned
// generation, folding the counter updates into one atomic add per
// counter. Per-packet behavior is identical to process; only the
// *Result allocation and the per-packet pump overhead disappear.
func (p *cprog) processBurst(pkts [][]byte, ports []int, res []Result, errs []error) {
	s := p.sw
	atomic.AddUint64(&s.PacketsIn, uint64(len(pkts)))
	m := p.getMachine()
	var out, drop uint64
	for i, data := range pkts {
		if i > 0 {
			m.reset(p)
		}
		port := 0
		if ports != nil {
			port = ports[i]
		}
		dropped, err := p.run1(m, data, port, &res[i])
		if err != nil {
			res[i], errs[i] = Result{}, err
			continue
		}
		errs[i] = nil
		if dropped {
			drop++
		} else {
			out++
		}
	}
	p.putMachine(m)
	if drop != 0 {
		atomic.AddUint64(&s.PacketsDropped, drop)
	}
	if out != 0 {
		atomic.AddUint64(&s.PacketsOut, out)
	}
}

// parse walks the compiled parser FSM, replicating the reference
// semantics: floor-byte header length check, unconditional ordered
// append, and the 64-step loop guard. An extracted header loads only
// its live fields (planFields) and records its input offset.
func (m *machine) parse(p *cprog, data []byte) error {
	f := m.frame
	rest := data
	si := p.start
	for steps := 0; ; steps++ {
		if steps > 64 {
			return fmt.Errorf("parser loop")
		}
		st := &p.states[si]
		for _, hi := range st.hdrs {
			h := &p.headers[hi]
			if len(rest) < h.nbytes {
				return fmt.Errorf("packet too short for header %q (%d < %d)", h.name, len(rest), h.nbytes)
			}
			// A second extraction of a header, or a header the copy
			// path cannot patch, needs the full deparse.
			m.full = m.full || m.valid[hi] || !h.patchable
			m.exts = append(m.exts, extract{hi, int32(len(data) - len(rest))})
			loadFields(f, rest, h.live)
			rest = rest[h.nbytes:]
			m.valid[hi] = true
			m.ordered = append(m.ordered, int(hi))
		}
		next := st.next
		if st.key.end > st.key.start {
			if err := m.exec(st.key.start, st.key.end); err != nil {
				return err
			}
		}
		key := f[st.keySlot]
		for i := range st.cases {
			c := &st.cases[i]
			if c.mask != 0 {
				if key&c.mask == c.value&c.mask {
					next = c.next
					break
				}
			} else if key == c.value {
				next = c.next
				break
			}
		}
		switch next {
		case stateAccept:
			m.payload = rest
			return nil
		case stateReject:
			return fmt.Errorf("parser rejected packet")
		}
		si = next
	}
}

// loadFields runs an extract plan over hdr, a header's bytes onwards:
// byte-aligned fields, always inside the length-checked header, as
// fixed-width big-endian loads; unaligned ones bit by bit, reading past
// the header into the remaining bytes like the reference.
func loadFields(f []uint64, hdr []byte, plan []cfield) {
	for i := range plan {
		x := &plan[i]
		switch x.kind {
		case f1:
			for j := int32(0); j < x.run; j++ {
				f[x.slot+j] = uint64(hdr[x.off+j])
			}
		case f2:
			for j := int32(0); j < x.run; j++ {
				f[x.slot+j] = uint64(binary.BigEndian.Uint16(hdr[x.off+2*j:]))
			}
		case f4:
			for j := int32(0); j < x.run; j++ {
				f[x.slot+j] = uint64(binary.BigEndian.Uint32(hdr[x.off+4*j:]))
			}
		case f8:
			for j := int32(0); j < x.run; j++ {
				f[x.slot+j] = binary.BigEndian.Uint64(hdr[x.off+8*j:])
			}
		case fN:
			var v uint64
			for _, b := range hdr[x.off : x.off+x.nbytes] {
				v = v<<8 | uint64(b)
			}
			f[x.slot] = v
		default:
			f[x.slot] = extractBits(hdr, int(x.off), int(x.bits))
		}
	}
}

// storeFields runs an emit plan of byte-aligned fields into hdr.
func storeFields(hdr []byte, plan []cfield, f []uint64) {
	for i := range plan {
		x := &plan[i]
		switch x.kind {
		case f1:
			for j := int32(0); j < x.run; j++ {
				hdr[x.off+j] = byte(f[x.slot+j])
			}
		case f2:
			for j := int32(0); j < x.run; j++ {
				binary.BigEndian.PutUint16(hdr[x.off+2*j:], uint16(f[x.slot+j]))
			}
		case f4:
			for j := int32(0); j < x.run; j++ {
				binary.BigEndian.PutUint32(hdr[x.off+4*j:], uint32(f[x.slot+j]))
			}
		case f8:
			for j := int32(0); j < x.run; j++ {
				binary.BigEndian.PutUint64(hdr[x.off+8*j:], f[x.slot+j])
			}
		default:
			v := f[x.slot]
			for i := x.nbytes - 1; i >= 0; i-- {
				hdr[x.off+x.nbytes-1-i] = byte(v >> (8 * uint(i)))
			}
		}
	}
}

// extractBits reads a big-endian bit field; bits past the end of b
// read as zero.
func extractBits(b []byte, bitOff, bits int) uint64 {
	var v uint64
	for i := 0; i < bits; i++ {
		byteIdx := (bitOff + i) / 8
		bitIdx := 7 - (bitOff+i)%8
		v <<= 1
		if byteIdx < len(b) && b[byteIdx]>>(uint(bitIdx))&1 != 0 {
			v |= 1
		}
	}
	return v
}

// sized returns scratch[:n], or a fresh exact-sized buffer when its
// capacity is short.
func sized(scratch []byte, n int) []byte {
	if cap(scratch) < n {
		return make([]byte, n)
	}
	return scratch[:n]
}

// deparseInto emits valid headers (extraction order, then program
// order) plus payload into scratch[:0]. The caller owns scratch and
// must not pass a buffer aliasing the input packet data; a nil scratch
// allocates exact-sized.
//
// When the packet kept the shape it was parsed with — every header
// extracted once, no validity changed, each one patchable — the output
// is the input with the written fields stored over it: one copy, then
// the patch plan of each header at its input offset. Otherwise the
// dead fields of every extraction are loaded from the input first, and
// each header is emitted in full: fixed-width big-endian stores for a
// byte-aligned header, the reference bit-packing loop for the rest.
func (m *machine) deparseInto(p *cprog, data, scratch []byte) []byte {
	f := m.frame
	if !m.full {
		out := sized(scratch, len(data))
		copy(out, data)
		for _, x := range m.exts {
			storeFields(out[x.off:], p.headers[x.hi].patch, f)
		}
		return out
	}
	for _, x := range m.exts {
		loadFields(f, data[x.off:], p.headers[x.hi].dead)
	}
	clear(m.emitted)
	m.emitOrd = m.emitOrd[:0]
	size := 0
	for _, hi := range m.ordered {
		if !m.emitted[hi] && m.valid[hi] {
			m.emitted[hi] = true
			m.emitOrd = append(m.emitOrd, hi)
			size += p.headers[hi].nbytes
		}
	}
	for hi := range p.headers {
		if !m.emitted[hi] && m.valid[hi] {
			m.emitted[hi] = true
			m.emitOrd = append(m.emitOrd, hi)
			size += p.headers[hi].nbytes
		}
	}
	out := sized(scratch, size+len(m.payload))
	at := 0
	for _, hi := range m.emitOrd {
		h := &p.headers[hi]
		hdr := out[at : at+h.nbytes]
		at += h.nbytes
		if h.allAligned {
			storeFields(hdr, h.plan, f)
			continue
		}
		// Bit-packing path, byte-for-byte the reference emit loop:
		// full bytes flush, a trailing partial byte is dropped.
		var cur uint64
		curBits, n := 0, 0
		for i := range h.fields {
			x := &h.fields[i]
			v := f[x.slot]
			remaining := int(x.bits)
			for remaining > 0 {
				take := 8 - curBits
				if take > remaining {
					take = remaining
				}
				cur = cur<<uint(take) | (v>>uint(remaining-take))&((1<<uint(take))-1)
				curBits += take
				remaining -= take
				if curBits == 8 {
					hdr[n] = byte(cur)
					n++
					cur, curBits = 0, 0
				}
			}
		}
	}
	copy(out[at:], m.payload)
	return out
}
