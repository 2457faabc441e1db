package apps

// cache.go is the CACHE application's host protocol, written once for
// every driver that runs it: the GET codec and response check, the KVS
// server, the control-plane installer, and the leaf/spine cache bed of
// RunFabricCache and the churn scenarios. The installer addresses the
// kernel's _managed_ memories by NetCL name (Index, Share, Vals, Valid)
// through runtime.DeviceConnection, so it works whatever partitioning
// the target's compiler chose; only the handwritten baseline, which has
// no NetCL memories, is written against its P4 names.

import (
	"fmt"

	"netcl/internal/netsim"
	"netcl/internal/p4"
	"netcl/internal/p4rt"
	"netcl/internal/passes"
	"netcl/internal/runtime"
	"netcl/internal/wire"
)

// cacheGet is the GET_REQ opcode of CacheSource.
const cacheGet = 1

// cacheShareAll is the Share bitmap of a cache line holding every word.
const cacheShareAll = 1<<CacheWords - 1

// cacheArgs is the NetCache query codec.
type cacheArgs struct {
	*kernelArgs
	op, key, vals, hit, hot []uint64
}

func newCacheArgs(spec *runtime.MessageSpec) *cacheArgs {
	k := newKernelArgs(spec)
	return &cacheArgs{kernelArgs: k, op: k.arg("op"), key: k.arg("key"),
		vals: k.arg("val"), hit: k.arg("hit"), hot: k.arg("hot")}
}

// get packs a GET for key from src to dst through the cache on device.
func (a *cacheArgs) get(src, dst, device uint16, key uint64) ([]byte, error) {
	a.zero()
	a.op[0], a.key[0] = cacheGet, key
	return a.pack(runtime.Message{Src: src, Dst: dst, Device: device, Comp: 1}.Header())
}

// valuesOK reports whether every word of an unpacked response is
// value(key, w).
func (a *cacheArgs) valuesOK(value func(key uint64, w int) uint64) bool {
	for w, v := range a.vals {
		if v != value(a.key[0], w) {
			return false
		}
	}
	return true
}

// serveKVS makes h the backing store: it answers each GET with the
// key's words from value after procNs, in a reply that requests no
// computation (to = none), so it transits switches on routes only.
func serveKVS(h *netsim.Host, spec *runtime.MessageSpec, procNs netsim.Time, value func(key uint64, w int) uint64) {
	a := newCacheArgs(spec)
	h.SetProcessingNs(procNs)
	h.SetReceive(func(h *netsim.Host, msg []byte) {
		hdr, err := a.unpack(msg)
		if err != nil || a.op[0] != cacheGet {
			return
		}
		for w := range a.vals {
			a.vals[w] = value(a.key[0], w)
		}
		a.hit[0], a.hot[0] = 0, 0
		reply, err := a.pack(wire.Header{Src: h.ID, Dst: hdr.Src, From: wire.None, To: wire.None, Comp: 1})
		if err != nil {
			return
		}
		h.Send(reply)
	})
}

// cacheClient is a closed-loop GET client: one request outstanding at
// a time, the next issued when its answer arrives. With retransmit set
// (under faults) each GET rearms a retransmission timer until it is
// answered or its retry budget runs out; GETs are idempotent, so
// resends are safe. Answers score into res, which a driver's clients
// share so response times sum in delivery order (MeanResponseNs holds
// the sum until the driver divides it).
type cacheClient struct {
	h           *netsim.Host
	dst, device uint16
	requests    int
	keyOf       func(i int) uint64
	value       func(key uint64, w int) uint64 // the expected answer
	res         *CacheResult
	retransmit  netsim.Time // 0: never resend
	budget      int

	tx, rx    *cacheArgs
	rt        Hist
	exhausted int // GETs that ran out of retries
	sent      int
	key       uint64 // the outstanding GET's
	answered  bool
	retries   int
	sentAt    netsim.Time
}

// attach gives the client its codecs and makes it h's receive handler.
func (c *cacheClient) attach(spec *runtime.MessageSpec) *cacheClient {
	c.tx, c.rx = newCacheArgs(spec), newCacheArgs(spec)
	c.h.SetReceive(c.receive)
	return c
}

// issue sends the next GET, if any are left.
func (c *cacheClient) issue() {
	if c.sent >= c.requests {
		return
	}
	c.key = c.keyOf(c.sent)
	c.answered, c.retries = false, 0
	c.sentAt = c.h.Now()
	c.sent++
	c.send(c.key)
}

func (c *cacheClient) send(key uint64) {
	msg, err := c.tx.get(c.h.ID, c.dst, c.device, key)
	if err != nil {
		return
	}
	c.h.Send(msg)
	if c.retransmit > 0 {
		c.h.At(c.retransmit, func() {
			if c.answered || c.key != key {
				return
			}
			if c.retries >= c.budget {
				c.exhausted++
				return
			}
			c.retries++
			c.res.Retransmissions++
			c.send(key)
		})
	}
}

func (c *cacheClient) receive(h *netsim.Host, msg []byte) {
	if _, err := c.rx.unpack(msg); err != nil {
		return
	}
	// Match the response to the outstanding GET: late duplicates from
	// retransmitted requests are discarded.
	if c.answered || c.rx.key[0] != c.key {
		c.res.Duplicates++
		return
	}
	c.answered = true
	rt := h.Now() - c.sentAt
	c.res.MeanResponseNs += float64(rt)
	c.rt.Record(uint64(rt))
	if c.rx.hit[0] != 0 {
		c.res.Hits++
	} else {
		c.res.Misses++
	}
	if !c.rx.valuesOK(c.value) {
		c.res.WrongValues++
	}
	c.issue()
}

// cacheFill stages count cache lines: line i holds key first+i, every
// word shared and valid, its words from value.
func cacheFill(txn *runtime.ManagedTxn, first uint64, count int, value func(key uint64, w int) uint64) *runtime.ManagedTxn {
	for i := 0; i < count; i++ {
		key := first + uint64(i)
		txn.LookupInsert("Index", key, uint64(i)).LookupInsert("Share", key, cacheShareAll)
		cacheWriteLine(txn, i, key, value)
		txn.Write("Valid", []int{i}, 1)
	}
	return txn
}

// cacheWriteLine stages the words of line i (holding key) from value.
func cacheWriteLine(txn *runtime.ManagedTxn, i int, key uint64, value func(key uint64, w int) uint64) {
	for w := 0; w < CacheWords; w++ {
		txn.Write("Vals", []int{w, i}, value(key, w))
	}
}

// baselineCacheFill is cacheFill for the handwritten baseline, in its
// own P4 object names, as one transaction.
func baselineCacheFill(dev *netsim.Device, first uint64, count int, value func(key uint64, w int) uint64) error {
	b := p4rt.NewWriteBatch()
	for i := 0; i < count; i++ {
		key := first + uint64(i)
		hit := func(action string, arg uint64) *p4.Entry {
			return &p4.Entry{Keys: []p4.KeyValue{{Value: key, PrefixLen: -1}},
				Action: &p4.ActionCall{Name: action, Args: []uint64{arg}}}
		}
		b.Insert("lu_Index", hit("idx_hit", uint64(i))).Insert("lu_Share", hit("share_hit", cacheShareAll))
		for w := 0; w < CacheWords; w++ {
			b.RegisterWrite(fmt.Sprintf("vals_%02d", w), i, value(key, w))
		}
		b.RegisterWrite("valid_bit", i, 1)
	}
	_, err := dev.SW.Write(b)
	return err
}

// cacheValueOf is the fabric backing store's truth: generation g of
// key's word w. The server always serves generation 0; rolling reconfig
// rewrites caches to generation 1, and a response is torn if its words
// disagree on g.
func cacheValueOf(key uint64, w, g int) uint64 {
	return key*1000 + uint64(w) + uint64(g)*1_000_000
}

// cacheStore is the generation-0 store every fabric cache starts from.
func cacheStore(key uint64, w int) uint64 { return cacheValueOf(key, w, 0) }

const (
	cacheServerID = 0x2000
	cacheClientID = 0x1000 // + rack
)

// cacheBed is the leaf/spine NetCache deployment: one cache per rack
// leaf holding keys 1..cached, a KVS server behind an extra home leaf,
// and one client host per rack. Hits reflect at the rack switch; misses
// cross the spine (ECMP over the uplinks) to the server and return.
type cacheBed struct {
	n       *netsim.Network
	topo    *netsim.Topo
	fab     *fabricProgs
	leafIDs []uint16 // racks, then the server's home leaf
	clients []*netsim.Host
}

func buildCacheBed(target passes.Target, racks, spines, cached int) (*cacheBed, error) {
	b := &cacheBed{leafIDs: make([]uint16, racks+1)}
	for i := range b.leafIDs {
		b.leafIDs[i] = uint16(10 + i)
	}
	spineIDs := make([]uint16, spines)
	for i := range spineIDs {
		spineIDs[i] = uint16(80 + i)
	}
	app := ByName("CACHE")
	fab, err := compileFabric(target, nil, func(uint16) *App { return app },
		append(append([]uint16{}, b.leafIDs...), spineIDs...)...)
	if err != nil {
		return nil, fmt.Errorf("cache fabric: %w", err)
	}
	b.fab = fab
	b.n = netsim.NewNetwork()
	b.n.MaxEvents = 50_000_000
	b.topo, err = netsim.BuildLeafSpine(b.n, netsim.LeafSpineSpec{
		LeafIDs: b.leafIDs, SpineIDs: spineIDs, LeafProg: fab.prog, SpineProg: fab.prog,
	})
	if err != nil {
		return nil, err
	}
	server := b.n.AddHost(cacheServerID)
	b.topo.AttachHost(server, b.n.Device(b.leafIDs[racks]), netsim.LinkClass{})
	for r := 0; r < racks; r++ {
		c := b.n.AddHost(uint16(cacheClientID + r))
		b.topo.AttachHost(c, b.n.Device(b.leafIDs[r]), netsim.LinkClass{})
		b.clients = append(b.clients, c)
	}
	if err := b.topo.InstallRoutes(netsim.RouteOptions{ECMP: true, HostRoutes: true}); err != nil {
		return nil, err
	}
	// The whole rack cache installs as one transaction per switch:
	// packets see cached keys only once every entry and word is in place.
	for r := 0; r < racks; r++ {
		if err := cacheFill(b.rackConn(r).Txn(), 1, cached, cacheStore).Commit(); err != nil {
			return nil, err
		}
	}
	serveKVS(server, fab.spec, 7600*netsim.Nanosecond, cacheStore)
	return b, nil
}

// rack is rack r's cache switch.
func (b *cacheBed) rack(r int) *netsim.Device { return b.n.Device(b.leafIDs[r]) }

// rackConn is the control-plane connection to rack r's cache.
func (b *cacheBed) rackConn(r int) *runtime.DeviceConnection { return b.fab.conn(b.rack(r)) }
