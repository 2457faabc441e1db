package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"netcl/internal/bmv2"
	"netcl/internal/netsim"
	"netcl/internal/p4"
	"netcl/internal/runtime"
	"netcl/internal/wire"
)

// cache_sim: NetCache on one simulated switch with a KVS server host.
// Four clients keep one request outstanding each (a closed loop) over a
// Zipf-distributed key universe whose hottest keys are cached in the
// switch. A GET of a cached key is answered by the switch; every other
// request makes the server round trip. A PUT of a cached key rewrites
// the cached line in the data plane on its way to the server, which
// acknowledges it. Request = one reply verified against the benchmark's
// own key -> version model.
const (
	cacheClients  = 4
	cacheUniverse = 16384
	cacheCached   = 1024
	cacheWords    = 16
	cacheZipf     = 0.99
	cachePutPct   = 5
	// cacheReqsPerRound is frozen: 60-80 ms a round at the seed commit.
	cacheReqsPerRound = 8192
	// cacheStream is the pre-generated request ring (set-up generates
	// inputs; the measured phase only reads them).
	cacheStream = 1 << 16

	cacheGet = 1
	cachePut = 2

	cacheServerID = 9
	// Host costs calibrated like the paper's testbed observations:
	// ~27 us mean response on a miss, ~9.4 us on a hit.
	cacheServerNs = 7600
	cacheClientNs = 3500
)

var cacheSimDef = &workloadDef{
	name:  "cache_sim",
	why:   "Second paper headline: exact-match lookups, hash externs, register reads and writes, and a fast-path share; per-packet fixed cost dominates, not arithmetic.",
	work:  fmt.Sprintf("%d requests, %d clients x 1 outstanding, %d keys Zipf %.2f, %d cached, %d%% PUT", cacheReqsPerRound, cacheClients, cacheUniverse, cacheZipf, cacheCached, cachePutPct),
	setup: setupCacheSim,
}

type cacheReq struct {
	key uint32
	put bool
}

type cacheClient struct {
	host   *netsim.Host
	id     uint16
	key    uint64 // outstanding request (0 = none)
	put    bool
	ver    uint32 // version the outstanding PUT writes
	sentAt netsim.Time
}

type cacheSim struct {
	d *deployed
	simMeter
	dev     *netsim.Device
	server  *netsim.Host
	clients [cacheClients]cacheClient
	stream  []cacheReq
	next    int // position in the stream ring
	seed    uint64

	// model is the oracle: the committed version of every key, as the
	// clients have seen it acknowledged.
	model []uint32
	// store is the KVS server's own: the words of every key PUT so far
	// (stored[key] set); other keys still hold version 0.
	store  []uint32
	stored []bool

	buf, sbuf              []byte
	op, key, hit, hot, val []uint64
	args, getArgs          [][]uint64

	cur      *ctx
	issued   int
	quota    int
	verified int64
	sabotage bool
	log      frameLog
	replies  msgLog
}

// cacheWord is word w of key's value at a version.
func cacheWord(seed, key uint64, ver uint32, w int) uint64 {
	return mix(seed^key<<20^uint64(ver)<<6^uint64(w)) & 0xFFFFFFFF
}

// zipfCDF is the cumulative Zipf(s) distribution over ranks 1..n.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for r := 1; r <= n; r++ {
		sum += 1 / math.Pow(float64(r), s)
		cdf[r-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// cacheInputs draws the request ring: rank by Zipf, rank -> key by a
// seeded permutation, so the cached keys (ranks below cacheCached) are
// scattered over the key space.
func cacheInputs(seed int64, universe, n int) (stream []cacheReq, keyOfRank []uint32) {
	rng := rand.New(rand.NewSource(seed))
	keyOfRank = make([]uint32, universe)
	for i, p := range rng.Perm(universe) {
		keyOfRank[i] = uint32(p + 1)
	}
	cdf := zipfCDF(universe, cacheZipf)
	stream = make([]cacheReq, n)
	for i := range stream {
		rank := sort.SearchFloat64s(cdf, rng.Float64())
		if rank >= universe {
			rank = universe - 1
		}
		stream[i] = cacheReq{key: keyOfRank[rank], put: rng.Intn(100) < cachePutPct}
	}
	return stream, keyOfRank
}

func setupCacheSim(c *ctx) (instance, error) {
	d, err := deploy(c, "CACHE", map[string]uint64{"CACHE_WORDS": cacheWords, "CACHE_ENTRIES": cacheCached}, []uint16{1}, false)
	if err != nil {
		return nil, err
	}
	s := &cacheSim{d: d, seed: uint64(c.seed)}
	universe := max(c.scaled(cacheUniverse), 4*cacheClients)
	cached := min(cacheCached, universe/4)
	var keyOfRank []uint32
	s.stream, keyOfRank = cacheInputs(c.seed, universe, cacheStream)
	s.model = make([]uint32, universe+1)
	s.store = make([]uint32, (universe+1)*cacheWords)
	s.stored = make([]bool, universe+1)

	rng := rand.New(rand.NewSource(c.seed ^ 0x5eed))
	n := netsim.NewNetwork()
	s.dev = n.AddDevice(1, d.progs[1])
	s.dev.PipelineNs = netsim.Time(d.fits[1].LatencyNs)
	s.simMeter = simMeter{n: n, devs: []*netsim.Device{s.dev}}
	for i := range s.clients {
		cl := &s.clients[i]
		cl.id = uint16(1 + i)
		cl.host = n.AddHost(cl.id)
		cl.host.SetProcessingNs(cacheClientNs)
		n.Connect(cl.host, s.dev, 1+i).LatencyNs = netsim.Time(1000 + rng.Intn(200))
	}
	s.server = n.AddHost(cacheServerID)
	s.server.SetProcessingNs(cacheServerNs)
	n.Connect(s.server, s.dev, cacheServerID).LatencyNs = netsim.Time(1000 + rng.Intn(200))
	if err := n.AutoWire(); err != nil {
		return nil, err
	}
	// The whole cache installs as one transaction.
	if _, err := s.dev.SW.Write(s.populate(keyOfRank[:cached])); err != nil {
		return nil, err
	}

	s.buf = make([]byte, 0, d.spec.Size())
	s.sbuf = make([]byte, 0, d.spec.Size())
	s.op, s.key, s.hit, s.hot = one(), one(), one(), one()
	s.val = make([]uint64, cacheWords)
	s.args = [][]uint64{s.op, s.key, s.val, s.hit, s.hot}
	s.getArgs = [][]uint64{s.op, s.key, nil, nil, nil}
	s.server.SetReceive(func(_ *netsim.Host, msg []byte) { s.onServer(msg) })
	for i := range s.clients {
		i := i
		s.clients[i].host.SetReceive(func(_ *netsim.Host, msg []byte) { s.onReply(i, msg) })
	}
	return s, nil
}

// populate builds the batch that caches keys: index and share-bitmap
// entries, the value words at version 0, and the valid bit.
func (s *cacheSim) populate(keys []uint32) *bmv2.WriteBatch {
	b := bmv2.NewWriteBatch()
	for idx, k := range keys {
		key := uint64(k)
		b.Insert("lu_Index", &p4.Entry{
			Keys:   []p4.KeyValue{{Value: key, PrefixLen: -1}},
			Action: &p4.ActionCall{Name: "lu_Index_hit", Args: []uint64{uint64(idx)}},
		})
		b.Insert("lu_Share", &p4.Entry{
			Keys:   []p4.KeyValue{{Value: key, PrefixLen: -1}},
			Action: &p4.ActionCall{Name: "lu_Share_hit", Args: []uint64{1<<cacheWords - 1}},
		})
		for w := 0; w < cacheWords; w++ {
			b.RegisterWrite(fmt.Sprintf("reg_Vals__%d", w), idx, cacheWord(s.seed, key, 0, w))
		}
		b.RegisterWrite("reg_Valid", idx, 1)
	}
	return b
}

// conflicts reports whether issuing (key, put) from client i would race
// another client's outstanding request: a PUT may not overlap any
// request to its key, so every reply has exactly one correct value.
func (s *cacheSim) conflicts(i int, key uint64, put bool) bool {
	for j := range s.clients {
		o := &s.clients[j]
		if j != i && o.key == key && (put || o.put) {
			return true
		}
	}
	return false
}

// prepare draws client i's next request from the stream and packs it.
func (s *cacheSim) prepare(i int) []byte {
	cl := &s.clients[i]
	var r cacheReq
	for {
		r = s.stream[s.next&(len(s.stream)-1)]
		s.next++
		if !s.conflicts(i, uint64(r.key), r.put) {
			break
		}
	}
	s.issued++
	cl.key, cl.put, cl.sentAt = uint64(r.key), r.put, s.n.Now()
	s.key[0], s.hit[0], s.hot[0] = cl.key, 0, 0
	args := s.args
	if r.put {
		cl.ver = s.model[r.key] + 1
		s.op[0] = cachePut
		for w := range s.val {
			s.val[w] = cacheWord(s.seed, cl.key, cl.ver, w)
		}
	} else {
		s.op[0] = cacheGet
		args = s.getArgs
	}
	hdr := runtime.Message{Src: cl.id, Dst: cacheServerID, Device: 1, Comp: 1}.Header()
	msg, err := runtime.PackAppend(s.buf[:0], s.d.spec, hdr, args)
	if err != nil {
		return nil
	}
	if s.cur.tr != nil {
		s.packs++
		s.log.add(msg, uint64(cl.id), 1+i)
	}
	return msg
}

// onServer is the KVS server: GETs are answered from the store, PUTs
// stored and acknowledged. Replies request no computation (to = none).
func (s *cacheSim) onServer(msg []byte) {
	c := s.cur
	sampled := c.tr.sampled()
	if sampled {
		c.tr.beginSampled("host.callback", layerBench, int64(s.issued))
	}
	var out []byte
	if hdr, err := runtime.UnpackInto(s.d.spec, msg, s.args); err == nil && s.key[0] < uint64(len(s.stored)) {
		key := s.key[0]
		line := s.store[key*cacheWords : (key+1)*cacheWords]
		switch s.op[0] {
		case cacheGet:
			for w := range s.val {
				if s.stored[key] {
					s.val[w] = uint64(line[w])
				} else {
					s.val[w] = cacheWord(s.seed, key, 0, w)
				}
			}
		case cachePut:
			s.stored[key] = true
			for w := range s.val {
				line[w] = uint32(s.val[w])
			}
		}
		s.hit[0] = 0
		reply := wire.Header{Src: cacheServerID, Dst: hdr.Src, From: wire.None, To: wire.None, Comp: 1}
		out, err = runtime.PackAppend(s.sbuf[:0], s.d.spec, reply, s.args)
		if err != nil {
			out = nil
		}
	}
	if c.tr != nil {
		s.unpacks++
		if out != nil {
			s.packs++
			s.log.add(out, cacheServerID, cacheServerID)
		}
	}
	if sampled {
		c.tr.end(1)
	}
	if out != nil {
		s.server.Send(out)
	}
}

// onReply is a client's receive callback: check the reply against the
// model, commit an acknowledged PUT, issue the next request.
func (s *cacheSim) onReply(i int, msg []byte) {
	c := s.cur
	sampled := c.tr.sampled()
	if sampled {
		c.tr.beginSampled("host.callback", layerBench, int64(s.issued))
	}
	if c.tr != nil {
		s.unpacks++
		s.replies.add(msg)
	}
	if s.sabotage {
		s.sabotage = false
		msg = append([]byte(nil), msg...)
		msg[wire.HeaderBytes+1+8] ^= 0x01 // first byte of the value words
	}
	cl := &s.clients[i]
	if _, err := runtime.UnpackInto(s.d.spec, msg, s.args); err == nil && cl.key != 0 && s.key[0] == cl.key {
		ver := s.model[cl.key]
		if cl.put {
			ver = cl.ver
		}
		wantOp := uint64(cacheGet)
		if cl.put {
			wantOp = cachePut
		}
		ok := s.op[0] == wantOp
		for w := 0; ok && w < cacheWords; w++ {
			ok = s.val[w] == cacheWord(s.seed, cl.key, ver, w)
		}
		if ok {
			s.verified++
			s.model[cl.key] = ver
			c.lat = append(c.lat, float64(s.n.Now()-cl.sentAt)/1e3)
		}
		cl.key = 0
	}
	var out []byte
	if cl.key == 0 && s.issued < s.quota {
		out = s.prepare(i)
	}
	if sampled {
		c.tr.end(1)
	}
	if out != nil {
		cl.host.Send(out)
	}
}

func (s *cacheSim) round(c *ctx) (roundOut, error) {
	s.cur = c
	s.sabotage = c.sabotage
	per := max(c.scaled(cacheReqsPerRound), cacheClients)
	s.issued, s.quota = 0, per
	prime := func() {
		for i := range s.clients {
			s.clients[i].key = 0
			if msg := s.prepare(i); msg != nil {
				s.clients[i].host.Send(msg)
			}
		}
	}
	verified, err := s.run(c, int64(s.next), prime, func() int64 { return s.verified })
	return roundOut{attempted: int64(s.issued), requests: verified}, err
}

func (s *cacheSim) stages() int { return s.d.stages }
func (s *cacheSim) close()      {}

// freshSwitch has the live switch's tables and the cache's registers
// at version 0.
func (s *cacheSim) freshSwitch() (*bmv2.Switch, error) {
	sw := cloneSwitch(s.dev.SW)
	regs := bmv2.NewWriteBatch()
	for _, e := range s.dev.SW.Entries("lu_Index") {
		idx, key := int(e.Action.Args[0]), e.Keys[0].Value
		for w := 0; w < cacheWords; w++ {
			regs.RegisterWrite(fmt.Sprintf("reg_Vals__%d", w), idx, cacheWord(s.seed, key, 0, w))
		}
		regs.RegisterWrite("reg_Valid", idx, 1)
	}
	_, err := sw.Write(regs)
	return sw, err
}

func (s *cacheSim) probes(c *ctx, budget time.Duration) error {
	probeRuntime(c, budget/4, s.d.spec, func(k int) (runtime.Message, [][]uint64) {
		r := s.stream[k&(len(s.stream)-1)]
		s.op[0], s.key[0] = cacheGet, uint64(r.key)
		m := runtime.Message{Src: 1, Dst: cacheServerID, Device: 1, Comp: 1}
		if r.put {
			s.op[0] = cachePut
			return m, s.args
		}
		return m, s.getArgs
	}, s.replies.msgs, s.args)
	return probeBmv2(c, budget*3/4, s.d.progs[1], s.freshSwitch, &s.log)
}

func (s *cacheSim) budget(c *ctx) map[string]float64 { return s.simMeter.budget(c) }
