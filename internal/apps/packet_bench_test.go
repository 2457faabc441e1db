package apps

import (
	"testing"

	"netcl/internal/bmv2"
	"netcl/internal/passes"
	"netcl/internal/runtime"
)

// BenchmarkPacket times one packet through Switch.ProcessInto — parse,
// match, action, deparse — on the generated CACHE and AGG programs of
// device 1, each packet framed in Ethernet/IPv4/UDP as on the wire.
// The CACHE switch holds the cacheEntries lines (keys 1–4) and both
// switches the netcl_fwd routes of wireFwd. A sub-benchmark cycles
// through its packets, so the AGG contribution is every worker's share
// of one slot in both versions: each round of AggNumWorkers packets
// completes the slot once. The AGG transit packet asks for device 2,
// so device 1 only forwards it.
//
//	go test ./internal/apps -run '^$' -bench Packet -benchmem
func BenchmarkPacket(b *testing.B) {
	frame := func(msg []byte, err error) []byte {
		if err != nil {
			b.Fatal(err)
		}
		return runtime.Frame(msg, 0x0A0000000001, 0x0A0000000002)
	}
	load := func(name string) (*bmv2.Switch, *runtime.MessageSpec) {
		prog, specs, _, err := CompileApp(ByName(name), passes.TargetTNA, 1)
		if err != nil {
			b.Fatal(err)
		}
		sw := bmv2.New(prog)
		if err := sw.CompileErr(); err != nil {
			b.Fatal(err)
		}
		wireFwd(b, sw)
		return sw, specs[1]
	}

	cache, cspec := load("CACHE")
	cacheEntries(b, false, cache)
	ca := newCacheArgs(cspec)
	put := func() ([]byte, error) {
		ca.zero()
		ca.op[0], ca.key[0] = 2, 2 // PUT_REQ of a cached key
		for w := range ca.vals {
			ca.vals[w] = uint64(200 + w)
		}
		return ca.pack(runtime.Message{Src: 1, Dst: 2, Device: 1, Comp: 1}.Header())
	}

	agg, aspec := load("AGG")
	aa := newAggArgs(aspec)
	var contrib [][]byte
	for ver := 0; ver < 2; ver++ {
		for w := 0; w < AggNumWorkers; w++ {
			aa.fill(0, ver, AggNumSlots, 1<<uint(w), ver, w)
			contrib = append(contrib, frame(aa.pack(runtime.Message{Src: uint16(1 + w%4), Dst: 3, Device: 1, Comp: 1}.Header())))
		}
	}
	aa.fill(1, 0, AggNumSlots, 1, 0, 0)
	transit := frame(aa.pack(runtime.Message{Src: 1, Dst: 3, Device: 2, Comp: 1}.Header()))

	for _, c := range []struct {
		name string
		sw   *bmv2.Switch
		pkts [][]byte
	}{
		{"CACHE/get_hit", cache, [][]byte{frame(ca.get(1, 2, 1, 1))}},
		{"CACHE/get_miss", cache, [][]byte{frame(ca.get(1, 2, 1, 99))}},
		{"CACHE/put", cache, [][]byte{frame(put())}},
		{"AGG/contribution", agg, contrib},
		{"AGG/transit", agg, [][]byte{transit}},
	} {
		b.Run(c.name, func(b *testing.B) {
			res := bmv2.Result{Data: make([]byte, 0, 2048)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.sw.ProcessInto(c.pkts[i%len(c.pkts)], 1, &res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
