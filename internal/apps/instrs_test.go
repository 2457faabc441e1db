package apps

import (
	"slices"
	"testing"

	"netcl/internal/bmv2"
)

// TestInstrsPerPacket pins the instructions the compiled engine
// executes on each packet of BenchmarkPacket's rows, after one warm-up
// cycle through the row. The count exists only in a build with
// -tags bmv2count, which make tier1 runs this test under: a change
// that adds work on the packet path changes these numbers, in review.
func TestInstrsPerPacket(t *testing.T) {
	count := instrCount()
	if count == nil {
		t.Skip("the instruction count needs -tags bmv2count")
	}
	want := map[string][]int64{
		"CACHE/get_hit":  {157},
		"CACHE/get_miss": {54},
		"CACHE/put":      {131},
		// Per worker of one slot, version 0 then 1: the first share,
		// the later ones, the last (which multicasts the result).
		"AGG/contribution": {38, 50, 50, 50, 50, 54, 37, 49, 49, 49, 49, 53},
		"AGG/transit":      {11},
	}
	for _, c := range packetCases(t) {
		var res bmv2.Result
		var got []int64
		for cycle := 0; cycle < 2; cycle++ {
			got = got[:0]
			for _, pkt := range c.pkts {
				n0 := count()
				if err := c.sw.ProcessInto(pkt, 1, &res); err != nil {
					t.Fatal(err)
				}
				got = append(got, count()-n0)
			}
		}
		if !slices.Equal(got, want[c.name]) {
			t.Errorf("%s: instructions per packet %v, want %v", c.name, got, want[c.name])
		}
	}
}
