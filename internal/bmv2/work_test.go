package bmv2

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestWriteWork pins, as exact counts, the work a fixed script of
// ctrl_churn-shaped commits does. Per commit of the 8-op route/fw
// batch (newACLShape's): the diagram nodes both tables built, the
// elementary intervals those nodes cost, and the commits that found a
// table's arena empty (cold rebuilds). Over the 56-op flow batch on an
// exact table (19 inserts, 19 deletes, 18 modifies), churned through
// compactions: the full trie builds, with every live flow's answer
// checked after each compaction. Each count is bounded at its value,
// and -v prints them.
func TestWriteWork(t *testing.T) {
	const aclCommits = 400
	a := newACLShape(t, 128, 64)
	tabs := []*ctable{tableFor(t, a.sw, "route"), tableFor(t, a.sw, "fw")}
	var nodes, ivals, cold int
	for c := 0; c < aclCommits; c++ {
		var before uint64
		for _, tb := range tabs {
			before += tb.builds
			if len(tb.fb.nodes) == 0 && len(tb.fb.live) > 0 {
				cold++
			}
		}
		if _, err := a.sw.Write(a.batch()); err != nil {
			t.Fatal(err)
		}
		for _, tb := range tabs {
			nodes += int(tb.builds)
			ivals += tb.fb.work
		}
		nodes -= int(before)
	}

	const flows, flowCommits = 2000, 300
	pp := pairProg()
	sw := New(pp)
	rng := rand.New(rand.NewSource(5))
	model := map[uint64]uint64{}
	var live []uint64
	b := NewWriteBatch()
	for len(live) < flows {
		if k := uint64(rng.Uint32()); model[k] == 0 {
			model[k] = 1
			live = append(live, k)
			b.Insert("ta", entry("set_o1", 1, 0, kv(k)))
		}
	}
	if _, err := sw.Write(b); err != nil {
		t.Fatal(err)
	}
	ta := tableFor(t, sw, "ta")
	fullBuilds, compactions := ta.builds, 0
	for c := 0; c < flowCommits; c++ {
		b := NewWriteBatch()
		for i := 0; i < 19; i++ {
			k := uint64(rng.Uint32())
			for model[k] != 0 {
				k = uint64(rng.Uint32())
			}
			model[k] = uint64(2 + c)
			live = append(live, k)
			b.Insert("ta", entry("set_o1", model[k], 0, kv(k)))
		}
		for i := 0; i < 19; i++ {
			j := rng.Intn(len(live))
			b.Delete("ta", live[j])
			delete(model, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for i := 0; i < 18; i++ {
			k := live[rng.Intn(len(live))]
			model[k]++
			b.Modify("ta", entry("set_o1", model[k], 0, kv(k)))
		}
		recs := len(sw.entries["ta"].recs)
		if _, err := sw.Write(b); err != nil {
			t.Fatal(err)
		}
		if len(sw.entries["ta"].recs) >= recs {
			continue
		}
		compactions++
		pkt := make([]byte, 12)
		for k, want := range model {
			binary.BigEndian.PutUint32(pkt, uint32(k))
			res, err := sw.Process(pkt, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := binary.BigEndian.Uint32(res.Data[4:]); uint64(got) != want {
				t.Fatalf("commit %d, after a compaction: flow %#x answers %d, want %d", c, k, got, want)
			}
		}
	}
	fullBuilds = ta.builds - fullBuilds

	t.Logf("acl batch, %d commits: %d nodes built (%.2f a commit), %d elementary intervals (%.1f), %d cold rebuilds",
		aclCommits, nodes, float64(nodes)/aclCommits, ivals, float64(ivals)/aclCommits, cold)
	t.Logf("flow batch, %d commits: %d full trie builds, %d compactions", flowCommits, fullBuilds, compactions)
	if compactions < 3 {
		t.Fatalf("vacuous: %d compactions", compactions)
	}
	for _, c := range []struct {
		what      string
		got, most int
	}{
		{"acl nodes built", nodes, 5007},
		{"acl elementary intervals", ivals, 198913},
		{"acl cold rebuilds", cold, 0},
		{"flow full trie builds", int(fullBuilds), 0},
	} {
		if c.got > c.most {
			t.Errorf("%s: %d, at most %d", c.what, c.got, c.most)
		}
	}
}
