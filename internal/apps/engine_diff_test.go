package apps

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"netcl/internal/bmv2"
	"netcl/internal/p4"
	"netcl/internal/passes"
	"netcl/internal/runtime"
)

// enginePair builds two switches over the same program — fast runs
// its packets, slow lends its state to the reference tree-walker — and
// requires the program to compile.
func enginePair(t *testing.T, name string, prog *p4.Program) (fast, slow *bmv2.Switch) {
	t.Helper()
	fast = bmv2.New(prog)
	slow = bmv2.New(prog)
	if err := fast.CompileErr(); err != nil {
		t.Fatalf("%s: compile refused: %v", name, err)
	}
	return fast, slow
}

// randMsg packs one wire message with random argument values. The
// first scalar argument (opcode/type in every app) is kept small to
// hit the dispatch branches.
func randMsg(t *testing.T, spec *runtime.MessageSpec, rng *rand.Rand, device uint16) []byte {
	t.Helper()
	args := make([][]uint64, len(spec.Args))
	for i, a := range spec.Args {
		vals := make([]uint64, a.Count)
		mask := uint64(1)<<(uint(a.Bytes)*8) - 1
		if a.Bytes >= 8 {
			mask = ^uint64(0)
		}
		for k := range vals {
			if i == 0 && a.Count == 1 {
				vals[k] = uint64(rng.Intn(8))
			} else {
				vals[k] = rng.Uint64() & mask
			}
		}
		args[i] = vals
	}
	msg, err := runtime.Pack(spec,
		runtime.Message{Src: uint16(rng.Intn(4) + 1), Dst: uint16(rng.Intn(4) + 1),
			Device: device, Comp: spec.Comp}.Header(), args)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// diffStream feeds an identical packet stream — valid messages, random
// garbage, truncations — to the engine on fast and the reference
// interpreter over slow, and asserts byte-identical results, identical
// errors, and identical counters.
func diffStream(t *testing.T, name string, fast, slow *bmv2.Switch, spec *runtime.MessageSpec, device uint16, seed int64) {
	t.Helper()
	ref := bmv2.NewReference(slow)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 250; i++ {
		var pkt []byte
		switch rng.Intn(10) {
		case 0: // random bytes, usually rejected by the parser
			pkt = make([]byte, rng.Intn(40))
			rng.Read(pkt)
		case 1: // truncated valid message
			m := randMsg(t, spec, rng, device)
			pkt = m[:rng.Intn(len(m))]
		default:
			pkt = randMsg(t, spec, rng, device)
		}
		inPort := rng.Intn(4)
		fr, ferr := fast.Process(pkt, inPort)
		sr, serr := ref.Process(pkt, inPort)
		if (ferr == nil) != (serr == nil) ||
			(ferr != nil && ferr.Error() != serr.Error()) {
			t.Fatalf("%s pkt %d: error mismatch: compiled=%v reference=%v", name, i, ferr, serr)
		}
		if ferr != nil {
			continue
		}
		if !bytes.Equal(fr.Data, sr.Data) || fr.Port != sr.Port || fr.Mcast != sr.Mcast ||
			fr.Dropped != sr.Dropped || fr.NoMatch != sr.NoMatch {
			t.Fatalf("%s pkt %d (len %d): compiled %+v != reference %+v", name, i, len(pkt), fr, sr)
		}
	}
	if fast.PacketsIn != slow.PacketsIn || fast.PacketsOut != slow.PacketsOut ||
		fast.PacketsDropped != slow.PacketsDropped {
		t.Fatalf("%s: counters diverged: compiled in/out/drop %d/%d/%d, reference %d/%d/%d",
			name, fast.PacketsIn, fast.PacketsOut, fast.PacketsDropped,
			slow.PacketsIn, slow.PacketsOut, slow.PacketsDropped)
	}
}

// wireFwd installs the same netcl_fwd entries AutoWire would, on both
// switches, so messages route instead of all falling to no-match.
func wireFwd(t *testing.T, sws ...*bmv2.Switch) {
	t.Helper()
	for _, sw := range sws {
		for id := 1; id <= 4; id++ {
			if _, err := sw.Write(bmv2.NewWriteBatch().Insert("netcl_fwd", &p4.Entry{
				Keys:   []p4.KeyValue{{Value: uint64(id), PrefixLen: -1}},
				Action: &p4.ActionCall{Name: "set_port", Args: []uint64{uint64(id)}},
			})); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEngineDifferentialAllApps proves the compiled engine is
// byte-identical to the reference interpreter on every Table III row —
// AGG, CACHE, CALC, PACC, PLRN, PLDR — for both the generated program
// and the handwritten baseline.
func TestEngineDifferentialAllApps(t *testing.T) {
	type row struct {
		name     string
		app      string
		device   uint16
		baseline string // baseline file; "" = skip baseline variant
	}
	rows := []row{
		{"AGG", "AGG", 1, "agg.p4"},
		{"CACHE", "CACHE", 1, "cache.p4"},
		{"CALC", "CALC", 1, "calc.p4"},
		{"PACC", "PAXOS", PaxosAcceptor1, "pacc.p4"},
		{"PLRN", "PAXOS", PaxosLearner, "plrn.p4"},
		{"PLDR", "PAXOS", PaxosLeader, "pldr.p4"},
	}
	for ri, r := range rows {
		app := ByName(r.app)
		gen, specs, _, err := CompileApp(app, passes.TargetTNA, r.device)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		spec := specs[1]

		progs := []struct {
			label string
			prog  *p4.Program
		}{{r.name + "/generated", gen}}
		src, err := baselineFS.ReadFile("baseline/" + r.baseline)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		bl, err := p4.Parse(r.baseline, string(src))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		progs = append(progs, struct {
			label string
			prog  *p4.Program
		}{r.name + "/baseline", bl})

		for pi, pr := range progs {
			fast, slow := enginePair(t, pr.label, pr.prog)
			wireFwd(t, fast, slow)
			if r.name == "AGG" && pi == 1 {
				for _, sw := range []*bmv2.Switch{fast, slow} {
					if _, err := sw.Write(bmv2.NewWriteBatch().SetDefault("cfg_workers", "set_target", []uint64{AggNumWorkers - 1})); err != nil {
						t.Fatal(err)
					}
				}
			}
			if r.name == "CACHE" {
				cacheEntries(t, pi == 1, fast, slow)
			}
			diffStream(t, pr.label, fast, slow, spec, r.device, int64(0xBEEF+ri*7+pi))
		}
	}
}

// cacheEntries installs a few cached keys (lookup entries + value
// registers) on both switches, mirroring RunCache's control plane, so
// the cache-hit path is exercised.
func cacheEntries(t *testing.T, baseline bool, sws ...*bmv2.Switch) {
	t.Helper()
	idxAction, shareAction := "lu_Index_hit", "lu_Share_hit"
	valReg := func(w int) string { return fmt.Sprintf("reg_Vals__%d", w) }
	validReg := "reg_Valid"
	if baseline {
		idxAction, shareAction = "idx_hit", "share_hit"
		valReg = func(w int) string { return fmt.Sprintf("vals_%02d", w) }
		validReg = "valid_bit"
	}
	for _, sw := range sws {
		b := bmv2.NewWriteBatch()
		for k := 0; k < 4; k++ {
			key, idx := uint64(k+1), uint64(k)
			b.Insert("lu_Index", &p4.Entry{
				Keys:   []p4.KeyValue{{Value: key, PrefixLen: -1}},
				Action: &p4.ActionCall{Name: idxAction, Args: []uint64{idx}},
			})
			b.Insert("lu_Share", &p4.Entry{
				Keys:   []p4.KeyValue{{Value: key, PrefixLen: -1}},
				Action: &p4.ActionCall{Name: shareAction, Args: []uint64{(1 << CacheWords) - 1}},
			})
			for w := 0; w < CacheWords; w++ {
				b.RegisterWrite(valReg(w), int(idx), key*100+uint64(w))
			}
			b.RegisterWrite(validReg, int(idx), 1)
		}
		if _, err := sw.Write(b); err != nil {
			t.Fatal(err)
		}
	}
}
