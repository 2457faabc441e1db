package netcl

// Differential testing: the same NetCL kernel compiled for the TNA and
// v1model targets must produce identical messages and device state for
// identical inputs, and both must match a plain-Go reference model.
// This exercises the full atomic matrix of Table I, width conversions,
// and the lookup kinds, with pseudo-random inputs (testing/quick).

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"netcl/internal/bmv2"
	"netcl/internal/runtime"
	"netcl/internal/wire"
)

// twin compiles one kernel for both targets and returns both switches.
func twin(t *testing.T, src string) (*bmv2.Switch, *bmv2.Switch, *MessageSpec) {
	t.Helper()
	var sws []*bmv2.Switch
	var spec *MessageSpec
	for _, target := range []Target{TargetTNA, TargetV1Model} {
		art, err := Compile("twin", src, Options{Target: target, Devices: []uint16{1}})
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		sw := bmv2.New(art.Device(1).P4)
		route(t, sw, map[uint64]uint64{1: 1, 2: 2})
		sws = append(sws, sw)
		spec = art.Specs[1]
	}
	return sws[0], sws[1], spec
}

// shoot sends one message through a switch and returns the unpacked
// output values (nil if dropped).
func shoot(t *testing.T, sw *bmv2.Switch, spec *MessageSpec, args [][]uint64) ([][]uint64, *wire.Header) {
	t.Helper()
	msg, err := Pack(spec, Message{Src: 1, Dst: 2, Device: 1, Comp: 1}.Header(), args)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Process(runtime.Frame(msg, 1, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped {
		return nil, nil
	}
	out, ok := runtime.Deframe(res.Data)
	if !ok {
		t.Fatal("not a netcl frame")
	}
	vals := make([][]uint64, len(spec.Args))
	for i, a := range spec.Args {
		vals[i] = make([]uint64, a.Count)
	}
	hdr, err := UnpackInto(spec, out, vals)
	if err != nil {
		t.Fatal(err)
	}
	return vals, &hdr
}

func equalVals(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// TestDifferentialAtomics drives every atomic operation with random
// inputs on both targets and checks outputs and final register state
// against a Go reference.
func TestDifferentialAtomics(t *testing.T) {
	type aCase struct {
		name string
		// ref computes (newMem, result) from (mem, cond, operand).
		ref func(m uint64, cond bool, v uint64) (uint64, uint64)
	}
	sat := func(x uint64) uint64 {
		if x > 0xFFFFFFFF {
			return 0xFFFFFFFF
		}
		return x
	}
	cases := []aCase{
		{"atomic_add", func(m uint64, _ bool, v uint64) (uint64, uint64) {
			return (m + v) & 0xFFFFFFFF, m
		}},
		{"atomic_add_new", func(m uint64, _ bool, v uint64) (uint64, uint64) {
			n := (m + v) & 0xFFFFFFFF
			return n, n
		}},
		{"atomic_sadd_new", func(m uint64, _ bool, v uint64) (uint64, uint64) {
			n := sat(m + v)
			return n, n
		}},
		{"atomic_sub", func(m uint64, _ bool, v uint64) (uint64, uint64) {
			return (m - v) & 0xFFFFFFFF, m
		}},
		{"atomic_ssub_new", func(m uint64, _ bool, v uint64) (uint64, uint64) {
			if v > m {
				return 0, 0
			}
			return m - v, m - v
		}},
		{"atomic_or", func(m uint64, _ bool, v uint64) (uint64, uint64) { return m | v, m }},
		{"atomic_and", func(m uint64, _ bool, v uint64) (uint64, uint64) { return m & v, m }},
		{"atomic_xor_new", func(m uint64, _ bool, v uint64) (uint64, uint64) { return m ^ v, m ^ v }},
		{"atomic_min_new", func(m uint64, _ bool, v uint64) (uint64, uint64) {
			if v < m {
				return v, v
			}
			return m, m
		}},
		{"atomic_max", func(m uint64, _ bool, v uint64) (uint64, uint64) {
			if v > m {
				return v, m
			}
			return m, m
		}},
		{"atomic_swap", func(m uint64, _ bool, v uint64) (uint64, uint64) { return v, m }},
		{"atomic_cond_add_new", func(m uint64, c bool, v uint64) (uint64, uint64) {
			if c {
				n := (m + v) & 0xFFFFFFFF
				return n, n
			}
			return m, m
		}},
		{"atomic_cond_dec", func(m uint64, c bool, _ uint64) (uint64, uint64) {
			if c {
				n := m
				if n > 0 {
					n--
				}
				return n, m
			}
			return m, m
		}},
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			operand := ", v"
			if c.name == "atomic_cond_dec" {
				operand = ""
			}
			condArg := ""
			if c.name == "atomic_cond_add_new" || c.name == "atomic_cond_dec" {
				condArg = "cond != 0,"
			}
			src := fmt.Sprintf(`
_net_ unsigned M[16];
_kernel(1) void k(unsigned idx, unsigned v, unsigned cond, unsigned &out) {
  out = ncl::%s(&M[idx & 15], %s 0%s);
  return ncl::reflect();
}
`, c.name, condArg, operand)
			// The "0, v" trick doesn't type-check; build args properly.
			args := "&M[idx & 15]"
			if condArg != "" {
				args += ", cond != 0"
			}
			if operand != "" {
				args += ", v"
			}
			src = fmt.Sprintf(`
_net_ unsigned M[16];
_kernel(1) void k(unsigned idx, unsigned v, unsigned cond, unsigned &out) {
  out = ncl::%s(%s);
  return ncl::reflect();
}
`, c.name, args)
			tna, v1, spec := twin(t, src)
			mem := make([]uint64, 16)
			rng := rand.New(rand.NewSource(42))
			for iter := 0; iter < 40; iter++ {
				idx := uint64(rng.Intn(16))
				v := uint64(rng.Uint32())
				if iter%5 == 0 {
					v = 0xFFFFFFF0 + uint64(rng.Intn(16)) // saturation edge
				}
				cond := uint64(rng.Intn(2))
				in := [][]uint64{{idx}, {v}, {cond}, nil}
				outT, hT := shoot(t, tna, spec, in)
				outV, hV := shoot(t, v1, spec, in)
				if !equalVals(outT, outV) || hT.Act != hV.Act {
					t.Fatalf("iter %d: targets diverge: %v vs %v", iter, outT, outV)
				}
				wantMem, wantOut := c.ref(mem[idx], cond != 0, v)
				mem[idx] = wantMem
				if outT[3][0] != wantOut {
					t.Fatalf("iter %d: result %d, reference %d (mem was %d, v=%d cond=%d)",
						iter, outT[3][0], wantOut, wantMem, v, cond)
				}
				got, err := tna.RegisterRead("reg_M", int(idx))
				if err != nil {
					t.Fatal(err)
				}
				if got != wantMem {
					t.Fatalf("iter %d: memory %d, reference %d", iter, got, wantMem)
				}
			}
		})
	}
}

// TestDifferentialArithmetic compares a compute-dense kernel across
// targets with quick-generated inputs.
func TestDifferentialArithmetic(t *testing.T) {
	const src = `
_kernel(1) void k(unsigned a, unsigned b, uint8_t sh, unsigned &x, unsigned &y, unsigned &z) {
  x = (a + b) * 3 - (a ^ b);
  y = (a >> (sh & 31)) | (b << (sh & 7));
  z = ncl::min(a, b) + ncl::max(a & 0xFF, b & 0xFF) + ncl::sadd(a, b);
  return ncl::reflect();
}
`
	tna, v1, spec := twin(t, src)
	f := func(a, b uint32, sh uint8) bool {
		in := [][]uint64{{uint64(a)}, {uint64(b)}, {uint64(sh)}, nil, nil, nil}
		outT, _ := shoot(t, tna, spec, in)
		outV, _ := shoot(t, v1, spec, in)
		if !equalVals(outT, outV) {
			return false
		}
		// Reference for x.
		wantX := uint32((a+b)*3 - (a ^ b))
		return outT[3][0] == uint64(wantX)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDifferentialLookupKinds checks set/kv/rv lookups across targets.
func TestDifferentialLookupKinds(t *testing.T) {
	const src = `
_net_ _lookup_ unsigned allow[] = {3, 5, 8, 13};
_net_ _lookup_ ncl::kv<unsigned, unsigned> m[] = {{1,100},{2,200},{7,700}};
_net_ _lookup_ ncl::rv<unsigned, unsigned> r[] = {{{0,9},1},{{10,99},2},{{100,999},3}};
_kernel(1) void k(unsigned x, uint8_t &inSet, unsigned &mv, unsigned &rv_out) {
  inSet = ncl::lookup(allow, x);
  ncl::lookup(m, x, mv);
  ncl::lookup(r, x, rv_out);
  return ncl::reflect();
}
`
	tna, v1, spec := twin(t, src)
	kvRef := map[uint64]uint64{1: 100, 2: 200, 7: 700}
	setRef := map[uint64]bool{3: true, 5: true, 8: true, 13: true}
	rvRef := func(x uint64) uint64 {
		switch {
		case x <= 9:
			return 1
		case x <= 99:
			return 2
		case x <= 999:
			return 3
		}
		return 0
	}
	for x := uint64(0); x < 1200; x += 7 {
		in := [][]uint64{{x}, nil, nil, nil}
		outT, _ := shoot(t, tna, spec, in)
		outV, _ := shoot(t, v1, spec, in)
		if !equalVals(outT, outV) {
			t.Fatalf("x=%d: targets diverge", x)
		}
		if got := outT[1][0] != 0; got != setRef[x] {
			t.Errorf("x=%d: set membership %v, want %v", x, got, setRef[x])
		}
		if outT[2][0] != kvRef[x] {
			t.Errorf("x=%d: kv %d, want %d", x, outT[2][0], kvRef[x])
		}
		if outT[3][0] != rvRef(x) {
			t.Errorf("x=%d: rv %d, want %d", x, outT[3][0], rvRef(x))
		}
	}
}

// TestDifferentialBitOps checks bswap/clz/ctz/bit_chk on both targets.
func TestDifferentialBitOps(t *testing.T) {
	const src = `
_kernel(1) void k(unsigned x, uint8_t pos, unsigned &sw, unsigned &lead, unsigned &trail, uint8_t &bit) {
  sw = ncl::bswap(x);
  lead = ncl::clz(x);
  trail = ncl::ctz(x);
  bit = ncl::bit_chk(x, pos & 31);
  return ncl::reflect();
}
`
	tna, v1, spec := twin(t, src)
	ref := func(x uint32) (uint32, uint32, uint32) {
		sw := x<<24 | (x&0xFF00)<<8 | (x>>8)&0xFF00 | x>>24
		lead := uint32(32)
		for i := 31; i >= 0; i-- {
			if x>>uint(i)&1 != 0 {
				lead = uint32(31 - i)
				break
			}
		}
		trail := uint32(32)
		for i := 0; i < 32; i++ {
			if x>>uint(i)&1 != 0 {
				trail = uint32(i)
				break
			}
		}
		return sw, lead, trail
	}
	f := func(x uint32, pos uint8) bool {
		in := [][]uint64{{uint64(x)}, {uint64(pos)}, nil, nil, nil, nil}
		outT, _ := shoot(t, tna, spec, in)
		outV, _ := shoot(t, v1, spec, in)
		if !equalVals(outT, outV) {
			return false
		}
		sw, lead, trail := ref(x)
		wantBit := uint64(0)
		if x>>(uint(pos)&31)&1 != 0 {
			wantBit = 1
		}
		return outT[2][0] == uint64(sw) && outT[3][0] == uint64(lead) &&
			outT[4][0] == uint64(trail) && outT[5][0] == wantBit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDifferentialConstVsVariable: the compiler evaluates an expression
// over literals itself, and the switch evaluates the same expression
// over message arguments. Each case compiles x = E both ways, and the
// two programs must store the same x on both targets.
func TestDifferentialConstVsVariable(t *testing.T) {
	cases := []struct {
		name   string
		params string // the kernel's inputs, ahead of the output x
		x      string // the type of x
		lit    string // E over literals (or a loop's induction variable)
		vars   string // E over the inputs
		args   []uint64
	}{
		{"bool_shl", "uint8_t b", "uint32_t", "x = true << 1;", "x = (b == 1) << 1;", []uint64{1}},
		{"cmp_shl", "uint8_t b", "uint32_t", "x = (1 == 1) << 3;", "x = (b == 1) << 3;", []uint64{1}},
		{"shl_width_u8", "uint8_t a, uint8_t s", "uint32_t", "x = (uint8_t)200 << 9;", "x = a << s;", []uint64{200, 9}},
		{"shl_width_s32", "int32_t a, int32_t s", "uint32_t", "x = 1 << 32;", "x = a << s;", []uint64{1, 32}},
		{"shl_63", "uint64_t a, uint64_t s", "uint64_t", "x = (uint64_t)3 << 63;", "x = a << s;", []uint64{3, 63}},
		{"shl_64", "uint64_t a, uint64_t s", "uint64_t", "x = (uint64_t)3 << 64;", "x = a << s;", []uint64{3, 64}},
		{"shr_64", "uint64_t a, uint64_t s", "uint64_t", "x = (uint64_t)12345 >> 64;", "x = a >> s;", []uint64{12345, 64}},
		{"ashr_63", "int64_t a, int64_t s", "int64_t", "x = (int64_t)-5 >> 63;", "x = a >> s;", []uint64{uint64(1<<64 - 5), 63}},
		{"ashr_width_s32", "int32_t a, int32_t s", "int32_t", "x = -8 >> 40;", "x = a >> s;", []uint64{uint64(1<<32 - 8), 40}},
		{"sdiv_neg", "int32_t a, int32_t b", "int32_t", "x = -7 / 2;", "x = a / b;", []uint64{uint64(1<<32 - 7), 2}},
		{"srem_neg", "int32_t a, int32_t b", "int32_t", "x = -7 % 2;", "x = a % b;", []uint64{uint64(1<<32 - 7), 2}},
		{"sdiv_neg_neg", "int16_t a, int16_t b", "int16_t", "x = (int16_t)-100 / (int16_t)-7;", "x = a / b;", []uint64{1<<16 - 100, 1<<16 - 7}},
		{"srem_neg_divisor", "int16_t a, int16_t b", "int16_t", "x = (int16_t)100 % (int16_t)-7;", "x = a % b;", []uint64{100, 1<<16 - 7}},
		{"cmp_s8_u16", "int8_t a, uint16_t b", "uint8_t", "x = (int8_t)-1 < (uint16_t)1;", "x = a < b;", []uint64{0xFF, 1}},
		{"cmp_s16_u8", "int16_t a, uint8_t b", "uint8_t", "x = (int16_t)-1 == (uint8_t)255;", "x = a == b;", []uint64{0xFFFF, 255}},
		{"cmp_u32_s64", "uint32_t a, int64_t b", "uint8_t", "x = (uint32_t)4000000000 > (int64_t)-1;", "x = a > b;", []uint64{4000000000, 1<<64 - 1}},
		{"cmp_s8_s32", "int8_t a, int32_t b", "uint8_t", "x = (int8_t)-3 >= -3;", "x = a >= b;", []uint64{0xFD, 1<<32 - 3}},
		{"u8_induction", "uint8_t a", "uint32_t",
			"for (uint8_t i = 16; i < 17; i++) x = i << 4;",
			"uint8_t j = a; x = j << 4;", []uint64{16}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			kernel := func(body string) string {
				return "_kernel(1) void k(" + c.params + ", " + c.x + " &x) { " + body + " return ncl::reflect(); }"
			}
			litT, litV, spec := twin(t, kernel(c.lit))
			varT, varV, _ := twin(t, kernel(c.vars))
			in := make([][]uint64, len(c.args)+1)
			for i, v := range c.args {
				in[i] = []uint64{v}
			}
			var outs [4][][]uint64
			for n, sw := range []*bmv2.Switch{litT, litV, varT, varV} {
				outs[n], _ = shoot(t, sw, spec, in)
			}
			x := func(n int) uint64 { return outs[n][len(in)-1][0] }
			if x(0) != x(2) || x(1) != x(3) || x(0) != x(1) {
				t.Errorf("x: literals tna %d v1model %d, arguments tna %d v1model %d", x(0), x(1), x(2), x(3))
			}
		})
	}
}
