package bmv2

import (
	"math/rand"
	"testing"

	"netcl/internal/p4"
)

// The bitwise CRC definitions — one shift-and-xor step per input bit —
// are the oracle of the table-driven implementations in hash.go.

func crc16Bitwise(data []byte) uint64 {
	var crc uint16
	for _, b := range data {
		crc ^= uint16(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0xA001
			} else {
				crc >>= 1
			}
		}
	}
	return uint64(crc)
}

func crc32Bitwise(data []byte) uint64 {
	crc := ^uint32(0)
	for _, b := range data {
		crc ^= uint32(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0xEDB88320
			} else {
				crc >>= 1
			}
		}
	}
	return uint64(^crc)
}

func crc64Bitwise(data []byte) uint64 {
	const poly = 0x42F0E1EBA9EA3693
	var crc uint64
	for _, b := range data {
		crc ^= uint64(b) << 56
		for i := 0; i < 8; i++ {
			if crc&(1<<63) != 0 {
				crc = crc<<1 ^ poly
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// TestCRCTablesMatchBitwise: each table-driven CRC equals its bitwise
// definition on 10^5 random inputs of 0 to 64 bytes.
func TestCRCTablesMatchBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 64)
	for i := 0; i < 100_000; i++ {
		data := buf[:rng.Intn(65)]
		rng.Read(data)
		for _, c := range []struct {
			name      string
			got, want func([]byte) uint64
		}{
			{"crc16", crc16, crc16Bitwise},
			{"crc32", crc32IEEE, crc32Bitwise},
			{"crc64", crc64ECMA, crc64Bitwise},
		} {
			if g, w := c.got(data), c.want(data); g != w {
				t.Fatalf("%s(%x) = %#x, bitwise %#x", c.name, data, g, w)
			}
		}
	}
}

func TestHashKnownAnswers(t *testing.T) {
	// The published check values over "123456789": CRC-16/ARC,
	// CRC-32 and CRC-64/ECMA-182.
	data := []byte("123456789")
	for _, c := range []struct {
		name string
		fn   func([]byte) uint64
		want uint64
	}{
		{"crc16", crc16, 0xBB3D},
		{"crc32", crc32IEEE, 0xCBF43926},
		{"crc64", crc64ECMA, 0x6C40DF5F0B497347},
		{"crc16 bitwise", crc16Bitwise, 0xBB3D},
		{"crc32 bitwise", crc32Bitwise, 0xCBF43926},
		{"crc64 bitwise", crc64Bitwise, 0x6C40DF5F0B497347},
	} {
		if got := c.fn(data); got != c.want {
			t.Errorf("%s = %#x, want %#x", c.name, got, c.want)
		}
	}
	if got := xor16([]byte{0x12, 0x34, 0x56, 0x78}); got != 0x1234^0x5678 {
		t.Errorf("xor16 = %#x", got)
	}
	if got := identityHash([]byte{1, 2}); got != 0x0102 {
		t.Errorf("identity = %#x", got)
	}
	// csum16 of zeros is all-ones complemented.
	if got := csum16([]byte{0, 0}); got != 0xFFFF {
		t.Errorf("csum16 = %#x", got)
	}
}

// TestHashAlgosClosed: every algorithm of p4.HashAlgos but random has
// an implementation, and a program declaring any other is refused by
// p4.Validate at New, not hashed as some other algorithm.
func TestHashAlgosClosed(t *testing.T) {
	for _, algo := range p4.HashAlgos {
		if (hashFn(algo) == nil) != (algo == "random") {
			t.Errorf("hashFn(%q) implemented: %v", algo, hashFn(algo) != nil)
		}
	}
	pp := prog()
	pp.Ingress.Hashes = append(pp.Ingress.Hashes, &p4.HashDecl{Name: "h8", Algo: "crc8", Bits: 8})
	sw := New(pp)
	const want = `t: hash h8: unknown algorithm "crc8"`
	if err := sw.CompileErr(); err == nil || err.Error() != want {
		t.Errorf("CompileErr = %v, want %q", err, want)
	}
	if _, err := sw.Process(make([]byte, 16), 0); err == nil {
		t.Error("a refused program processed a packet")
	}
}
