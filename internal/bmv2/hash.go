package bmv2

// Hash algorithm implementations used by the Hash externs. They hash
// the concatenated big-endian byte representation of the input fields,
// matching how P4 hash externs consume field lists.

// hashFn resolves a name of the closed set p4.HashAlgos to its
// implementation, once per program; nil for "random" (opRand) and for
// any other name, which the compiler refuses.
func hashFn(algo string) func([]byte) uint64 {
	switch algo {
	case "crc16":
		return crc16
	case "crc32":
		return crc32IEEE
	case "crc64":
		return crc64ECMA
	case "xor16":
		return xor16
	case "csum16", "csum16r":
		return csum16
	case "identity":
		return identityHash
	}
	return nil
}

// The CRCs run one table lookup per input byte; each table entry is
// the register after eight shift-and-xor steps of the bitwise
// definition (hash_test.go keeps that definition as the oracle).
var (
	crc16Table = reflectedTable(0xA001)
	crc32Table = reflectedTable(0xEDB88320)
	crc64Table = func() *[256]uint64 {
		const poly = 0x42F0E1EBA9EA3693
		t := new([256]uint64)
		for i := range t {
			c := uint64(i) << 56
			for k := 0; k < 8; k++ {
				if c&(1<<63) != 0 {
					c = c<<1 ^ poly
				} else {
					c <<= 1
				}
			}
			t[i] = c
		}
		return t
	}()
)

// reflectedTable builds the byte table of a reflected (LSB-first) CRC.
func reflectedTable(poly uint32) *[256]uint32 {
	t := new([256]uint32)
	for i := range t {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = c>>1 ^ poly
			} else {
				c >>= 1
			}
		}
		t[i] = c
	}
	return t
}

// crc16 implements CRC-16/ARC (poly 0x8005, reflected), the default
// "crc16" of P4 targets.
func crc16(data []byte) uint64 {
	var crc uint32
	for _, b := range data {
		crc = crc>>8 ^ crc16Table[byte(crc)^b]
	}
	return uint64(crc)
}

// crc32IEEE implements the standard reflected CRC-32.
func crc32IEEE(data []byte) uint64 {
	crc := ^uint32(0)
	for _, b := range data {
		crc = crc>>8 ^ crc32Table[byte(crc)^b]
	}
	return uint64(^crc)
}

// crc64ECMA implements CRC-64/ECMA-182 (unreflected).
func crc64ECMA(data []byte) uint64 {
	var crc uint64
	for _, b := range data {
		crc = crc<<8 ^ crc64Table[byte(crc>>56)^b]
	}
	return crc
}

// xor16 folds the input into 16 bits by xor.
func xor16(data []byte) uint64 {
	var h uint16
	for i := 0; i < len(data); i += 2 {
		v := uint16(data[i]) << 8
		if i+1 < len(data) {
			v |= uint16(data[i+1])
		}
		h ^= v
	}
	return uint64(h)
}

// csum16 is the ones-complement 16-bit checksum.
func csum16(data []byte) uint64 {
	var sum uint32
	for i := 0; i < len(data); i += 2 {
		v := uint32(data[i]) << 8
		if i+1 < len(data) {
			v |= uint32(data[i+1])
		}
		sum += v
		sum = (sum & 0xFFFF) + sum>>16
	}
	return uint64(^uint16(sum))
}

// identityHash concatenates the low bytes of the input.
func identityHash(data []byte) uint64 {
	var h uint64
	for _, b := range data {
		h = h<<8 | uint64(b)
	}
	return h
}
