package bmv2

// ops.go holds the operator semantics of the P4 subset as a table of
// pure functions over typed vals, one per token of p4.Validate's closed
// operator set. The reference tree-walker dispatches through it; the
// compiled engine's opcodes (instr.go) restate each operator for
// operands of static width and are pinned to this table by the
// expression differential fuzzer.

// maskOf returns the value mask of a width (bits<=0 or >=64: full).
func maskOf(bits int) uint64 {
	if bits >= 64 || bits <= 0 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(bits)) - 1
}

// combinedBits is the result-width rule of binary operators: the wider
// operand (an untyped literal already took the other's width).
func combinedBits(a, b val) int { return max(a.bits, b.bits) }

func boolVal(c bool) val {
	if c {
		return val{1, 1}
	}
	return val{0, 1}
}

// binOps maps a P4 binary operator token to its semantics. Division
// and modulo by zero yield zero (the interpreter's total semantics);
// shifts keep the left operand's width; comparisons yield bit<1>.
var binOps = map[string]func(a, b val) val{
	"+": func(a, b val) val {
		bits := combinedBits(a, b)
		return val{(a.wrapped() + b.wrapped()) & maskOf(bits), bits}
	},
	"-": func(a, b val) val {
		bits := combinedBits(a, b)
		return val{(a.wrapped() - b.wrapped()) & maskOf(bits), bits}
	},
	"*": func(a, b val) val {
		bits := combinedBits(a, b)
		return val{(a.wrapped() * b.wrapped()) & maskOf(bits), bits}
	},
	"/": func(a, b val) val {
		bits := combinedBits(a, b)
		bu := b.wrapped()
		if bu == 0 {
			return val{0, bits}
		}
		return val{(a.wrapped() / bu) & maskOf(bits), bits}
	},
	"s/": func(a, b val) val {
		bits := combinedBits(a, b)
		bs := b.signed()
		if bs == 0 {
			return val{0, bits}
		}
		return val{uint64(a.signed()/bs) & maskOf(bits), bits}
	},
	"%": func(a, b val) val {
		bits := combinedBits(a, b)
		bu := b.wrapped()
		if bu == 0 {
			return val{0, bits}
		}
		return val{(a.wrapped() % bu) & maskOf(bits), bits}
	},
	"s%": func(a, b val) val {
		bits := combinedBits(a, b)
		bs := b.signed()
		if bs == 0 {
			return val{0, bits}
		}
		return val{uint64(a.signed()%bs) & maskOf(bits), bits}
	},
	"&": func(a, b val) val {
		return val{a.wrapped() & b.wrapped(), combinedBits(a, b)}
	},
	"|": func(a, b val) val {
		return val{a.wrapped() | b.wrapped(), combinedBits(a, b)}
	},
	"^": func(a, b val) val {
		return val{a.wrapped() ^ b.wrapped(), combinedBits(a, b)}
	},
	"<<": func(a, b val) val {
		bu := b.wrapped()
		if bu > 63 {
			return val{0, a.bits}
		}
		return val{(a.wrapped() << bu) & a.mask(), a.bits}
	},
	">>": func(a, b val) val {
		bu := b.wrapped()
		if bu > 63 {
			return val{0, a.bits}
		}
		return val{a.wrapped() >> bu, a.bits}
	},
	"s>>": func(a, b val) val {
		sh := b.wrapped()
		if sh > 63 {
			sh = 63
		}
		return val{uint64(a.signed()>>sh) & a.mask(), a.bits}
	},
	"|+|": func(a, b val) val {
		bits := combinedBits(a, b)
		mask := maskOf(bits)
		au := a.wrapped()
		sum := au + b.wrapped()
		if sum > mask || sum < au {
			sum = mask
		}
		return val{sum & mask, bits}
	},
	"|-|": func(a, b val) val {
		bits := combinedBits(a, b)
		au, bu := a.wrapped(), b.wrapped()
		if bu > au {
			return val{0, bits}
		}
		return val{au - bu, bits}
	},
	"==":  func(a, b val) val { return boolVal(a.wrapped() == b.wrapped()) },
	"!=":  func(a, b val) val { return boolVal(a.wrapped() != b.wrapped()) },
	"<":   func(a, b val) val { return boolVal(a.wrapped() < b.wrapped()) },
	"<=":  func(a, b val) val { return boolVal(a.wrapped() <= b.wrapped()) },
	">":   func(a, b val) val { return boolVal(a.wrapped() > b.wrapped()) },
	">=":  func(a, b val) val { return boolVal(a.wrapped() >= b.wrapped()) },
	"s<":  func(a, b val) val { return boolVal(a.signed() < b.signed()) },
	"s<=": func(a, b val) val { return boolVal(a.signed() <= b.signed()) },
	"s>":  func(a, b val) val { return boolVal(a.signed() > b.signed()) },
	"s>=": func(a, b val) val { return boolVal(a.signed() >= b.signed()) },
	"&&":  func(a, b val) val { return boolVal(a.wrapped() != 0 && b.wrapped() != 0) },
	"||":  func(a, b val) val { return boolVal(a.wrapped() != 0 || b.wrapped() != 0) },
}

// unOps maps a unary operator token to its semantics.
var unOps = map[string]func(v val) val{
	"+": func(v val) val { return v },
	"~": func(v val) val { return val{^v.wrapped() & v.mask(), v.bits} },
	"-": func(v val) val { return val{(0 - v.wrapped()) & v.mask(), v.bits} },
	"!": func(v val) val { return boolVal(v.wrapped() == 0) },
}
