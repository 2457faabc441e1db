package p4

import (
	"fmt"
	"math"
	"strconv"
)

// tok is a P4 lexer token: its text is src[start:end]. It holds no
// pointer, so a program's token slice is 16 bytes a token and nothing
// for the collector to scan; an integer's value and width are decoded
// from the source when the parser reads them (pparser.num).
type tok struct {
	kind       tokKind
	start, end int32
	line       int32
}

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokString
	tokPunct
)

// lexP4 tokenizes P4-16 source. Preprocessor lines and comments are
// skipped; annotations (@pragma, @name) are skipped through their
// argument list.
func lexP4(src string) ([]tok, error) {
	if len(src) > math.MaxInt32 {
		return nil, fmt.Errorf("source of %d bytes exceeds %d", len(src), math.MaxInt32)
	}
	// Printed and handwritten P4 run 4–5 source bytes per token.
	out := make([]tok, 0, len(src)/3+1)
	emit := func(kind tokKind, start, end, line int) {
		out = append(out, tok{kind, int32(start), int32(end), int32(line)})
	}
	line := 1
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			i += 2
		case c == '#':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '@':
			// Skip annotation name and optional (...) argument.
			i++
			for i < n && (isP4IdentChar(src[i])) {
				i++
			}
			for i < n && (src[i] == ' ' || src[i] == '\t') {
				i++
			}
			if i < n && src[i] == '(' {
				depth := 0
				for i < n {
					if src[i] == '(' {
						depth++
					}
					if src[i] == ')' {
						depth--
						if depth == 0 {
							i++
							break
						}
					}
					if src[i] == '\n' {
						line++
					}
					i++
				}
			}
		case isP4IdentStart(c):
			start := i
			for i < n && isP4IdentChar(src[i]) {
				i++
			}
			emit(tokIdent, start, i, line)
		case c >= '0' && c <= '9':
			end, _, _, err := lexP4Number(src, i, line)
			if err != nil {
				return nil, err
			}
			emit(tokInt, i, end, line)
			i = end
		case c == '"':
			i++
			start := i
			for i < n && src[i] != '"' {
				i++
			}
			emit(tokString, start, i, line)
			i++
		default:
			w := punctLen(src[i:])
			emit(tokPunct, i, i+w, line)
			i += w
		}
	}
	emit(tokEOF, n, n, line)
	return out, nil
}

// punctLen is the length of the operator at the start of s: the
// longest of |+| |-| &&& << >> <= >= == != && || .. ++ that matches,
// else one byte.
func punctLen(s string) int {
	if len(s) < 2 {
		return 1
	}
	c, d := s[0], s[1]
	switch {
	case c == '|' && (d == '+' || d == '-') && len(s) > 2 && s[2] == '|',
		c == '&' && d == '&' && len(s) > 2 && s[2] == '&':
		return 3
	case c == '<' && (d == '<' || d == '='),
		c == '>' && (d == '>' || d == '='),
		(c == '=' || c == '!') && d == '=',
		(c == '&' || c == '|' || c == '.' || c == '+') && d == c:
		return 2
	}
	return 1
}

func isP4IdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isP4IdentChar(c byte) bool { return isP4IdentStart(c) || (c >= '0' && c <= '9') }

// lexP4Number scans the decimal, hex, or width-prefixed (16w42,
// 8w0xFF) literal at src[i:], returning its end, value and width (0 if
// unsized).
func lexP4Number(src string, i, line int) (int, uint64, int, error) {
	n := len(src)
	start := i
	for i < n && (src[i] >= '0' && src[i] <= '9') {
		i++
	}
	// Width prefix?
	if i < n && (src[i] == 'w' || src[i] == 's') {
		bits, err := strconv.Atoi(src[start:i])
		if err != nil {
			return i, 0, 0, fmt.Errorf("line %d: bad width %q", line, src[start:i])
		}
		i++ // w
		vstart := i
		base := 10
		if i+1 < n && src[i] == '0' && (src[i+1] == 'x' || src[i+1] == 'X') {
			base = 16
			i += 2
			vstart = i
			for i < n && isHex(src[i]) {
				i++
			}
		} else {
			for i < n && (src[i] >= '0' && src[i] <= '9') {
				i++
			}
		}
		v, err := strconv.ParseUint(src[vstart:i], base, 64)
		if err != nil {
			return i, 0, 0, fmt.Errorf("line %d: bad literal", line)
		}
		return i, v, bits, nil
	}
	// Hex?
	if i-start == 1 && src[start] == '0' && i < n && (src[i] == 'x' || src[i] == 'X') {
		i++
		vstart := i
		for i < n && isHex(src[i]) {
			i++
		}
		v, err := strconv.ParseUint(src[vstart:i], 16, 64)
		if err != nil {
			return i, 0, 0, fmt.Errorf("line %d: bad hex literal", line)
		}
		return i, v, 0, nil
	}
	v, err := strconv.ParseUint(src[start:i], 10, 64)
	if err != nil {
		return i, 0, 0, fmt.Errorf("line %d: bad literal %q", line, src[start:i])
	}
	return i, v, 0, nil
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
