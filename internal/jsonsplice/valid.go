package jsonsplice

// maxDepth is encoding/json's nesting limit: a document may open at
// most this many arrays and objects without closing one.
const maxDepth = 10000

// plain marks the string bytes that need no attention: everything but
// the quote, the backslash and the control bytes below 0x20.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// Valid reports whether data is one JSON value with optional
// whitespace around it. It accepts exactly what encoding/json.Valid
// accepts — RFC 8259 syntax, no UTF-8 check inside strings, at most
// maxDepth nested arrays and objects — in one pass over the bytes, with
// a tight loop for the comma-separated unsigned integers that make up
// most of a /v2/query entry.
func Valid(data []byte) bool {
	var stackBuf [32]bool
	inObject := stackBuf[:0] // one element per open array (false) or object (true)
	n, i := len(data), 0
	var ok bool
value: // a value starts at or after i
	for i < n && isSpace(data[i]) {
		i++
	}
	if i == n {
		return false
	}
	switch c := data[i]; c {
	case '{', '[':
		if inObject = append(inObject, c == '{'); len(inObject) > maxDepth {
			return false
		}
		for i++; i < n && isSpace(data[i]); i++ {
		}
		switch {
		case i < n && data[i] == c+2: // '}' and ']' follow '{' and '[' by two
			inObject = inObject[:len(inObject)-1]
			i++
			goto next
		case c == '{':
			goto key
		}
		goto value
	case '"':
		i, ok = scanString(data, i)
	case 't':
		i, ok = scanLiteral(data, i, "true")
	case 'f':
		i, ok = scanLiteral(data, i, "false")
	case 'n':
		i, ok = scanLiteral(data, i, "null")
	default:
		i, ok = scanNumber(data, i)
	}
	if !ok {
		return false
	}
next: // a value ended just before i
	for i < n && isSpace(data[i]) {
		i++
	}
	if len(inObject) == 0 {
		return i == n
	}
	if i == n {
		return false
	}
	switch top := inObject[len(inObject)-1]; {
	case data[i] == ',' && top:
		i++
		goto key
	case data[i] == ',':
		i = skipIntRun(data, i+1)
		goto value
	case data[i] == '}' && top, data[i] == ']' && !top:
		inObject = inObject[:len(inObject)-1]
		i++
		goto next
	}
	return false
key: // an object member starts at or after i
	for i < n && isSpace(data[i]) {
		i++
	}
	if i == n || data[i] != '"' {
		return false
	}
	if i, ok = scanString(data, i); !ok {
		return false
	}
	for i < n && isSpace(data[i]) {
		i++
	}
	if i == n || data[i] != ':' {
		return false
	}
	i++
	goto value
}

// isSpace reports whether c is one of the four JSON whitespace bytes.
func isSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r')
}

// skipIntRun returns the index just past the longest run, from i on,
// of unsigned integers that are each followed by a comma: the array
// fast path. What ends the run — the array's last element, a fraction,
// an exponent, whitespace — is left for the general scan, from its
// first byte.
func skipIntRun(data []byte, i int) int {
	for i < len(data) {
		j := i
		if c := data[i]; c == '0' {
			j++
		} else if '1' <= c && c <= '9' {
			j = skipDigits(data, i+1)
		}
		if j == i || j == len(data) || data[j] != ',' {
			return i
		}
		i = j + 1
	}
	return i
}

// skipDigits returns the index of the first byte at or after i that is
// not a decimal digit.
func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// scanString scans the string whose opening quote is at i and returns
// the index just past its closing quote.
func scanString(data []byte, i int) (int, bool) {
	for i++; i < len(data); i++ {
		if plain[data[i]] {
			continue
		}
		switch data[i] {
		case '"':
			return i + 1, true
		case '\\':
			if i++; i == len(data) {
				return 0, false
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(data) || !isHex(data[i+1]) || !isHex(data[i+2]) || !isHex(data[i+3]) || !isHex(data[i+4]) {
					return 0, false
				}
				i += 4
			default:
				return 0, false
			}
		default: // a control byte
			return 0, false
		}
	}
	return 0, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// scanLiteral scans the literal word at i.
func scanLiteral(data []byte, i int, word string) (int, bool) {
	if len(data)-i < len(word) || string(data[i:i+len(word)]) != word {
		return 0, false
	}
	return i + len(word), true
}

// scanNumber scans the number at i — -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? —
// and returns the index just past it.
func scanNumber(data []byte, i int) (int, bool) {
	n := len(data)
	if data[i] == '-' {
		if i++; i == n {
			return 0, false
		}
	}
	switch c := data[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		i = skipDigits(data, i+1)
	default:
		return 0, false
	}
	if i < n && data[i] == '.' {
		j := skipDigits(data, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < n && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < n && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := skipDigits(data, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	return i, true
}
