package main

import (
	"fmt"
	"strconv"

	"hyperline/internal/core"
)

// digest is an order-sensitive FNV-1a style fold. Numbers are folded as
// whole words, so the same sequence of IDs digests equally whether it came
// from a PipelineResult in memory or from the digits of a JSON response.
type digest uint64

const (
	fnvOffset digest = 14695981039346656037
	fnvPrime  digest = 1099511628211
)

func (d digest) add(x uint64) digest { return (d ^ digest(x)) * fnvPrime }

// addBytes folds raw bytes, skipping JSON whitespace.
func (d digest) addBytes(b []byte) digest {
	for _, c := range b {
		if c == ' ' || c == '\n' || c == '\t' || c == '\r' {
			continue
		}
		d = d.add(uint64(c))
	}
	return d
}

// idsDigest folds a node → hyperedge-ID mapping.
func idsDigest(ids []uint32) digest {
	d := fnvOffset
	for _, id := range ids {
		d = d.add(uint64(id))
	}
	return d
}

// edgesDigest folds a projection's edge list as (U, V, W) triples in CSR
// order — the order of Graph.Edges and of "edge_list" on the wire — without
// materializing the list.
func edgesDigest(res *core.PipelineResult) digest {
	d := fnvOffset
	g := res.Graph
	for u := uint32(0); int(u) < g.NumNodes(); u++ {
		ids, ws := g.Neighbors(u)
		for i, v := range ids {
			if u < v {
				d = d.add(uint64(u)).add(uint64(v)).add(uint64(ws[i]))
			}
		}
	}
	return d
}

// projRef is the expected answer for one (version, s): shape, mapping and,
// where the request asked for edges, the weighted edge list.
type projRef struct {
	nodes, edges int
	ids, edgeSet digest
}

func refOf(res *core.PipelineResult) projRef {
	return projRef{
		nodes:   res.Graph.NumNodes(),
		edges:   res.Graph.NumEdges(),
		ids:     idsDigest(res.HyperedgeIDs),
		edgeSet: edgesDigest(res),
	}
}

// respEntry is what the checker keeps of one per-s result of a /v2/query
// response. An absent ID or edge array digests as the empty list (the server
// omits empty arrays); value is 0 when the entry carries no measure value.
type respEntry struct {
	s, nodes, edges      int
	errMsg               string
	ids, edgeList, value digest
}

// respInfo is the checked part of one /v2/query response.
type respInfo struct {
	version   uint64
	elapsedMS float64
	entries   []respEntry
}

// scanQueryResponse walks a /v2/query response body once. Bodies run to
// hundreds of kilobytes of hyperedge IDs, and decoding them with
// encoding/json would cost the client several times what the server spent
// producing them, drowning cpu_ms_per_op in the benchmark's own work; this
// scanner folds the ID and edge arrays into digests as it passes over them.
// It accepts any field order and whitespace.
func scanQueryResponse(body []byte) (info respInfo, err error) {
	sc := &scanner{b: body}
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(scanError)
			if !ok {
				panic(r)
			}
			err = se
		}
	}()
	sc.object(func(key string) {
		switch key {
		case "version":
			info.version = uint64(sc.number())
		case "elapsed_ms":
			info.elapsedMS = sc.number()
		case "results":
			sc.array(func() { info.entries = append(info.entries, sc.entry()) })
		default:
			sc.skip()
		}
	})
	return info, nil
}

type scanError string

func (e scanError) Error() string { return string(e) }

// scanner is a minimal JSON reader over a complete body. Malformed input
// panics with a scanError, which scanQueryResponse turns into an error.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) fail(msg string) {
	panic(scanError(fmt.Sprintf("bench: bad response JSON: %s at byte %d", msg, s.i)))
}

func (s *scanner) peek() byte {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\n', '\t', '\r':
			s.i++
		default:
			return s.b[s.i]
		}
	}
	s.fail("unexpected end")
	return 0
}

func (s *scanner) expect(c byte) {
	if s.peek() != c {
		s.fail(fmt.Sprintf("want %q", c))
	}
	s.i++
}

// str reads a string and returns its contents with escapes left as written
// (keys and error messages are only compared or reported).
func (s *scanner) str() string {
	s.expect('"')
	start := s.i
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '\\':
			s.i += 2
		case '"':
			s.i++
			return string(s.b[start : s.i-1])
		default:
			s.i++
		}
	}
	s.fail("unterminated string")
	return ""
}

func (s *scanner) number() float64 {
	s.peek()
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		if (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
		s.i++
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil {
		s.fail("bad number")
	}
	return v
}

// object calls f with each key; f must consume the value.
func (s *scanner) object(f func(key string)) {
	s.expect('{')
	if s.peek() == '}' {
		s.i++
		return
	}
	for {
		key := s.str()
		s.expect(':')
		f(key)
		if s.peek() == ',' {
			s.i++
			continue
		}
		s.expect('}')
		return
	}
}

// array calls f at each element; f must consume it.
func (s *scanner) array(f func()) {
	s.expect('[')
	if s.peek() == ']' {
		s.i++
		return
	}
	for {
		f()
		if s.peek() == ',' {
			s.i++
			continue
		}
		s.expect(']')
		return
	}
}

// skip consumes any value and returns its raw bytes.
func (s *scanner) skip() []byte {
	c := s.peek()
	start := s.i
	switch c {
	case '{':
		s.object(func(string) { s.skip() })
	case '[':
		s.array(func() { s.skip() })
	case '"':
		s.str()
	default:
		for s.i < len(s.b) {
			c := s.b[s.i]
			if c == ',' || c == '}' || c == ']' || c == ' ' || c == '\n' || c == '\t' || c == '\r' {
				break
			}
			s.i++
		}
		if s.i == start {
			s.fail("want a value")
		}
	}
	return s.b[start:s.i]
}

// uintsDigest folds every number of a (possibly nested) array of unsigned
// integers — "hyperedge_ids" or "edge_list" — in order of appearance.
func (s *scanner) uintsDigest() digest {
	if s.peek() != '[' {
		s.fail("want an array")
	}
	d := fnvOffset
	depth := 0
	var acc uint64
	inNum := false
	for s.i < len(s.b) {
		c := s.b[s.i]
		s.i++
		if c >= '0' && c <= '9' {
			acc = acc*10 + uint64(c-'0')
			inNum = true
			continue
		}
		if inNum {
			d = d.add(acc)
			acc, inNum = 0, false
		}
		switch c {
		case '[':
			depth++
		case ']':
			depth--
			if depth == 0 {
				return d
			}
		case ',', ' ', '\n', '\t', '\r':
		default:
			s.fail("want unsigned integers")
		}
	}
	s.fail("unterminated array")
	return 0
}

// entry reads one per-s result.
func (s *scanner) entry() respEntry {
	e := respEntry{ids: fnvOffset, edgeList: fnvOffset}
	s.object(func(key string) {
		switch key {
		case "s":
			e.s = int(s.number())
		case "nodes":
			e.nodes = int(s.number())
		case "edges":
			e.edges = int(s.number())
		case "error":
			e.errMsg = s.str()
		case "hyperedge_ids":
			e.ids = s.uintsDigest()
		case "edge_list":
			e.edgeList = s.uintsDigest()
		case "value":
			e.value = fnvOffset.addBytes(s.skip())
		default:
			s.skip()
		}
	})
	return e
}
