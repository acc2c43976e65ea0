package hgio

import (
	"bytes"
	"testing"

	"hyperline/internal/hg"
)

// maxFuzzDigits bounds the IDs text-loader fuzz inputs may contain
// (≤ 5 digits → IDs ≤ 99999). The loaders intentionally accept any
// uint32, but a fuzzed max ID drives the size of the CSR the builder
// allocates, so unconstrained inputs turn the fuzzer into an OOM
// generator instead of a parser exerciser. Overflow handling of huge
// literals stays covered by the explicit seeds in the example-based
// tests.
const maxFuzzDigits = 5

// digitRunTooLong reports whether data contains a run of more than
// maxFuzzDigits ASCII digits.
func digitRunTooLong(data []byte) bool {
	run := 0
	for _, b := range data {
		if b >= '0' && b <= '9' {
			if run++; run > maxFuzzDigits {
				return true
			}
		} else {
			run = 0
		}
	}
	return false
}

// canonicalBytes serializes a hypergraph to its binary form, the
// equality witness for round-trip checks.
func canonicalBytes(t *testing.T, h *hg.Hypergraph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteBinary(&b, h); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return b.Bytes()
}

// FuzzReadAdjacency fuzzes the adjacency-lines loader (the default
// format of PUT /v1/datasets uploads). Invariants: no panic; on
// success, writing the hypergraph back out and re-reading it is a
// fixed point (identical binary serialization).
func FuzzReadAdjacency(f *testing.F) {
	for _, seed := range []string{
		"0 1 2\n1 2 3\n0 1 2 3 4\n4 5\n",
		"", "\n", "# comment\n% comment\n0\n", "0 0 0\n", "7\n\n7\n",
		"1 2\tx\n", "99999\n", "0 1\r\n2 3\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if digitRunTooLong(data) {
			t.Skip("ID beyond fuzz bound")
		}
		h, err := ReadAdjacency(bytes.NewReader(data))
		if err != nil {
			return
		}
		want := canonicalBytes(t, h)
		var text bytes.Buffer
		if err := WriteAdjacency(&text, h); err != nil {
			t.Fatalf("WriteAdjacency after successful read: %v", err)
		}
		h2, err := ReadAdjacency(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written adjacency: %v", err)
		}
		if !bytes.Equal(canonicalBytes(t, h2), want) {
			t.Fatalf("adjacency round trip changed the hypergraph")
		}
	})
}

// FuzzReadPairs fuzzes the incidence-pair loader. Same invariants as
// FuzzReadAdjacency.
func FuzzReadPairs(f *testing.F) {
	for _, seed := range []string{
		"0 0\n0 1\n1 1\n1 2\n",
		"", "# c\n% c\n", "5 1\n", "0 1 2\n", "x y\n", "0\n",
		"3 99999\n", "0 1\n0 1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if digitRunTooLong(data) {
			t.Skip("ID beyond fuzz bound")
		}
		h, err := ReadPairs(bytes.NewReader(data))
		if err != nil {
			return
		}
		want := canonicalBytes(t, h)
		var text bytes.Buffer
		if err := WritePairs(&text, h); err != nil {
			t.Fatalf("WritePairs after successful read: %v", err)
		}
		h2, err := ReadPairs(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written pairs: %v", err)
		}
		if !bytes.Equal(canonicalBytes(t, h2), want) {
			t.Fatalf("pairs round trip changed the hypergraph")
		}
	})
}

// FuzzReadBinary fuzzes the binary CSR loader, which is reachable from
// network uploads (format=bin). Invariants: no panic, allocation
// bounded by the actual stream (the chunked readers), and on success
// the re-serialization is a fixed point.
func FuzzReadBinary(f *testing.F) {
	valid := func(edges [][]uint32, n int) []byte {
		var b bytes.Buffer
		if err := WriteBinary(&b, hg.FromEdgeSlices(edges, n)); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add(valid([][]uint32{{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3, 4}, {4, 5}}, 6))
	f.Add(valid(nil, 0))
	f.Add(valid([][]uint32{{0}}, 1))
	// Truncations and corruptions of a valid stream.
	v := valid([][]uint32{{0, 1}, {1, 2}}, 3)
	f.Add(v[:8])
	f.Add(v[:len(v)-2])
	corrupt := append([]byte(nil), v...)
	corrupt[10] ^= 0xff // header byte
	f.Add(corrupt)
	f.Add(hugeVertexHeader())
	f.Add([]byte("HLBIN\x00\x00\x01"))
	f.Add([]byte("not binary at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		want := canonicalBytes(t, h)
		h2, err := ReadBinary(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("re-reading canonical binary: %v", err)
		}
		if !bytes.Equal(canonicalBytes(t, h2), want) {
			t.Fatalf("binary round trip changed the hypergraph")
		}
	})
}
