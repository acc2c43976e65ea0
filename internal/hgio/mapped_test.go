package hgio

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hyperline/internal/graph"
	"hyperline/internal/hg"
)

// writeV1Binary synthesizes a file image in the retired version-1
// layout (edge orientation only): magic, n/m/nnz, off u64[m+1],
// adj u32[nnz].
func writeV1Binary(h *hg.Hypergraph) []byte {
	eOff, eAdj, _, _ := h.CSR()
	var buf bytes.Buffer
	buf.WriteString("HLBIN\x00\x00\x01")
	for _, v := range []uint64{uint64(h.NumVertices()), uint64(h.NumEdges()), uint64(len(eAdj))} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	for _, o := range eOff {
		binary.Write(&buf, binary.LittleEndian, uint64(o))
	}
	binary.Write(&buf, binary.LittleEndian, eAdj)
	return buf.Bytes()
}

func sameHypergraph(t *testing.T, got, want *hg.Hypergraph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("dimensions: got %dx%d want %dx%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	if !reflect.DeepEqual(got.EdgeSlices(), want.EdgeSlices()) {
		t.Fatal("edge orientation differs")
	}
	if !reflect.DeepEqual(got.Dual().EdgeSlices(), want.Dual().EdgeSlices()) {
		t.Fatal("vertex orientation differs")
	}
}

func TestMapBinaryMatchesReadBinary(t *testing.T) {
	h := paperExample()
	path := filepath.Join(t.TempDir(), "h.bin")
	if err := SaveBinary(path, h); err != nil {
		t.Fatal(err)
	}
	read, err := LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := MapBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	sameHypergraph(t, mapped, read)
	if !mapped.Mapped() {
		t.Error("MapBinary result not marked as mapped")
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal("second Close must be a nil no-op, got:", err)
	}
}

// writeV1File writes a version-1 image to a temporary file and returns
// the image and its path.
func writeV1File(t *testing.T) ([]byte, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "v1.bin")
	image := writeV1Binary(paperExample())
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	return image, path
}

func wantV1Rejected(t *testing.T, reader string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("%s: error %v, want one naming version 1", reader, err)
	}
}

// TestReadBinaryV1File: the stream and file readers refuse a version-1
// image with an error that names the version.
func TestReadBinaryV1File(t *testing.T) {
	image, path := writeV1File(t)
	_, err := ReadBinary(bytes.NewReader(image))
	wantV1Rejected(t, "ReadBinary", err)
	_, err = LoadBinary(path)
	wantV1Rejected(t, "LoadBinary", err)
}

// TestMapBinaryV1File: the mapping reader refuses a version-1 image with
// an error that names the version.
func TestMapBinaryV1File(t *testing.T) {
	_, path := writeV1File(t)
	_, err := MapBinary(path)
	wantV1Rejected(t, "MapBinary", err)
}

func TestLoadBinaryTruncated(t *testing.T) {
	h := paperExample()
	dir := t.TempDir()
	path := filepath.Join(dir, "h.bin")
	if err := SaveBinary(path, h); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(full) - 1, len(full) / 2, headerSize + 1, headerSize} {
		p := filepath.Join(dir, "trunc.bin")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadBinary(p)
		if err == nil {
			t.Fatalf("accepted file truncated to %d bytes", cut)
		}
		if !strings.Contains(err.Error(), "truncated") {
			t.Errorf("cut=%d: error %q does not name truncation", cut, err)
		}
		if _, err := MapBinary(p); err == nil {
			t.Fatalf("MapBinary accepted file truncated to %d bytes", cut)
		}
	}
	// Trailing garbage must be rejected too.
	p := filepath.Join(dir, "long.bin")
	if err := os.WriteFile(p, append(full, 0xEE), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBinary(p); err == nil {
		t.Error("accepted trailing bytes")
	}
	if _, err := MapBinary(p); err == nil {
		t.Error("MapBinary accepted trailing bytes")
	}
}

func TestMapBinaryRejectsCorruptOffsets(t *testing.T) {
	h := paperExample()
	dir := t.TempDir()
	path := filepath.Join(dir, "h.bin")
	if err := SaveBinary(path, h); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the final edge offset (same byte the ReadBinary test
	// pokes): MapBinary's offset-section validation must catch it.
	data[8+24+8*4+3] ^= 0xFF
	p := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MapBinary(p); err == nil {
		t.Error("MapBinary accepted corrupt offsets")
	}
}

func TestMapFileDispatch(t *testing.T) {
	h := paperExample()
	dir := t.TempDir()
	bin := filepath.Join(dir, "h.bin")
	if err := SaveBinary(bin, h); err != nil {
		t.Fatal(err)
	}
	got, err := MapFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if !got.Mapped() {
		t.Error("MapFile(.bin) did not map")
	}
	sameHypergraph(t, got, h)
}

func testGraph(squeeze bool) *graph.Graph {
	edges := []graph.Edge{
		{U: 2, V: 7, W: 3},
		{U: 2, V: 9, W: 1},
		{U: 7, V: 9, W: 2},
		{U: 4, V: 9, W: 5},
	}
	return graph.Build(12, edges, squeeze)
}

func TestCSRRoundTrip(t *testing.T) {
	for _, squeeze := range []bool{false, true} {
		g := testGraph(squeeze)
		var buf bytes.Buffer
		if err := WriteCSR(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadCSR(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Edges(), g.Edges()) {
			t.Fatalf("squeeze=%v: csr round trip changed the edge set", squeeze)
		}
		if got.Squeezed() != g.Squeezed() {
			t.Fatalf("squeeze=%v: squeezed flag lost", squeeze)
		}
		if squeeze {
			for u := uint32(0); int(u) < g.NumNodes(); u++ {
				if got.OrigID(u) != g.OrigID(u) {
					t.Fatal("orig IDs changed")
				}
			}
		}
	}
}

// benchHypergraph builds a dataset big enough that load-path
// differences dominate fixed costs.
func benchHypergraph(tb testing.TB) *hg.Hypergraph {
	r := rand.New(rand.NewSource(42))
	const edges, vertices = 20000, 8000
	slices := make([][]uint32, edges)
	for e := range slices {
		k := 2 + r.Intn(12)
		seen := make(map[uint32]bool, k)
		for len(seen) < k {
			seen[uint32(r.Intn(vertices))] = true
		}
		for v := range seen {
			slices[e] = append(slices[e], v)
		}
	}
	return hg.FromEdgeSlices(slices, vertices)
}

func benchBinaryPath(b *testing.B) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.bin")
	if err := SaveBinary(path, benchHypergraph(b)); err != nil {
		b.Fatal(err)
	}
	return path
}

func BenchmarkLoadBinary(b *testing.B) {
	path := benchBinaryPath(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadBinary(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapBinary(b *testing.B) {
	path := benchBinaryPath(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := MapBinary(path)
		if err != nil {
			b.Fatal(err)
		}
		h.Close()
	}
}
