package hgio

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"hyperline/internal/hg"
)

func TestBinaryRoundTrip(t *testing.T) {
	h := paperExample()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != h.NumVertices() || got.NumEdges() != h.NumEdges() {
		t.Fatal("dimensions changed")
	}
	if !reflect.DeepEqual(got.EdgeSlices(), h.EdgeSlices()) {
		t.Fatal("binary round trip changed the hypergraph")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		edges := make([][]uint32, r.Intn(30))
		for e := range edges {
			seen := map[uint32]bool{}
			for k := 0; k < r.Intn(8); k++ {
				seen[uint32(r.Intn(40))] = true
			}
			for v := range seen {
				edges[e] = append(edges[e], v)
			}
		}
		h := hg.FromEdgeSlices(edges, 40)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, h); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.EdgeSlices(), h.EdgeSlices()) &&
			got.NumVertices() == h.NumVertices()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC________________________"),
	}
	for _, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("accepted garbage %q", c)
		}
	}
	// Valid magic but truncated header.
	var buf bytes.Buffer
	buf.Write(binaryMagic[:])
	buf.Write([]byte{1, 2, 3})
	if _, err := ReadBinary(&buf); err == nil {
		t.Error("accepted truncated header")
	}
}

// TestBinaryHugeHeaderFailsWithoutHugeAllocation feeds a tiny body
// whose header claims counts just under the sanity bound: the chunked
// readers must fail on EOF after a bounded allocation instead of
// attempting a count-sized one (ReadBinary is reachable from network
// uploads via hyperlined).
func TestBinaryHugeHeaderFailsWithoutHugeAllocation(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(binaryMagic[:])
	huge := uint64(1 << 39)
	for _, v := range []uint64{huge, huge, huge} { // n, m, nnz
		binary.Write(&buf, binary.LittleEndian, v)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("accepted a hostile header")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ReadBinary did not fail fast on a hostile header")
	}
}

// hugeVertexHeader is a 48-byte body that is well formed up to its
// vertex offsets: a header claiming n = 2³⁶ vertices, no hyperedges and
// no incidences, the one edge offset, and the first of the n+1 vertex
// offsets.
func hugeVertexHeader() []byte {
	var buf bytes.Buffer
	buf.Write(binaryMagic[:])
	for _, v := range []uint64{1 << 36, 0, 0, 0, 0} { // n, m, nnz, eOff[0], vOff[0]
		binary.Write(&buf, binary.LittleEndian, v)
	}
	return buf.Bytes()
}

// TestBinaryHugeVertexCountReadsBeforeAllocating: a body whose header
// claims 2³⁶ vertices fails on EOF within the first chunk of vertex
// offsets. The reader must not size the vertex orientation by the
// header (hg.Transpose would ask for 512 GiB of offsets) before it has
// read the stored offsets the bytes actually hold.
func TestBinaryHugeVertexCountReadsBeforeAllocating(t *testing.T) {
	body := hugeVertexHeader()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(body))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a 48-byte body claiming 2^36 vertices")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Fatalf("allocated %d bytes on a 48-byte body, want at most 8 MiB", got)
	}
}

func TestBinaryRejectsCorruptOffsets(t *testing.T) {
	h := paperExample()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, h); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the final offset (must equal nnz).
	data[8+24+8*4+3] ^= 0xFF
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Error("accepted corrupt offsets")
	}
}

func TestBinaryRejectsOutOfRangeVertex(t *testing.T) {
	h := paperExample()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, h); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Last 4 bytes are the final vertex ID; blow it out of range.
	data[len(data)-1] = 0xFF
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Error("accepted out-of-range vertex")
	}
}

func TestBinaryFileHelpers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.bin")
	h := paperExample()
	if err := SaveBinary(path, h); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.EdgeSlices(), h.EdgeSlices()) {
		t.Fatal("file round trip changed the hypergraph")
	}
}

func TestBinaryEmptyHypergraph(t *testing.T) {
	h := hg.FromEdgeSlices(nil, 0)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != 0 || got.NumVertices() != 0 {
		t.Fatal("empty round trip failed")
	}
}
