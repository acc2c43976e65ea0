package hgio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"hyperline/internal/hg"
)

// Binary format: a compact little-endian CSR dump for large datasets
// where text parsing dominates load time. It is mmap-native: it stores
// both CSR orientations, 8-byte aligned, so MapBinary can alias the
// file's arrays directly as hg.Hypergraph slices with zero parsing and
// zero copying.
//
//	magic   [8]byte  "HLBIN\x00\x00\x02"  (version 2)
//	n       uint64   number of vertices
//	m       uint64   number of hyperedges
//	nnz     uint64   number of incidences
//	eOff    [m+1]int64    edge→vertices row offsets
//	eAdj    [nnz]uint32   vertex IDs, sorted per edge
//	pad     [0|4]byte     zeros, aligning vOff to 8 bytes
//	vOff    [n+1]int64    vertex→edges row offsets
//	vAdj    [nnz]uint32   edge IDs, sorted per vertex
//
// Any other version byte, such as the retired version 1 (edge
// orientation only), is rejected with an error naming the version.
var binaryMagic = [8]byte{'H', 'L', 'B', 'I', 'N', 0, 0, 2}

// binHeader is the decoded fixed-size prefix of a binary file.
type binHeader struct {
	n, m uint64
	nnz  uint64
}

// headerSize is the byte length of magic + counts.
const headerSize = 8 + 3*8

// expectedSize returns the exact byte length of a well-formed file with
// this header.
func (h binHeader) expectedSize() int64 {
	return headerSize + 8*(int64(h.m)+1) + 4*int64(h.nnz) + pad4(h.nnz) + 8*(int64(h.n)+1) + 4*int64(h.nnz)
}

// pad4 is the number of padding bytes after the eAdj section: 4 when
// nnz is odd, so the vOff section lands on an 8-byte boundary.
func pad4(nnz uint64) int64 {
	if nnz%2 == 1 {
		return 4
	}
	return 0
}

// WriteBinary writes h in the current (version 2, mmap-native) binary
// CSR format.
func WriteBinary(w io.Writer, h *hg.Hypergraph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	eOff, eAdj, vOff, vAdj := h.CSR()
	header := []uint64{uint64(h.NumVertices()), uint64(h.NumEdges()), uint64(len(eAdj))}
	var scratch [8]byte
	for _, v := range header {
		binary.LittleEndian.PutUint64(scratch[:], v)
		if _, err := bw.Write(scratch[:]); err != nil {
			return err
		}
	}
	if err := writeInt64s(bw, eOff); err != nil {
		return err
	}
	if err := writeUint32s(bw, eAdj); err != nil {
		return err
	}
	if pad4(uint64(len(eAdj))) != 0 {
		if _, err := bw.Write([]byte{0, 0, 0, 0}); err != nil {
			return err
		}
	}
	if err := writeInt64s(bw, vOff); err != nil {
		return err
	}
	if err := writeUint32s(bw, vAdj); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary reads a hypergraph in the hyperline binary CSR format.
// The vertex orientation is derived from the edge orientation and then
// compared byte-for-byte with the stored one, so a corrupt or hostile
// body can never yield an internally inconsistent hypergraph.
func ReadBinary(r io.Reader) (*hg.Hypergraph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	hdr, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	return readBody(br, hdr)
}

// readHeader decodes and sanity-checks the fixed-size prefix.
func readHeader(r io.Reader) (binHeader, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return binHeader{}, fmt.Errorf("hgio: reading magic: %w", err)
	}
	if magic != binaryMagic {
		if [7]byte(magic[:7]) == [7]byte(binaryMagic[:7]) {
			return binHeader{}, fmt.Errorf("hgio: binary format version %d is not supported (only version 2 is read)", magic[7])
		}
		return binHeader{}, fmt.Errorf("hgio: bad magic %q", magic[:])
	}
	var hdr binHeader
	for _, p := range []*uint64{&hdr.n, &hdr.m, &hdr.nnz} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return binHeader{}, fmt.Errorf("hgio: reading header: %w", err)
		}
	}
	const sanity = 1 << 40
	if hdr.n > sanity || hdr.m > sanity || hdr.nnz > sanity {
		return binHeader{}, fmt.Errorf("hgio: implausible header (n=%d m=%d nnz=%d)", hdr.n, hdr.m, hdr.nnz)
	}
	return hdr, nil
}

// readBody reads everything after the header. The edge orientation is
// validated structurally (monotone offsets, in-range sorted rows); the
// vertex orientation is derived from it by counting sort and must match
// the stored bytes exactly, which makes the whole tail an integrity
// check.
func readBody(r io.Reader, hdr binHeader) (*hg.Hypergraph, error) {
	n, m, nnz := hdr.n, hdr.m, hdr.nnz
	eOff, err := readInt64s(r, m+1)
	if err != nil {
		return nil, fmt.Errorf("hgio: reading edge offsets: %w", err)
	}
	if err := validateEdgeCSR(eOff, nil, n, nnz); err != nil {
		return nil, err
	}
	eAdj, err := readUint32s(r, nnz)
	if err != nil {
		return nil, fmt.Errorf("hgio: reading edge adjacency: %w", err)
	}
	if err := validateEdgeCSR(eOff, eAdj, n, nnz); err != nil {
		return nil, err
	}
	if pad4(nnz) != 0 {
		var padBuf [4]byte
		if _, err := io.ReadFull(r, padBuf[:]); err != nil {
			return nil, fmt.Errorf("hgio: reading padding: %w", err)
		}
	}
	// The stored vertex offsets are read (chunked, so a header's n is
	// bounded by the bytes present) before Transpose allocates by n.
	storedVOff, err := readInt64s(r, n+1)
	if err != nil {
		return nil, fmt.Errorf("hgio: reading vertex offsets: %w", err)
	}
	vOff, vAdj := hg.Transpose(eOff, eAdj, int(n))
	storedVAdj, err := readUint32s(r, nnz)
	if err != nil {
		return nil, fmt.Errorf("hgio: reading vertex adjacency: %w", err)
	}
	if !slices.Equal(vOff, storedVOff) || !slices.Equal(vAdj, storedVAdj) {
		return nil, fmt.Errorf("hgio: vertex orientation inconsistent with edge orientation")
	}
	h, err := hg.FromCSR(int(m), int(n), eOff, eAdj, vOff, vAdj)
	if err != nil {
		return nil, fmt.Errorf("hgio: %w", err)
	}
	return h, nil
}

// validateEdgeCSR checks the edge orientation structurally. With adj
// nil only the offsets are checked (monotone, right endpoints); with
// adj present each row must be strictly sorted with IDs < n.
func validateEdgeCSR(off []int64, adj []uint32, n, nnz uint64) error {
	m := len(off) - 1
	if off[0] != 0 || off[m] != int64(nnz) {
		return fmt.Errorf("hgio: corrupt offsets [%d..%d], want [0..%d]", off[0], off[m], nnz)
	}
	for e := 0; e < m; e++ {
		if off[e] > off[e+1] {
			return fmt.Errorf("hgio: corrupt offset at edge %d", e)
		}
	}
	if adj == nil {
		return nil
	}
	for e := 0; e < m; e++ {
		row := adj[off[e]:off[e+1]]
		for i, v := range row {
			if uint64(v) >= n {
				return fmt.Errorf("hgio: vertex %d out of range (n=%d)", v, n)
			}
			if i > 0 && row[i-1] >= v {
				return fmt.Errorf("hgio: edge %d row not strictly sorted", e)
			}
		}
	}
	return nil
}

// binaryReadChunk bounds how many elements a single read decodes at
// once. Reading in chunks keeps allocation proportional to the bytes
// actually present in the stream: a corrupt (or hostile) header
// claiming astronomical counts fails with an EOF after one small chunk
// instead of attempting one count-sized allocation up front. This
// matters now that ReadBinary is reachable from network uploads, not
// just local files.
const binaryReadChunk = 1 << 16

// readInt64s reads n little-endian int64 values in bounded chunks.
func readInt64s(r io.Reader, n uint64) ([]int64, error) {
	out := make([]int64, 0, min(n, binaryReadChunk))
	buf := make([]byte, 8*binaryReadChunk)
	for uint64(len(out)) < n {
		c := min(n-uint64(len(out)), binaryReadChunk)
		if _, err := io.ReadFull(r, buf[:8*c]); err != nil {
			return nil, err
		}
		for i := uint64(0); i < c; i++ {
			out = append(out, int64(binary.LittleEndian.Uint64(buf[8*i:])))
		}
	}
	return out, nil
}

// readUint32s reads n little-endian uint32 values in bounded chunks.
func readUint32s(r io.Reader, n uint64) ([]uint32, error) {
	out := make([]uint32, 0, min(n, binaryReadChunk))
	buf := make([]byte, 4*binaryReadChunk)
	for uint64(len(out)) < n {
		c := min(n-uint64(len(out)), binaryReadChunk)
		if _, err := io.ReadFull(r, buf[:4*c]); err != nil {
			return nil, err
		}
		for i := uint64(0); i < c; i++ {
			out = append(out, binary.LittleEndian.Uint32(buf[4*i:]))
		}
	}
	return out, nil
}

// writeInt64s writes values little-endian in bounded chunks.
func writeInt64s(w io.Writer, vals []int64) error {
	buf := make([]byte, 8*min(uint64(len(vals)), binaryReadChunk))
	for len(vals) > 0 {
		c := int(min(uint64(len(vals)), binaryReadChunk))
		for i := 0; i < c; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(vals[i]))
		}
		if _, err := w.Write(buf[:8*c]); err != nil {
			return err
		}
		vals = vals[c:]
	}
	return nil
}

// writeUint32s writes values little-endian in bounded chunks.
func writeUint32s(w io.Writer, vals []uint32) error {
	buf := make([]byte, 4*min(uint64(len(vals)), binaryReadChunk))
	for len(vals) > 0 {
		c := int(min(uint64(len(vals)), binaryReadChunk))
		for i := 0; i < c; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], vals[i])
		}
		if _, err := w.Write(buf[:4*c]); err != nil {
			return err
		}
		vals = vals[c:]
	}
	return nil
}

// SaveBinary writes h to path in the binary format.
func SaveBinary(path string, h *hg.Hypergraph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteBinary(f, h)
}

// LoadBinary reads a hypergraph from a binary-format file. The file is
// pre-stat'ed and its size checked against the exact length the header
// implies, so a truncated file fails up front with a clear error
// instead of a confusing mid-array EOF.
func LoadBinary(path string) (*hg.Hypergraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 1<<20)
	hdr, err := readHeader(br)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := checkFileSize(path, st.Size(), hdr); err != nil {
		return nil, err
	}
	h, err := readBody(br, hdr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return h, nil
}

// checkFileSize compares a binary file's on-disk size with the exact
// size its header implies.
func checkFileSize(path string, size int64, hdr binHeader) error {
	want := hdr.expectedSize()
	switch {
	case size < want:
		return fmt.Errorf("hgio: %s: truncated binary file: have %d bytes, want %d (n=%d m=%d nnz=%d)",
			path, size, want, hdr.n, hdr.m, hdr.nnz)
	case size > want:
		return fmt.Errorf("hgio: %s: binary file has %d trailing bytes (have %d, want %d)",
			path, size-want, size, want)
	}
	return nil
}
