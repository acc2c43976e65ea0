package hgio

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"unsafe"

	"hyperline/internal/hg"
)

// MapBinary opens a binary-format hypergraph file and aliases its flat
// arrays directly as hg.Hypergraph slices via mmap: no parsing, no
// copying, and load time proportional to the pages actually touched
// rather than the file size — the out-of-core load path for datasets
// that exceed RAM. Both orientations live in the file, 8-byte aligned,
// so the whole hypergraph maps zero-copy.
//
// Validation is proportional to the offset sections only (monotone
// offsets with correct endpoints, plus the exact-file-size check); the
// adjacency sections — the bulk of the file — are trusted and never
// touched at load. Map local files you control; route network bodies
// through ReadBinary, which validates everything. Call Validate() on
// the result for a full (page-touching) structural check. The first
// Stage-3 pass checks the two adjacency sections against each other as
// it builds the position array (hg.Hypergraph.Positions); every Stage-3
// pass over a file whose orientations disagree fails with that error.
//
// The returned hypergraph owns the mapping: Close unmaps (safe only
// once no view, including Dual views, is in use), and dropping the
// last reference lets a GC finalizer unmap — the lifecycle a serving
// registry relies on when replacing datasets under concurrent readers.
func MapBinary(path string) (*hg.Hypergraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < headerSize {
		return nil, fmt.Errorf("hgio: %s: truncated binary file: have %d bytes, want at least %d",
			path, st.Size(), headerSize)
	}
	data, release, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	h, err := mapBinaryData(path, data, st.Size())
	if err != nil {
		release()
		return nil, err
	}
	h.SetReleaser(release)
	return h, nil
}

// mapBinaryData builds a hypergraph over an already-mapped file image.
func mapBinaryData(path string, data []byte, size int64) (*hg.Hypergraph, error) {
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		// mmap returns page-aligned memory; only the non-mmap fallback
		// could ever land here, and Go's allocator 8-aligns large byte
		// slices. Guard anyway: aliasing int64s needs 8-byte alignment.
		return nil, fmt.Errorf("hgio: %s: mapping is not 8-byte aligned", path)
	}
	hdr, err := readHeader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := checkFileSize(path, size, hdr); err != nil {
		return nil, err
	}
	n, m, nnz := int64(hdr.n), int64(hdr.m), int64(hdr.nnz)
	pos := int64(headerSize)
	eOff := asInt64s(data, pos, m+1)
	pos += 8 * (m + 1)
	eAdj := asUint32s(data, pos, nnz)
	pos += 4*nnz + pad4(hdr.nnz)
	if err := validateEdgeCSR(eOff, nil, hdr.n, hdr.nnz); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	vOff := asInt64s(data, pos, n+1)
	pos += 8 * (n + 1)
	vAdj := asUint32s(data, pos, nnz)
	if vOff[0] != 0 || vOff[n] != nnz {
		return nil, fmt.Errorf("hgio: %s: corrupt vertex offsets [%d..%d], want [0..%d]",
			path, vOff[0], vOff[n], nnz)
	}
	for v := int64(0); v < n; v++ {
		if vOff[v] > vOff[v+1] {
			return nil, fmt.Errorf("hgio: %s: corrupt vertex offset at vertex %d", path, v)
		}
	}
	h, err := hg.FromCSR(int(m), int(n), eOff, eAdj, vOff, vAdj)
	if err != nil {
		return nil, fmt.Errorf("hgio: %s: %w", path, err)
	}
	return h, nil
}

// asInt64s aliases count little-endian int64 values at byte offset off.
func asInt64s(data []byte, off, count int64) []int64 {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&data[off])), count)
}

// asUint32s aliases count little-endian uint32 values at byte offset
// off.
func asUint32s(data []byte, off, count int64) []uint32 {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&data[off])), count)
}

// MapFile loads a hypergraph from path like LoadFile, but maps ".bin"
// files via MapBinary instead of reading them — the load path the
// registry and the daemons use for local files. Text formats have no
// mappable layout and go through the ordinary readers.
func MapFile(path string) (*hg.Hypergraph, error) {
	if strings.HasSuffix(path, ".bin") {
		return MapBinary(path)
	}
	return LoadFile(path)
}
