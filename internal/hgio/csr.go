package hgio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"hyperline/internal/graph"
)

// CSR format: the Stage-4 s-line graph persisted as its flat arrays,
// the graph half of a spilled projection, so a materialized projection
// comes back from disk without a rebuild.
//
//	magic  [8]byte  "HLCSR\x00\x00\x01"
//	nodes  uint64   node count (post-squeeze)
//	edges  uint64   undirected edge count
//	flags  uint64   bit 0: an orig (pre-squeeze ID) section follows
//	off    [nodes+1]int64    row offsets (8-aligned: header is 32 bytes)
//	adj    [2*edges]uint32   sorted neighbor IDs per row
//	wgt    [2*edges]uint32   parallel edge weights (overlap sizes)
//	orig   [nodes]uint32     pre-squeeze node IDs, when flags bit 0
var csrMagic = [8]byte{'H', 'L', 'C', 'S', 'R', 0, 0, 1}

// csrFlagOrig marks a trailing orig section.
const csrFlagOrig = 1

// csrHeader is the decoded fixed-size prefix of a CSR stream.
type csrHeader struct {
	nodes, edges uint64
	flags        uint64
}

// WriteCSR writes g in the CSR graph format.
func WriteCSR(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(csrMagic[:]); err != nil {
		return err
	}
	off, adj, wgt, orig := g.CSR()
	flags := uint64(0)
	if orig != nil {
		flags |= csrFlagOrig
	}
	var scratch [8]byte
	for _, v := range []uint64{uint64(g.NumNodes()), uint64(g.NumEdges()), flags} {
		binary.LittleEndian.PutUint64(scratch[:], v)
		if _, err := bw.Write(scratch[:]); err != nil {
			return err
		}
	}
	if err := writeInt64s(bw, off); err != nil {
		return err
	}
	if err := writeUint32s(bw, adj); err != nil {
		return err
	}
	if err := writeUint32s(bw, wgt); err != nil {
		return err
	}
	if orig != nil {
		if err := writeUint32s(bw, orig); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readCSRHeader decodes and sanity-checks the fixed-size prefix.
func readCSRHeader(r io.Reader) (csrHeader, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return csrHeader{}, fmt.Errorf("hgio: reading csr magic: %w", err)
	}
	if magic != csrMagic {
		return csrHeader{}, fmt.Errorf("hgio: bad csr magic %q", magic[:])
	}
	var hdr csrHeader
	for _, p := range []*uint64{&hdr.nodes, &hdr.edges, &hdr.flags} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return csrHeader{}, fmt.Errorf("hgio: reading csr header: %w", err)
		}
	}
	const sanity = 1 << 40
	if hdr.nodes > sanity || hdr.edges > sanity {
		return csrHeader{}, fmt.Errorf("hgio: implausible csr header (nodes=%d edges=%d)", hdr.nodes, hdr.edges)
	}
	if hdr.flags&^uint64(csrFlagOrig) != 0 {
		return csrHeader{}, fmt.Errorf("hgio: unknown csr flags %#x", hdr.flags)
	}
	return hdr, nil
}

// ReadCSR reads a graph in the CSR format, validating the offset
// structure (adjacency content is checked by graph.FromCSR's frame
// invariants only, as with the hypergraph readers).
func ReadCSR(r io.Reader) (*graph.Graph, error) {
	hdr, err := readCSRHeader(r)
	if err != nil {
		return nil, err
	}
	off, err := readInt64s(r, hdr.nodes+1)
	if err != nil {
		return nil, fmt.Errorf("hgio: reading csr offsets: %w", err)
	}
	adjLen := 2 * hdr.edges
	if off[0] != 0 || off[hdr.nodes] != int64(adjLen) {
		return nil, fmt.Errorf("hgio: corrupt csr offsets [%d..%d], want [0..%d]", off[0], off[hdr.nodes], adjLen)
	}
	for i := uint64(0); i < hdr.nodes; i++ {
		if off[i] > off[i+1] {
			return nil, fmt.Errorf("hgio: corrupt csr offset at node %d", i)
		}
	}
	adj, err := readUint32s(r, adjLen)
	if err != nil {
		return nil, fmt.Errorf("hgio: reading csr adjacency: %w", err)
	}
	wgt, err := readUint32s(r, adjLen)
	if err != nil {
		return nil, fmt.Errorf("hgio: reading csr weights: %w", err)
	}
	var orig []uint32
	if hdr.flags&csrFlagOrig != 0 {
		if orig, err = readUint32s(r, hdr.nodes); err != nil {
			return nil, fmt.Errorf("hgio: reading csr orig ids: %w", err)
		}
	}
	g, err := graph.FromCSR(int(hdr.nodes), int(hdr.edges), off, adj, wgt, orig)
	if err != nil {
		return nil, fmt.Errorf("hgio: %w", err)
	}
	return g, nil
}
