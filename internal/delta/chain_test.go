package delta

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/hg"
)

// chainCase decodes fuzz bytes into a base and up to four deltas: the
// base as fuzzCase decodes it, then each part of the bytes after its
// 0xFF, split at every further 0xFF, a delta against the version before
// it (decodeDelta). Deltas Normalize rejects are left out of the chain.
func chainCase(data []byte) (*hg.Hypergraph, []*Delta) {
	base, _ := fuzzCase(data)
	var parts [][]byte
	if i := slices.Index(data, 0xFF); i > 0 {
		parts = bytes.Split(data[i+1:], []byte{0xFF})
	}
	var ds []*Delta
	h := base
	for _, part := range parts {
		if len(ds) == 4 {
			break
		}
		d := decodeDelta(h, part)
		if d.Normalize(h) != nil {
			continue
		}
		next, err := Apply(h, d)
		if err != nil {
			continue
		}
		ds, h = append(ds, d), next
	}
	return base, ds
}

// decodeDelta decodes one delta against h as fuzzCase decodes its delta:
// 0xC0..0xFE deletes hyperedge b−0xC0 mod m when it is non-empty,
// 0x80..0xBF closes the current insert (at most eight), and any other
// byte adds vertex b mod (n+2) to it.
func decodeDelta(h *hg.Hypergraph, part []byte) *Delta {
	d := &Delta{}
	var ins []uint32
	flush := func() {
		if len(ins) > 0 && len(d.Inserts) < 8 {
			d.Inserts = append(d.Inserts, ins)
		}
		ins = nil
	}
	for _, b := range part {
		switch {
		case b >= 0xC0:
			if e := uint32(int(b-0xC0) % h.NumEdges()); h.EdgeSize(e) > 0 {
				d.Deletes = append(d.Deletes, e)
			}
		case b >= 0x80:
			flush()
		default:
			ins = append(ins, uint32(int(b)%(h.NumVertices()+2)))
		}
	}
	flush()
	return d
}

// FuzzPatchChainMatchesRecompute is the differential target for the
// write path the service runs: a base and a chain of up to four deltas,
// each composed onto the pending version before it (Compose), for every
// orientation × relabel × s in 1..3. Every key is carried through
// PatcherFor as the service carries it (carry: migrate, patch or
// recompute, as Plan says), and after every delta it must equal
// core.RunBatch on the eagerly applied chain: byte for byte for a line
// key under relabel N, whether patched or migrated, and in its served
// fields for any other. For clique keys and under A and D, Plan must
// never patch.
func FuzzPatchChainMatchesRecompute(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 0x80, 1, 2, 3, 0x80, 0, 1, 2, 3, 4, 0x80, 4, 5, 0xFF, 0xC1, 2, 3, 6, 0xFF, 0xC4, 0, 6, 0xFF, 0xC0, 1, 5})
	f.Add([]byte{3, 0, 1, 0x80, 1, 2, 0x80, 0x80, 2, 0xFF, 0xC0, 0xFF, 0xC1, 3, 4, 0xFF, 0xC2, 0xFF, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		base, ds := chainCase(data)
		if len(ds) == 0 {
			return
		}
		type key struct {
			dual    bool
			relabel hg.RelabelOrder
			s       int
		}
		cur := make(map[key]*core.PipelineResult)
		for _, dual := range []bool{false, true} {
			for _, relabel := range relabels {
				for s := 1; s <= 3; s++ {
					cur[key{dual, relabel, s}] = pipelineAt(t, orient(base, dual), s, exactCfg(relabel))
				}
			}
		}
		v, h := hg.NewVersion(base, nil), base
		for step, d := range ds {
			nv, err := Compose(v, d)
			if err != nil {
				t.Fatalf("step %d: Compose: %v", step, err)
			}
			if h, err = Apply(h, d); err != nil {
				t.Fatal(err)
			}
			p := PatcherFor(v, nv, d)
			for k, old := range cur {
				a := KeyAttrs{Dual: k.dual, S: k.s, Exact: true, Relabel: k.relabel, Squeeze: true}
				label := fmt.Sprintf("step=%d/dual=%v/relabel=%s/s=%d", step, k.dual, k.relabel, k.s)
				cur[k] = carry(t, label, p, a, old, pipelineAt(t, orient(h, k.dual), k.s, exactCfg(k.relabel)))
			}
			v = nv
		}
	})
}
