package delta

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/gen"
	"hyperline/internal/hg"
)

// orderKeys are the order-stable (orientation, relabel) classes, whose
// working order a Patcher carries as an hg.Reorder.
var orderKeys = []struct {
	dual    bool
	relabel hg.RelabelOrder
}{
	{false, hg.RelabelNone}, {false, hg.RelabelAscending}, {false, hg.RelabelDescending}, {true, hg.RelabelNone},
}

// checkCarriedOrder asserts that the Reorder the patcher of one delta
// carries for an order-stable class maps every old working ID as
// core.PrepareOrder on the built versions does, that its Gone and Enter
// lists are exactly the rows that left and entered, and that WorkID on
// the pending new version ranks every non-empty row as Stage 1 does.
func checkCarriedOrder(t *testing.T, label string, p *Patcher, oldH, newH *hg.Hypergraph, dual bool, relabel hg.RelabelOrder) {
	t.Helper()
	was, err := core.PrepareOrder(orient(oldH, dual), relabel)
	if err != nil {
		t.Fatal(err)
	}
	now, err := core.PrepareOrder(orient(newH, dual), relabel)
	if err != nil {
		t.Fatal(err)
	}
	o, err := p.orderFor(dual, relabel)
	if err != nil {
		t.Fatal(err)
	}
	ro := o.ro
	var gone, enter []uint32
	for w, e := range was.EdgeOrig() {
		want := hg.NoWork
		if nw := now.OrigToWork()[e]; nw >= 0 {
			want = uint32(nw)
		} else {
			gone = append(gone, uint32(w))
		}
		if got := ro.Map(uint32(w)); got != want {
			t.Fatalf("%s: old working ID %d (row %d) maps to %d, PrepareOrder says %d", label, w, e, got, want)
		}
	}
	nv := orient(p.newH, dual)
	for w, e := range now.EdgeOrig() {
		if int(e) >= len(was.OrigToWork()) || was.OrigToWork()[e] < 0 {
			enter = append(enter, uint32(w))
		}
		if got := nv.WorkID(e, relabel); got != w {
			t.Fatalf("%s: WorkID(%d) on the pending version is %d, PrepareOrder says %d", label, e, got, w)
		}
	}
	if !slices.Equal(ro.Gone, gone) || !slices.Equal(ro.Enter, enter) {
		t.Fatalf("%s: carried Gone %v Enter %v, PrepareOrder says %v and %v", label, ro.Gone, ro.Enter, gone, enter)
	}
}

// orderDelta is randomDelta plus, every other step, the deletion of a
// hyperedge holding a vertex of degree one, so that vertex leaves the
// clique orientation's working order.
func orderDelta(rng *rand.Rand, h *hg.Hypergraph, step int) *Delta {
	d := randomDelta(rng, h)
	if step%2 == 1 {
		for u := uint32(0); int(u) < h.NumVertices(); u++ {
			if h.VertexDegree(u) == 1 {
				d.Deletes = append(d.Deletes, h.VertexEdges(u)[0])
				break
			}
		}
	}
	return d
}

// TestCarriedOrderMatchesPrepare runs chains of k = 1..8 deltas through
// Compose and checks the working order the patcher carries for every
// order-stable class at every step (checkCarriedOrder). The deltas
// isolate vertices, insert over new vertex IDs, and keep many sizes
// tied (hyperedges of two to six vertices under A/D); the longer chains
// on the small base cross the pending-build bound, so later steps
// compose onto a base the chain built. The large base spans several
// 256-row blocks and chunks in both orientations and holds empty rows
// of its own.
func TestCarriedOrderMatchesPrepare(t *testing.T) {
	small := gen.Zipf(gen.ZipfConfig{Seed: 21, NumVertices: 40, NumEdges: 50, MeanEdgeSize: 3, MaxEdgeSize: 6})
	edges := gen.Zipf(gen.ZipfConfig{Seed: 22, NumVertices: 600, NumEdges: 900, MeanEdgeSize: 3, MaxEdgeSize: 6}).EdgeSlices()
	for e := 0; e < len(edges); e += 37 {
		edges[e] = nil
	}
	large := hg.FromEdgeSlices(edges, 600)
	crossed := false
	for k := 1; k <= 8; k++ {
		for name, base := range map[string]*hg.Hypergraph{"small": small, "large": large} {
			rng := rand.New(rand.NewSource(int64(k)))
			v, h := hg.NewVersion(base, nil), base
			for step := 0; step < k; step++ {
				d := orderDelta(rng, h, step)
				nv, err := Compose(v, d)
				if err != nil {
					t.Fatal(err)
				}
				crossed = crossed || !nv.Pending()
				newH, err := Apply(h, d)
				if err != nil {
					t.Fatal(err)
				}
				p := PatcherFor(v, nv, d)
				for _, c := range orderKeys {
					label := fmt.Sprintf("%s/k=%d/step=%d/dual=%v/relabel=%s", name, k, step, c.dual, c.relabel)
					checkCarriedOrder(t, label, p, h, newH, c.dual, c.relabel)
				}
				v, h = nv, newH
			}
		}
	}
	if !crossed {
		t.Fatal("no chain crossed the pending-build bound")
	}
}

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
// each composed onto the pending version before it (Compose) and
// patched through PatcherFor with the carried working order, for every
// orientation × relabel × s in 1..3. After every delta each patched
// projection must equal core.RunBatch on the eagerly applied chain.
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
			for _, relabel := range []hg.RelabelOrder{hg.RelabelNone, hg.RelabelAscending, hg.RelabelDescending} {
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
				patched, err := p.Patch(old, a)
				if err != nil {
					t.Fatalf("step %d: Patch: %v", step, err)
				}
				label := fmt.Sprintf("step=%d/dual=%v/relabel=%s/s=%d", step, k.dual, k.relabel, k.s)
				sameResult(t, label, patched, pipelineAt(t, orient(h, k.dual), k.s, exactCfg(k.relabel)))
				cur[k] = patched
			}
			v = nv
		}
	})
}
