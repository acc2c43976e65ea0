package graph

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// deferCase is a path 0-1-2-3 rewritten to drop node 0 and add a new
// node 3 joined to nodes 0 and 2 (new IDs): remap 0→Gone, 1→0, 2→1,
// 3→2. The fixes are the new node 3 and node 2, whose degree grows
// from its base node's 1; the result's squeeze map is orig.
func deferCase() (g *Graph, p *Pending, orig []uint32) {
	g = Build(4, []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}}, true)
	p = &Pending{
		Base:  g,
		Runs:  []Run{{Base: 1, Node: 0, Len: 3}},
		Add:   []Edge{{0, 3, 7}, {2, 3, 8}, {3, 0, 7}, {3, 2, 8}},
		Fix:   []Fix{{Node: 2, ID: 12, Deg: 2}, {Node: 3, ID: 13, Deg: 2}},
		Nodes: 4,
		Edges: 4,
		IDs:   []uint32{9, 10, 11, 12},
	}
	return g, p, []uint32{10, 11, 12, 13}
}

// TestDeferEqualsRewrite: a deferred graph answers counts and degrees
// without building rows, and its rows, once read, are Rewrite's.
func TestDeferEqualsRewrite(t *testing.T) {
	g, p, orig := deferCase()
	want, err := Rewrite(g, p.Remap(), p.Nodes, p.Add, orig)
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	d := Defer(p, func() { builds++ })
	if d.NumNodes() != want.NumNodes() || d.NumEdges() != want.NumEdges() || d.OrigID(3) != 13 {
		t.Fatalf("deferred counts %d nodes, %d edges; Rewrite %d, %d", d.NumNodes(), d.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for x := uint32(0); x < 4; x++ {
		if d.Degree(x) != want.Degree(x) || d.OrigID(x) != want.OrigID(x) {
			t.Fatalf("node %d: deferred degree %d, ID %d; Rewrite %d, %d", x, d.Degree(x), d.OrigID(x), want.Degree(x), want.OrigID(x))
		}
	}
	if builds != 0 || d.Pending() != p {
		t.Fatal("counts or degrees built the rows")
	}
	if !reflect.DeepEqual(d.Edges(), want.Edges()) {
		t.Fatalf("deferred edges %v, Rewrite %v", d.Edges(), want.Edges())
	}
	if builds != 1 || d.Pending() != nil {
		t.Fatalf("after a row read: %d builds, pending %v; want 1 and none", builds, d.Pending())
	}
	if d.Materialize() != d.Materialize() || d.Materialize().Pending() != nil {
		t.Fatal("Materialize must return one built graph")
	}
}

// TestDeferBuildsOnce: concurrent first row reads of one deferred graph
// run the rewrite once and share its rows. Run under -race.
func TestDeferBuildsOnce(t *testing.T) {
	_, p, _ := deferCase()
	var builds atomic.Int64
	d := Defer(p, func() { builds.Add(1) })
	adj := make([][]uint32, 8)
	var wg sync.WaitGroup
	for i := range adj {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				adj[i], _ = d.Neighbors(3)
			} else {
				_, a, _, _ := d.CSR()
				adj[i] = a[len(a)-2:]
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent readers built the rows %d times, want once", len(adj), n)
	}
	for i, a := range adj {
		if !reflect.DeepEqual(a, []uint32{0, 2}) {
			t.Fatalf("reader %d: node 3's neighbours %v, want [0 2]", i, a)
		}
	}
}

// TestRunsThen: composing two run maps equals composing their expanded
// remaps node by node, Node and Base invert each other on every mapped
// node, and runs that meet end to end are joined.
func TestRunsThen(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// runsOf draws a random monotone map of n nodes, dropping some and
	// leaving gaps in the image.
	runsOf := func(n int) (Runs, int) {
		var rs Runs
		next := uint32(0)
		for x := 0; x < n; x++ {
			if rng.Intn(4) == 0 {
				continue // dropped
			}
			next += uint32(rng.Intn(2)) // a gap: an inserted node
			if k := len(rs) - 1; k >= 0 && rs[k].Base+rs[k].Len == uint32(x) && rs[k].Node+rs[k].Len == next {
				rs[k].Len++
			} else {
				rs = append(rs, Run{Base: uint32(x), Node: next, Len: 1})
			}
			next++
		}
		return rs, int(next)
	}
	expand := func(rs Runs, n int) []uint32 {
		return (&Pending{Base: &Graph{numNodes: n}, Runs: rs}).Remap()
	}
	for round := 0; round < 200; round++ {
		n := rng.Intn(40)
		a, mid := runsOf(n)
		b, _ := runsOf(mid)
		got := a.Then(b)
		ea, eb, eg := expand(a, n), expand(b, mid), expand(got, n)
		for x := range ea {
			want := Gone
			if ea[x] != Gone {
				want = eb[ea[x]]
			}
			if eg[x] != want {
				t.Fatalf("round %d: node %d maps to %d, want %d", round, x, eg[x], want)
			}
			if got.Node(uint32(x)) != want || (want != Gone && got.Base(want) != uint32(x)) {
				t.Fatalf("round %d: Node/Base disagree at node %d", round, x)
			}
		}
		for k := 1; k < len(got); k++ {
			if p := got[k-1]; p.Base+p.Len == got[k].Base && p.Node+p.Len == got[k].Node {
				t.Fatalf("round %d: runs %v and %v meet but were not joined", round, p, got[k])
			}
		}
	}
}
