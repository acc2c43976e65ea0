package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Gone marks a node that Rewrite drops.
const Gone = ^uint32(0)

// Rewrite builds the next version of g by editing its rows, without an
// edge list, a sort or a scatter:
//
//   - node x of g becomes node remap[x], or is dropped with every edge
//     at it when remap[x] is Gone. The kept nodes must keep their order
//     (remap strictly increasing over them), so remapped rows stay
//     sorted;
//   - add lists directed pairs to insert (new node IDs, both directions,
//     sorted by (U, V)), none of them already an edge.
//
// No edge between two kept nodes is removed: a delta never changes the
// overlap of two surviving hyperedges, so a line-orientation patch
// needs no drop list.
//
// The result has numNodes nodes; new nodes that are no node of g get
// only added edges, and every node must end up with at least one edge,
// as under squeezing. orig is the result's squeeze mapping (nil for an
// unsqueezed graph). g is not modified and shares no storage with the
// result.
func Rewrite(g *Graph, remap []uint32, numNodes int, add []Edge, orig []uint32) (*Graph, error) {
	g = g.Materialize()
	off := make([]int64, numNodes+1)
	adj := make([]uint32, 0, len(g.adj)+len(add))
	wgt := make([]uint32, 0, len(g.adj)+len(add))
	x := 0 // next node of g
	ai := 0
	for k := uint32(0); int(k) < numNodes; k++ {
		for x < g.numNodes && remap[x] == Gone {
			x++
		}
		if x < g.numNodes && remap[x] == k {
			ids, ws := g.Neighbors(uint32(x))
			if ai == len(add) || add[ai].U != k {
				// The common row: remapped, minus gone neighbours. Every
				// neighbour is written; only kept ones advance w.
				start, w := len(adj), len(adj)
				adj, wgt = adj[:start+len(ids)], wgt[:start+len(ids)]
				for j, y := range ids {
					ny := remap[y]
					adj[w], wgt[w] = ny, ws[j]
					if ny != Gone {
						w++
					}
				}
				adj, wgt = adj[:w], wgt[:w]
				off[k+1] = int64(w)
				x++
				continue
			}
			for j, y := range ids {
				ny := remap[y]
				if ny == Gone {
					continue
				}
				for ; ai < len(add) && add[ai].U == k && add[ai].V < ny; ai++ {
					adj, wgt = append(adj, add[ai].V), append(wgt, add[ai].W)
				}
				adj, wgt = append(adj, ny), append(wgt, ws[j])
			}
			x++
		}
		for ; ai < len(add) && add[ai].U == k; ai++ {
			adj, wgt = append(adj, add[ai].V), append(wgt, add[ai].W)
		}
		off[k+1] = int64(len(adj))
	}
	return FromCSR(numNodes, len(adj)/2, off, adj, wgt, orig)
}

// Pending is a Rewrite that has not run: Rewrite(Base, p.Remap(),
// Nodes, Add, orig) is the graph it stands for, under Rewrite's
// contract, where orig is the squeeze map read through Fix and IDs.
// Its node remap is held as Runs and it lists only what changed, so a
// pending rewrite that keeps most nodes costs O(runs + fixes), not
// O(nodes), to carry, and a deferred graph answers Degree and OrigID
// without rows. A Pending is immutable once handed to Defer.
type Pending struct {
	Base *Graph
	// Runs maps base nodes to nodes; a base node no run covers is Gone.
	Runs Runs
	Add  []Edge
	// Fix lists, ascending by node, every node no run covers and every
	// covered node whose degree is not its base node's; Nodes and Edges
	// count the graph. A covered node's ID is IDs[its base node].
	Fix   []Fix
	Nodes int
	Edges int
	IDs   []uint32
}

// Fix is one node's squeeze-map ID and degree in a pending rewrite.
type Fix struct{ Node, ID, Deg uint32 }

// Node returns node y's squeeze-map ID and degree in the graph the
// rewrite stands for, reading no rows: O(log) in Fix and Runs.
func (p *Pending) Node(y uint32) (id, deg uint32) {
	if i := sort.Search(len(p.Fix), func(i int) bool { return p.Fix[i].Node >= y }); i < len(p.Fix) && p.Fix[i].Node == y {
		return p.Fix[i].ID, p.Fix[i].Deg
	}
	x := p.Runs.Base(y)
	return p.IDs[x], uint32(p.Base.Degree(x))
}

// Remap expands Runs into Rewrite's per-base-node remap.
func (p *Pending) Remap() []uint32 {
	remap := make([]uint32, p.Base.NumNodes())
	for i := range remap {
		remap[i] = Gone
	}
	for _, r := range p.Runs {
		for i := uint32(0); i < r.Len; i++ {
			remap[r.Base+i] = r.Node + i
		}
	}
	return remap
}

// Run maps the Len nodes from Base on to the Len nodes from Node on.
type Run struct{ Base, Node, Len uint32 }

// Runs is a monotone node map: runs ascending in both Base and Node,
// none overlapping. A node no run covers maps to Gone.
type Runs []Run

// Node returns the node x maps to, Gone if none.
func (rs Runs) Node(x uint32) uint32 {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Base+rs[i].Len > x })
	if i < len(rs) && rs[i].Base <= x {
		return rs[i].Node + x - rs[i].Base
	}
	return Gone
}

// Base returns the node that maps to y, Gone if none.
func (rs Runs) Base(y uint32) uint32 {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Node+rs[i].Len > y })
	if i < len(rs) && rs[i].Node <= y {
		return rs[i].Base + y - rs[i].Node
	}
	return Gone
}

// Then returns the map rs followed by next: x maps to next.Node(rs.Node(x)).
// Runs that meet end to end in both spaces are joined.
func (rs Runs) Then(next Runs) Runs {
	out := make(Runs, 0, len(rs)+len(next))
	j := 0
	for _, r := range rs {
		lo, hi := r.Node, r.Node+r.Len
		for ; j < len(next) && next[j].Base+next[j].Len <= lo; j++ {
		}
		for k := j; k < len(next) && next[k].Base < hi; k++ {
			a, b := max(lo, next[k].Base), min(hi, next[k].Base+next[k].Len)
			run := Run{Base: r.Base + a - r.Node, Node: next[k].Node + a - next[k].Base, Len: b - a}
			if n := len(out); n > 0 && out[n-1].Base+out[n-1].Len == run.Base && out[n-1].Node+out[n-1].Len == run.Node {
				out[n-1].Len += run.Len
			} else {
				out = append(out, run)
			}
		}
	}
	return out
}

// deferred is the pending rewrite of a graph made by Defer and, once
// some reader ran it, the graph it built.
type deferred struct {
	onBuild func()

	mu    sync.Mutex // serializes the build, so it runs once
	pend  atomic.Pointer[Pending]
	built atomic.Pointer[Graph]

	// orig is the squeeze map read through the rewrite (Pending.Node),
	// expanded once by the first reader or the build.
	origOnce sync.Once
	orig     []uint32
}

// Defer returns the graph p stands for without building its rows: node
// and edge counts, Degree, OrigID and Squeezed answer from p, and the
// first row read runs the rewrite once for every reader (onBuild, when
// non-nil, is then called once). The build checks its edge count
// against the one served before it.
func Defer(p *Pending, onBuild func()) *Graph {
	d := &deferred{onBuild: onBuild}
	d.pend.Store(p)
	return &Graph{numNodes: p.Nodes, numEdges: p.Edges, lazy: d}
}

// degree returns node u's degree, from the rewrite until it is built.
func (d *deferred) degree(u uint32) int {
	p := d.pend.Load()
	if p == nil {
		return d.built.Load().Degree(u)
	}
	_, deg := p.Node(u)
	return int(deg)
}

// squeezeMap returns the squeeze map read through the rewrite, expanded
// on the first call. The build calls it before it drops the rewrite, so
// the expansion always has one to read.
func (d *deferred) squeezeMap() []uint32 {
	d.origOnce.Do(func() {
		p := d.pend.Load()
		d.orig = make([]uint32, p.Nodes)
		for _, r := range p.Runs {
			copy(d.orig[r.Node:r.Node+r.Len], p.IDs[r.Base:r.Base+r.Len])
		}
		for _, f := range p.Fix {
			d.orig[f.Node] = f.ID
		}
	})
	return d.orig
}

// Pending returns the rewrite g defers, or nil when g has rows: it was
// not made by Defer, or a reader already built them.
func (g *Graph) Pending() *Pending {
	if g.lazy == nil {
		return nil
	}
	return g.lazy.pend.Load()
}

// Materialize returns a graph with rows equal to g: g itself unless g
// was made by Defer, else the graph its rewrite builds, built on the
// first call and shared by every later one.
func (g *Graph) Materialize() *Graph {
	if g.lazy == nil {
		return g
	}
	return g.lazy.rows(g)
}

// rows returns the rows g defers, building them on first use; only the
// reader that built them calls onBuild, outside the lock.
func (d *deferred) rows(g *Graph) *Graph {
	if b := d.built.Load(); b != nil {
		return b
	}
	b, built := d.build(g)
	if built && d.onBuild != nil {
		d.onBuild()
	}
	return b
}

// build runs the pending rewrite unless another reader already has,
// reporting whether this call ran it.
func (d *deferred) build(g *Graph) (*Graph, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if b := d.built.Load(); b != nil {
		return b, false
	}
	p := d.pend.Load()
	b, err := Rewrite(p.Base, p.Remap(), g.numNodes, p.Add, d.squeezeMap())
	if err == nil && b.numEdges != g.numEdges {
		err = fmt.Errorf("%d edges, want %d", b.numEdges, g.numEdges)
	}
	if err != nil {
		// Defer's caller broke Rewrite's contract; no reader may see
		// rows that disagree with the counts already served.
		panic(fmt.Sprintf("graph: deferred rewrite: %v", err))
	}
	d.built.Store(b)
	d.pend.Store(nil)
	return b, true
}
