package graph

import (
	"reflect"
	"sync"
	"testing"
)

// TestComponentsBasic: labels are smallest nodes, isolated nodes are
// components of their own, and Nodes lists components by smallest node,
// each ascending.
func TestComponentsBasic(t *testing.T) {
	g := Build(8, []Edge{{5, 1, 1}, {1, 6, 1}, {2, 7, 1}, {6, 3, 1}}, false)
	cc := g.Components()
	want := &Components{
		Label:  []uint32{0, 1, 2, 1, 4, 1, 1, 2},
		Nodes:  []uint32{0, 1, 3, 5, 6, 2, 7, 4},
		Bounds: []uint32{0, 1, 5, 7, 8},
	}
	if !reflect.DeepEqual(cc, want) || cc.Count() != 4 {
		t.Fatalf("labelling %+v (%d components), want %+v (4)", cc, cc.Count(), want)
	}
	if m := cc.Members(1); !reflect.DeepEqual(m, []uint32{1, 3, 5, 6}) || cap(m) != len(m) {
		t.Fatalf("component 1: %v (cap %d), want [1 3 5 6] capped", m, cap(m))
	}
	if empty := Build(0, nil, false).Components(); empty.Count() != 0 || len(empty.Nodes) != 0 {
		t.Fatalf("empty graph: %+v", empty)
	}
}

// TestComponentsBuiltOnce: concurrent first readers of a graph share
// one labelling, and readers of a deferred graph, racing the readers
// that build its rows, share the built graph's. Run under -race.
func TestComponentsBuiltOnce(t *testing.T) {
	g, p, orig := deferCase()
	d, err := Defer(p, orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Components, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i % 4 {
			case 0:
				got[i] = g.Components()
			case 1:
				got[i] = d.Components()
			case 2:
				got[i] = d.Materialize().Components()
			default:
				d.Neighbors(3)
				got[i] = d.Components()
			}
		}()
	}
	wg.Wait()
	for i, cc := range got {
		want := d.Materialize().Components()
		if i%4 == 0 {
			want = g.Components()
		}
		if cc != want {
			t.Fatalf("reader %d got labelling %p, want the one shared labelling %p", i, cc, want)
		}
	}
	if g.Components() == d.Components() {
		t.Fatal("a deferred rewrite shares its base's labelling")
	}
}

// TestComponentsPatchedLabelsAfresh: a graph rewritten from a labelled
// base, eagerly or deferred, labels its own components.
func TestComponentsPatchedLabelsAfresh(t *testing.T) {
	// Two components {0,1} and {2,3}; the rewrite joins them by 1-2.
	base := Build(4, []Edge{{0, 1, 1}, {2, 3, 1}}, false)
	before := base.Components()
	if before.Count() != 2 {
		t.Fatalf("base: %d components, want 2", before.Count())
	}
	identity := []uint32{0, 1, 2, 3}
	add := []Edge{{1, 2, 5}, {2, 1, 5}}
	eager, err := Rewrite(base, identity, 4, add, nil)
	if err != nil {
		t.Fatal(err)
	}
	deferred, err := Defer(&Pending{Base: base, Runs: Runs{{Base: 0, Node: 0, Len: 4}}, Add: add, Deg: []uint32{1, 2, 2, 1}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := &Components{Label: []uint32{0, 0, 0, 0}, Nodes: identity, Bounds: []uint32{0, 4}}
	for name, g := range map[string]*Graph{"Rewrite": eager, "Defer": deferred} {
		if cc := g.Components(); cc == before || !reflect.DeepEqual(cc, want) {
			t.Fatalf("%s: labelling %+v, want %+v, not the base's", name, cc, want)
		}
	}
	if base.Components() != before || before.Count() != 2 {
		t.Fatal("rewriting the base changed its labelling")
	}
}
