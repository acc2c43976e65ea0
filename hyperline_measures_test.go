package hyperline

import (
	"math"
	"testing"
)

func TestSClosenessAndHarmonicOnExample(t *testing.T) {
	// 1-line graph of the example: triangle {0,1,2} + pendant 3 on 2.
	res := projectAt(t, example(), KindLine, 1, Options{NoSqueeze: true})
	c := SCloseness(res, 2)
	h := SHarmonic(res, 2)
	if len(c) != 4 || len(h) != 4 {
		t.Fatalf("lengths %d/%d, want 4", len(c), len(h))
	}
	// Node 2 (hyperedge 3) is adjacent to everything: closeness 1.
	if math.Abs(c[2]-1) > 1e-9 {
		t.Fatalf("closeness(e3) = %f, want 1", c[2])
	}
	if c[3] >= c[0] {
		t.Fatal("pendant hyperedge should have the lowest closeness")
	}
	// Harmonic of node 2: (1+1+1)/3 = 1.
	if math.Abs(h[2]-1) > 1e-9 {
		t.Fatalf("harmonic(e3) = %f, want 1", h[2])
	}
}

func TestSEccentricityAndDiameter(t *testing.T) {
	res := projectAt(t, example(), KindLine, 1, Options{NoSqueeze: true})
	ecc := SEccentricities(res, 0)
	// Node 2 reaches everything in 1 hop; nodes 0,1,3 need 2 hops.
	if ecc[2] != 1 || ecc[0] != 2 || ecc[3] != 2 {
		t.Fatalf("eccentricities = %v", ecc)
	}
	if d := SDiameter(res, 0); d != 2 {
		t.Fatalf("s-diameter = %d, want 2", d)
	}
}

func TestClusteringOnLineGraph(t *testing.T) {
	res := projectAt(t, example(), KindLine, 2, Options{})
	// The 2-line graph is a triangle.
	cc := ClusteringCoefficients(res.Graph, 0)
	for _, c := range cc {
		if math.Abs(c-1) > 1e-9 {
			t.Fatalf("triangle clustering = %v", cc)
		}
	}
	if g := GlobalClusteringCoefficient(res.Graph, 0); math.Abs(g-1) > 1e-9 {
		t.Fatalf("global clustering = %f, want 1", g)
	}
}

func TestMaxOverlapFacade(t *testing.T) {
	h := example()
	if got := MaxOverlap(h, 0); got != 3 {
		t.Fatalf("MaxOverlap = %d, want 3", got)
	}
	// Consistency: the MaxOverlap-line graph is non-empty, one past
	// it is empty.
	at := projectAt(t, h, KindLine, 3, Options{})
	past := projectAt(t, h, KindLine, 4, Options{})
	if at.Graph.NumEdges() == 0 || past.Graph.NumEdges() != 0 {
		t.Fatal("MaxOverlap inconsistent with s-line graph emptiness")
	}
}
