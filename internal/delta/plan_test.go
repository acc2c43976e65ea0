package delta

import (
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/hg"
)

// TestPlan pins the patch-vs-drop decision: migrate above the frontier,
// patch while the estimated work is at most the threshold fraction of a
// recompute (the permissive one when the lineage is being projected), and
// drop above it or for every key class patching cannot serve.
func TestPlan(t *testing.T) {
	base := paperExample()
	d := &Delta{Inserts: [][]uint32{{4, 5}}}
	newH, err := Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPatcher(base, newH, d)

	// A clique delta past the pair budget: deleting one 3000-vertex
	// hyperedge affects ~4.5M vertex pairs.
	wide := make([]uint32, 3000)
	for i := range wide {
		wide[i] = uint32(i)
	}
	bigBase := hg.FromEdgeSlices([][]uint32{wide, {0, 1}}, len(wide))
	bigD := &Delta{Deletes: []uint32{0}}
	bigH, err := Apply(bigBase, bigD)
	if err != nil {
		t.Fatal(err)
	}
	big := NewPatcher(bigBase, bigH, bigD)

	const oldEdges = 3
	line := KeyAttrs{S: 1, Exact: true, Squeeze: true}
	at := func(a KeyAttrs, edit func(*KeyAttrs)) KeyAttrs { edit(&a); return a }
	// The wedge-pair counts at which the line patch costs exactly the
	// unprojected and the projected fraction of a recompute.
	units := float64(p.patchUnits(false) + oldEdges)
	even, evenProj := int64(units/patchFractionUnprojected), int64(units/patchFractionProjected)
	const proj, unproj = true, false

	for _, tc := range []struct {
		name       string
		p          *Patcher
		a          KeyAttrs
		wedgePairs int64
		projected  bool
		want       Action
	}{
		{"above the frontier", p, at(line, func(a *KeyAttrs) { a.S = p.AffectedS(false) + 1 }), even, unproj, ActionMigrate},
		{"short-circuit above the frontier", p, at(line, func(a *KeyAttrs) { a.S, a.Exact = p.AffectedS(false)+1, false }), even, unproj, ActionMigrate},
		{"patch at the fraction", p, line, even, unproj, ActionPatch},
		{"patch below the fraction", p, line, 10 * even, unproj, ActionPatch},
		{"drop above the fraction", p, line, even - 1, unproj, ActionDrop},
		{"patch at the projected fraction", p, line, evenProj, proj, ActionPatch},
		{"drop above the projected fraction", p, line, evenProj - 1, proj, ActionDrop},
		{"toplex", p, at(line, func(a *KeyAttrs) { a.Toplex = core.ToplexOn }), 10 * even, proj, ActionDrop},
		{"unresolved toplex", p, at(line, func(a *KeyAttrs) { a.Toplex = core.ToplexAuto }), 10 * even, proj, ActionDrop},
		{"unresolved relabel", p, at(line, func(a *KeyAttrs) { a.Relabel = hg.RelabelAuto }), 10 * even, proj, ActionDrop},
		{"unsqueezed", p, at(line, func(a *KeyAttrs) { a.Squeeze = false }), 10 * even, proj, ActionDrop},
		{"short-circuit", p, at(line, func(a *KeyAttrs) { a.Exact = false }), 10 * even, proj, ActionDrop},
		{"line key beside an over-budget clique delta", big, line, 1 << 40, unproj, ActionPatch},
		{"clique over the pair budget", big, at(line, func(a *KeyAttrs) { a.Dual = true }), 1 << 40, proj, ActionDrop},
	} {
		if got := tc.p.Plan(tc.a, oldEdges, tc.wedgePairs, tc.projected); got != tc.want {
			t.Errorf("%s: Plan(%v, %d, %d, projected=%v) = %v, want %v",
				tc.name, tc.a, oldEdges, tc.wedgePairs, tc.projected, got, tc.want)
		}
	}
}

// String names the action in test failures.
func (a Action) String() string {
	switch a {
	case ActionMigrate:
		return "migrate"
	case ActionPatch:
		return "patch"
	default:
		return "drop"
	}
}
