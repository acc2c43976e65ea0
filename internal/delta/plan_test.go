package delta

import (
	"testing"

	"hyperline/internal/hg"
)

// TestPlan pins the patch-vs-drop decision: migrate above the frontier,
// patch while the estimated work is at most the threshold fraction of a
// recompute (the permissive one when the lineage is being projected), and
// drop above it or for every key class patching cannot serve — clique
// keys among them.
func TestPlan(t *testing.T) {
	base := paperExample()
	d := &Delta{Inserts: [][]uint32{{4, 5}}}
	newH, err := Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPatcher(base, newH, d)

	const oldEdges = 3
	line := KeyAttrs{S: 1, Exact: true, Squeeze: true}
	at := func(a KeyAttrs, edit func(*KeyAttrs)) KeyAttrs { edit(&a); return a }
	// The wedge-pair counts at which the line patch costs exactly the
	// unprojected and the projected fraction of a recompute.
	units := float64(p.patchUnits() + oldEdges)
	even, evenProj := int64(units/patchFractionUnprojected), int64(units/patchFractionProjected)
	const proj, unproj = true, false

	for _, tc := range []struct {
		name       string
		a          KeyAttrs
		wedgePairs int64
		projected  bool
		want       Action
	}{
		{"above the frontier", at(line, func(a *KeyAttrs) { a.S = p.AffectedS(false) + 1 }), even, unproj, ActionMigrate},
		{"short-circuit above the frontier", at(line, func(a *KeyAttrs) { a.S, a.Exact = p.AffectedS(false)+1, false }), even, unproj, ActionMigrate},
		{"patch at the fraction", line, even, unproj, ActionPatch},
		{"patch below the fraction", line, 10 * even, unproj, ActionPatch},
		{"drop above the fraction", line, even - 1, unproj, ActionDrop},
		{"patch at the projected fraction", line, evenProj, proj, ActionPatch},
		{"drop above the projected fraction", line, evenProj - 1, proj, ActionDrop},
		{"toplex", at(line, func(a *KeyAttrs) { a.Toplex = true }), 10 * even, proj, ActionDrop},
		{"unsqueezed", at(line, func(a *KeyAttrs) { a.Squeeze = false }), 10 * even, proj, ActionDrop},
		{"short-circuit", at(line, func(a *KeyAttrs) { a.Exact = false }), 10 * even, proj, ActionDrop},
		{"clique under N below the frontier", at(line, func(a *KeyAttrs) { a.Dual = true }), 10 * even, proj, ActionDrop},
		{"clique under N above the frontier", at(line, func(a *KeyAttrs) { a.Dual, a.S = true, p.AffectedS(true)+1 }), even, unproj, ActionMigrate},
		{"line under A below the frontier", at(line, func(a *KeyAttrs) { a.Relabel = hg.RelabelAscending }), 10 * even, proj, ActionDrop},
		{"line under D below the frontier", at(line, func(a *KeyAttrs) { a.Relabel = hg.RelabelDescending }), 10 * even, proj, ActionDrop},
		{"clique under A below the frontier", at(line, func(a *KeyAttrs) { a.Dual, a.Relabel = true, hg.RelabelAscending }), 10 * even, proj, ActionDrop},
		{"clique under D below the frontier", at(line, func(a *KeyAttrs) { a.Dual, a.Relabel = true, hg.RelabelDescending }), 10 * even, proj, ActionDrop},
		{"line under A above the frontier", at(line, func(a *KeyAttrs) { a.S, a.Relabel = p.AffectedS(false)+1, hg.RelabelAscending }), even, unproj, ActionMigrate},
		{"line under D above the frontier", at(line, func(a *KeyAttrs) { a.S, a.Relabel = p.AffectedS(false)+1, hg.RelabelDescending }), even, unproj, ActionMigrate},
		{"clique under A above the frontier", at(line, func(a *KeyAttrs) { a.Dual, a.S, a.Relabel = true, p.AffectedS(true)+1, hg.RelabelAscending }), 10 * even, proj, ActionDrop},
		{"clique under D above the frontier", at(line, func(a *KeyAttrs) { a.Dual, a.S, a.Relabel = true, p.AffectedS(true)+1, hg.RelabelDescending }), 10 * even, proj, ActionDrop},
	} {
		if got := p.Plan(tc.a, oldEdges, tc.wedgePairs, tc.projected); got != tc.want {
			t.Errorf("%s: Plan(%v, %d, %d, projected=%v) = %v, want %v",
				tc.name, tc.a, oldEdges, tc.wedgePairs, tc.projected, got, tc.want)
		}
	}
}

// TestPatchRejectsUnpatchableKeys: Patch answers an error, and derives
// and returns nothing, for every key Plan never patches — every clique
// key, and relabel A or D, toplex on, unsqueezed or short-circuited
// weights in either orientation.
func TestPatchRejectsUnpatchableKeys(t *testing.T) {
	base := paperExample()
	d := &Delta{Inserts: [][]uint32{{4, 5}}, Deletes: []uint32{0}}
	newH, err := Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*KeyAttrs)
	}{
		{"clique under N", func(a *KeyAttrs) { a.Dual = true }},
		{"relabel A", func(a *KeyAttrs) { a.Relabel = hg.RelabelAscending }},
		{"relabel D", func(a *KeyAttrs) { a.Relabel = hg.RelabelDescending }},
		{"toplex", func(a *KeyAttrs) { a.Toplex = true }},
		{"unsqueezed", func(a *KeyAttrs) { a.Squeeze = false }},
		{"short-circuit", func(a *KeyAttrs) { a.Exact = false }},
	} {
		for _, dual := range []bool{false, true} {
			a := KeyAttrs{Dual: dual, S: 1, Exact: true, Relabel: hg.RelabelNone, Squeeze: true}
			old := pipelineAt(t, orient(base, dual), a.S, exactCfg(a.Relabel))
			tc.edit(&a)
			p := NewPatcher(base, newH, d)
			if got := p.Plan(a, 0, 0, true); got == ActionPatch {
				t.Fatalf("%s/dual=%v: Plan patches the key", tc.name, dual)
			}
			got, err := p.Patch(old, a)
			if err == nil || got != nil {
				t.Errorf("%s/dual=%v: Patch = (%v, %v), want an error and no result", tc.name, dual, got, err)
			}
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
