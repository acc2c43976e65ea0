package serve

import (
	"strings"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/hg"
)

func autoCfg() core.PipelineConfig {
	return core.PipelineConfig{
		Core:   core.Config{Relabel: hg.RelabelAuto},
		Toplex: core.ToplexAuto,
	}
}

// TestAutoKnobsShareCacheWithPinned: a planner-chosen configuration is
// resolved before cache keys are derived, so it hits the entry its
// pinned twin cached (and vice versa). On a small dataset auto
// resolves to the neutral defaults (RelabelNone, ToplexOff) — the zero
// PipelineConfig.
func TestAutoKnobsShareCacheWithPinned(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())

	// Pinned default computes...
	if mustQuery(t, svc, lineQ("h", core.PipelineConfig{}, 2)).Entries[0].Cached {
		t.Fatal("pinned first query: want fresh compute")
	}
	// ...and the auto twin must hit the same entry.
	e := mustQuery(t, svc, lineQ("h", autoCfg(), 2)).Entries[0]
	if !e.Cached {
		t.Fatal("planner-chosen query missed the entry its pinned twin cached")
	}
	if e.Res == nil || e.Res.Graph.NumEdges() == 0 {
		t.Fatal("shared result is empty")
	}

	// The reverse direction too: a fresh auto query caches under its
	// resolved key, which the pinned twin hits.
	svc2 := New(Config{})
	svc2.Add("h", paperExample())
	first := mustQuery(t, svc2, lineQ("h", autoCfg(), 2)).Entries[0]
	if first.Cached {
		t.Fatal("auto first query: want fresh compute")
	}
	if first.Res.Plan.KnobReason == "" {
		t.Fatal("auto-planned result carries no knob reason")
	}
	if !mustQuery(t, svc2, lineQ("h", core.PipelineConfig{}, 2)).Entries[0].Cached {
		t.Fatal("pinned query after auto: want hit")
	}
}

// TestAutoKnobsSplitFromOtherPinned: resolution shares entries only
// with the configuration it resolves to — a differently pinned config
// keeps its own entry.
func TestAutoKnobsSplitFromOtherPinned(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())

	asc := core.PipelineConfig{Core: core.Config{Relabel: hg.RelabelAscending}}
	if mustQuery(t, svc, lineQ("h", asc, 2)).Entries[0].Cached {
		t.Fatal("pinned-ascending first query: want fresh compute")
	}
	// Auto resolves to RelabelNone here, so it must NOT hit the
	// ascending entry.
	if mustQuery(t, svc, lineQ("h", autoCfg(), 2)).Entries[0].Cached {
		t.Fatal("auto query after pinned-ascending: want split (fresh compute)")
	}
	// And the ascending entry is still there.
	if !mustQuery(t, svc, lineQ("h", asc, 2)).Entries[0].Cached {
		t.Fatal("pinned-ascending repeat: want hit")
	}
}

// TestMeasureCacheSharesResolvedKeys: the measure path derives its keys
// from the resolved configuration too, so a planner-chosen measure
// query hits the value its pinned twin cached without touching the
// projection.
func TestMeasureCacheSharesResolvedKeys(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample())

	q := lineQ("h", core.PipelineConfig{}, 2)
	q.Measure = "components"
	mustQuery(t, svc, q)
	q.Cfg = autoCfg()
	if e := mustQuery(t, svc, q).Entries[0]; !e.Cached || e.Res != nil {
		t.Fatalf("planner-chosen measure query missed the value its pinned twin cached: %+v", e)
	}
}

// TestRegistryStatsCarryContainmentProbe: registration computes the
// containment probe the planner's toplex knob reads, on both
// orientations.
func TestRegistryStatsCarryContainmentProbe(t *testing.T) {
	svc := New(Config{})
	svc.Add("h", paperExample()) // 2 of 4 hyperedges are contained
	st, err := svc.Stats("h")
	if err != nil {
		t.Fatal(err)
	}
	if st.ToplexSample != 0.5 {
		t.Fatalf("registered ToplexSample = %v, want 0.5", st.ToplexSample)
	}
	_, version, err := svc.reg.Get("h")
	if err != nil {
		t.Fatal(err)
	}
	d, ok := svc.reg.at("h", version)
	if !ok {
		t.Fatal("registry lost the dataset")
	}
	dual := d.statsFor(true)
	if dual.NumEdges != paperExample().NumVertices() {
		t.Fatalf("dual stats describe %d hyperedges, want %d", dual.NumEdges, paperExample().NumVertices())
	}
	if !strings.HasSuffix(dual.Name, "/dual") {
		t.Fatalf("dual stats name = %q", dual.Name)
	}
}
