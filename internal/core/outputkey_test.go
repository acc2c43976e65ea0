package core

import (
	"fmt"
	"testing"

	"hyperline/internal/hg"
	"hyperline/internal/par"
)

func TestOutputKeyIgnoresExecutionKnobs(t *testing.T) {
	base := PipelineConfig{}
	variants := []PipelineConfig{
		{Core: Config{Workers: 7}},
		{Core: Config{Grain: 3}},
		{Core: Config{Partition: par.Cyclic}},
		{Core: Config{DisablePruning: true}},
		{Stats: &hg.Stats{}},
	}
	for i, v := range variants {
		if got, want := v.OutputKey(false, 2), base.OutputKey(false, 2); got != want {
			t.Errorf("variant %d: key %v differs from base %v", i, got, want)
		}
	}
}

// TestOutputKeyCanonicalizesOutputClass: every exact-weight strategy
// produces byte-identical output, so requests pinning any of them —
// including Algorithm 1 in exact mode — must share one cache entry with
// the planner default.
func TestOutputKeyCanonicalizesOutputClass(t *testing.T) {
	base := PipelineConfig{}
	exactClass := []PipelineConfig{
		{Core: Config{Algorithm: AlgoHashmap}},
		{Core: Config{Algorithm: AlgoEnsemble}},
		{Core: Config{Algorithm: AlgoSetIntersection, DisableShortCircuit: true}},
		{Core: Config{Algorithm: AlgoHashmap, DisableShortCircuit: true}}, // no-op flag
	}
	for i, v := range exactClass {
		if got, want := v.OutputKey(false, 2), base.OutputKey(false, 2); got != want {
			t.Errorf("exact-class variant %d: key %v differs from base %v", i, got, want)
		}
	}
	// Short-circuited Algorithm 1 is the one genuinely different output
	// class: weights are ≥ s bounds, not exact counts.
	sc := PipelineConfig{Core: Config{Algorithm: AlgoSetIntersection}}
	if sc.OutputKey(false, 2) == base.OutputKey(false, 2) {
		t.Error("short-circuited Algorithm 1 must not share the exact-class key")
	}
}

// TestOutputKeySeparatesOutputRelevantFields: configurations that differ
// in an output-relevant field never share a key, as structs or as
// strings, in either orientation.
func TestOutputKeySeparatesOutputRelevantFields(t *testing.T) {
	configs := []PipelineConfig{
		{},
		{Core: Config{Algorithm: AlgoSetIntersection}},
		{Core: Config{Relabel: hg.RelabelAscending}},
		{Core: Config{Relabel: hg.RelabelDescending}},
		{Toplex: true},
		{NoSqueeze: true},
	}
	seen := map[OutputKey]string{}
	texts := map[string]string{}
	for i, c := range configs {
		for _, dual := range []bool{false, true} {
			k, name := c.OutputKey(dual, 2), fmt.Sprintf("config %d (dual=%v)", i, dual)
			if prev, dup := seen[k]; dup {
				t.Errorf("%s and %s collide on key %v", prev, name, k)
			}
			if prev, dup := texts[k.String()]; dup {
				t.Errorf("%s and %s collide on key text %q", prev, name, k)
			}
			seen[k], texts[k.String()] = name, name
		}
	}
}
