package core

import (
	"testing"

	"hyperline/internal/hg"
	"hyperline/internal/par"
)

func TestFingerprintIgnoresExecutionKnobs(t *testing.T) {
	base := PipelineConfig{}
	variants := []PipelineConfig{
		{Core: Config{Workers: 7}},
		{Core: Config{Grain: 3}},
		{Core: Config{Partition: par.Cyclic}},
		{Core: Config{DisablePruning: true}},
	}
	for i, v := range variants {
		if got, want := v.Fingerprint(), base.Fingerprint(); got != want {
			t.Errorf("variant %d: fingerprint %q differs from base %q", i, got, want)
		}
	}
}

// TestFingerprintCanonicalizesOutputClass: every exact-weight strategy
// produces byte-identical output, so requests pinning any of them —
// including Algorithm 1 in exact mode — must share one cache entry with
// the planner default.
func TestFingerprintCanonicalizesOutputClass(t *testing.T) {
	base := PipelineConfig{}
	exactClass := []PipelineConfig{
		{Core: Config{Algorithm: AlgoHashmap}},
		{Core: Config{Algorithm: AlgoEnsemble}},
		{Core: Config{Algorithm: AlgoSetIntersection, DisableShortCircuit: true}},
		{Core: Config{Algorithm: AlgoHashmap, DisableShortCircuit: true}}, // no-op flag
	}
	for i, v := range exactClass {
		if got, want := v.Fingerprint(), base.Fingerprint(); got != want {
			t.Errorf("exact-class variant %d: fingerprint %q differs from base %q", i, got, want)
		}
	}
	// Short-circuited Algorithm 1 is the one genuinely different output
	// class: weights are ≥ s bounds, not exact counts.
	sc := PipelineConfig{Core: Config{Algorithm: AlgoSetIntersection}}
	if sc.Fingerprint() == base.Fingerprint() {
		t.Error("short-circuited Algorithm 1 must not share the exact-class fingerprint")
	}
}

func TestFingerprintSeparatesOutputRelevantFields(t *testing.T) {
	configs := []PipelineConfig{
		{},
		{Core: Config{Algorithm: AlgoSetIntersection}},
		{Core: Config{Relabel: hg.RelabelAscending}},
		{Core: Config{Relabel: hg.RelabelDescending}},
		{Toplex: ToplexOn},
		{NoSqueeze: true},
	}
	seen := map[string]int{}
	for i, c := range configs {
		fp := c.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Errorf("configs %d and %d collide on fingerprint %q", j, i, fp)
		}
		seen[fp] = i
	}
}
