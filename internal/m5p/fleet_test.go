package m5p_test

import (
	"testing"

	"agingpred/internal/features"
	"agingpred/internal/fleet"
	"agingpred/internal/m5p"
)

// TestFitMatchesOracleOnFleetFeatures checks Fit against the per-node-sort
// induction on the real extracted features of the fleet's training runs
// (fleet.TrainingSeries 1..3, the full Table 2 schema), with the options
// core.Train uses by default.
func TestFitMatchesOracleOnFleetFeatures(t *testing.T) {
	schema, err := features.LookupSchema(features.FullSchemaName)
	if err != nil {
		t.Fatal(err)
	}
	opts := m5p.Options{MinInstances: m5p.DefaultMinInstances, LeafMaxAttrs: 15}
	for seed := uint64(1); seed <= 3; seed++ {
		series, err := fleet.TrainingSeries(seed)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := schema.ExtractAll("fleet", series)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m5p.Fit(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m5p.FitOracle(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := m5p.TreeDiff(got, want); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
		if got.InnerNodes() == 0 {
			t.Fatalf("seed %d: the tree never split", seed)
		}
	}
}
