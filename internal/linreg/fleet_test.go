package linreg_test

import (
	"testing"

	"agingpred/internal/dataset"
	"agingpred/internal/features"
	"agingpred/internal/fleet"
	"agingpred/internal/linreg"
	"agingpred/internal/rng"
)

// TestFitMatchesOracleOnFleetFeatures checks Fit against the per-candidate
// solver on the real extracted features of the fleet's training runs
// (fleet.TrainingSeries 1..3, the full Table 2 schema), in the shapes M5P
// fits them: node-sized row subsets with subtree column sets under the
// default 15-attribute cap, and whole sets with every column, above and
// below the column count.
func TestFitMatchesOracleOnFleetFeatures(t *testing.T) {
	schema, err := features.LookupSchema(features.FullSchemaName)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		series, err := fleet.TrainingSeries(seed)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := schema.ExtractAll("fleet", series)
		if err != nil {
			t.Fatal(err)
		}
		check := func(sub *dataset.Dataset, opts linreg.Options) {
			t.Helper()
			got, err := linreg.Fit(sub, opts)
			if err != nil {
				t.Fatalf("seed %d, %d rows: %v", seed, sub.Len(), err)
			}
			want, err := linreg.FitOracle(sub, opts)
			if err != nil {
				t.Fatalf("seed %d, %d rows, oracle: %v", seed, sub.Len(), err)
			}
			if d := linreg.ModelDiff(got, want); d != "" {
				t.Fatalf("seed %d, %d rows, %+v: %s", seed, sub.Len(), opts, d)
			}
		}
		check(ds, linreg.Options{EliminateAttrs: true, MaxAttrs: 15})
		src := rng.New(seed)
		for trial := 0; trial < 8; trial++ {
			// A node's rows: a contiguous stretch of one run, or a sample.
			var idx []int
			lo := src.Intn(ds.Len() - 400)
			if trial%2 == 0 {
				for i := lo; i < lo+20+src.Intn(380); i++ {
					idx = append(idx, i)
				}
			} else {
				for i := 0; i < ds.Len(); i++ {
					if src.Bool(0.08) {
						idx = append(idx, i)
					}
				}
			}
			sub, err := ds.Subset(idx)
			if err != nil {
				t.Fatal(err)
			}
			cols := []int{}
			for len(cols) < 1+src.Intn(8) {
				cols = append(cols, src.Intn(ds.NumAttrs()))
			}
			check(sub, linreg.Options{EliminateAttrs: true, MaxAttrs: 15, Columns: cols})
			check(sub, linreg.Options{EliminateAttrs: true, MaxAttrs: 15, Columns: []int{}})
		}
		for _, n := range []int{ds.NumAttrs() - 9, ds.NumAttrs() + 1} {
			sub, err := ds.Subset(rangeRows(500, 500+n))
			if err != nil {
				t.Fatal(err)
			}
			check(sub, linreg.Options{EliminateAttrs: true})
		}
	}
}

func rangeRows(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
