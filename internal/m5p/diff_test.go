package m5p

import (
	"fmt"
	"math"
	"testing"

	"agingpred/internal/dataset"
	"agingpred/internal/rng"
)

// checkOracle fits ds both ways and fails on any difference in the error or
// in any bit of the tree: splits, node counts, standard deviations and node
// models.
func checkOracle(t testing.TB, ds *dataset.Dataset, opts Options) {
	t.Helper()
	got, err := Fit(ds, opts)
	want, wantErr := fitOracle(ds, opts)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%d rows %+v: error %v, oracle %v", ds.Len(), opts, err, wantErr)
	}
	if err != nil {
		return
	}
	if d := treeDiff(got, want); d != "" {
		t.Fatalf("%d rows %+v: %s", ds.Len(), opts, d)
	}
}

// tiedDataset draws a piecewise-linear target over columns full of ties:
// coarse grids, a constant column, signed zeros, a duplicated column and a
// continuous one, so split search meets equal values at every node.
func tiedDataset(src *rng.Source, n int) *dataset.Dataset {
	ds := dataset.MustNew("ties", []string{"grid", "coarse", "const", "zeros", "dup", "cont"}, "y")
	negZero := math.Copysign(0, -1)
	for i := 0; i < n; i++ {
		grid := float64(src.Intn(12))
		coarse := float64(src.Intn(3)) * 0.5
		zero := 0.0
		if src.Bool(0.5) {
			zero = negZero
		}
		if src.Bool(0.3) {
			zero = 1
		}
		cont := src.Normal(0, 10)
		y := 3*grid + 20*coarse + src.Normal(0, 1)
		if grid > 6 {
			y = 100 - 4*grid + cont
		}
		if zero == 1 {
			y += 15
		}
		if err := ds.Append([]float64{grid, coarse, 7, zero, grid, cont}, y); err != nil {
			panic(err)
		}
	}
	return ds
}

// TestFitMatchesOracle checks Fit against the per-node-sort induction on
// tied and piecewise data, from datasets smaller than one leaf to ones deep
// enough to hit the depth cap, pruned and unpruned.
func TestFitMatchesOracle(t *testing.T) {
	src := rng.New(5)
	for trial := 0; trial < 60; trial++ {
		n := []int{3, 12, 25, 80, 300}[trial%5]
		ds := tiedDataset(src, n)
		if trial%3 == 0 {
			ds = piecewiseDataset(t, n, 2, uint64(trial))
		}
		for _, opts := range []Options{
			{},
			{MinInstances: 2},
			{MinInstances: 4, MaxDepth: 3, LeafMaxAttrs: 2},
			{MinInstances: 3, Unpruned: true},
			{MinStdDevFraction: 0.001, MinInstances: 2, NoSmoothing: true},
		} {
			checkOracle(t, ds, opts)
		}
	}
}

// TestFitMatchesOracleUnsplittable covers the nodes that stay leaves after
// the split search: no split position leaves enough rows on both sides, and
// a threshold between adjacent floats that rounds up to the larger one, so
// every row goes left and the split is rejected.
func TestFitMatchesOracleUnsplittable(t *testing.T) {
	a := math.Nextafter(1, 2) // odd mantissa: (a+b)/2 rounds to b
	b := math.Nextafter(a, 2)
	adjacent := dataset.MustNew("adjacent", []string{"x"}, "y")
	skewed := dataset.MustNew("skewed", []string{"x", "const"}, "y")
	src := rng.New(9)
	for i := 0; i < 40; i++ {
		x, y := a, src.Normal(0, 1)
		if i%2 == 1 {
			x, y = b, 50+src.Normal(0, 1)
		}
		if err := adjacent.Append([]float64{x}, y); err != nil {
			t.Fatal(err)
		}
		if err := skewed.Append([]float64{float64(i / 36), 3}, src.Normal(0, 5)); err != nil {
			t.Fatal(err)
		}
	}
	for _, ds := range []*dataset.Dataset{adjacent, skewed} {
		checkOracle(t, ds, Options{})
		checkOracle(t, ds, Options{MinInstances: 5, Unpruned: true})
	}
}
