package linreg

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"agingpred/internal/dataset"
	"agingpred/internal/rng"
)

// modelDiff describes the first difference between got and the oracle's
// want, bit for bit, or returns "" when they are identical.
func modelDiff(got, want *Model) string {
	switch {
	case !slices.Equal(got.Attrs, want.Attrs):
		return fmt.Sprintf("Attrs %v, oracle %v", got.Attrs, want.Attrs)
	case len(got.Coefficients) != len(want.Coefficients):
		return fmt.Sprintf("%d coefficients, oracle %d", len(got.Coefficients), len(want.Coefficients))
	case math.Float64bits(got.Intercept) != math.Float64bits(want.Intercept):
		return fmt.Sprintf("Intercept %v, oracle %v", got.Intercept, want.Intercept)
	case math.Float64bits(got.TrainingMAE) != math.Float64bits(want.TrainingMAE):
		return fmt.Sprintf("TrainingMAE %v, oracle %v", got.TrainingMAE, want.TrainingMAE)
	case got.TrainingInstances != want.TrainingInstances:
		return fmt.Sprintf("TrainingInstances %d, oracle %d", got.TrainingInstances, want.TrainingInstances)
	}
	for j, c := range got.Coefficients {
		if math.Float64bits(c) != math.Float64bits(want.Coefficients[j]) {
			return fmt.Sprintf("coefficient %d (%s) %v, oracle %v", j, got.Attrs[j], c, want.Coefficients[j])
		}
	}
	return ""
}

// checkOracle fits ds both ways and fails on any difference: in the error,
// or in any bit of the model.
func checkOracle(t testing.TB, ds *dataset.Dataset, opts Options) {
	t.Helper()
	got, err := Fit(ds, opts)
	want, wantErr := fitOracle(ds, opts)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%d×%d %+v: error %v, oracle %v", ds.Len(), ds.NumAttrs(), opts, err, wantErr)
	}
	if err != nil {
		return
	}
	if d := modelDiff(got, want); d != "" {
		t.Fatalf("%d×%d %+v: %s", ds.Len(), ds.NumAttrs(), opts, d)
	}
}

// Column kinds of a random design: the ones that make a least-squares system
// rank deficient, and so send QR trials to the ridge fallback in the middle
// of an elimination round, next to well-conditioned ones.
const (
	colNormal    = iota
	colConstant  // a constant column duplicates the intercept
	colDuplicate // an exact copy of an earlier column
	colSum       // the sum of two earlier columns
	colScaled    // an earlier column times 1e6, as ratio features are
	colSparse    // mostly zeros
	colHuge      // so large that squares overflow
	numColKinds
	colMax // near the float64 maximum, so that norms overflow; only ever last
)

// randomDataset draws an n×p dataset whose columns have the given kinds and
// whose target is a noisy linear function of them.
func randomDataset(src *rng.Source, n int, kinds []int) *dataset.Dataset {
	p := len(kinds)
	names := make([]string, p)
	for j := range names {
		names[j] = fmt.Sprintf("x%d", j)
	}
	cols := make([][]float64, p)
	for j, kind := range kinds {
		cols[j] = make([]float64, n)
		if j == 0 && kind >= colDuplicate && kind <= colScaled {
			kind = colNormal // nothing earlier to derive from
		}
		a, b := src.Intn(max(j, 1)), src.Intn(max(j, 1))
		c := src.Normal(0, 5)
		for i := range cols[j] {
			switch kind {
			case colNormal:
				cols[j][i] = src.Normal(0, 3)
			case colConstant:
				cols[j][i] = c
			case colDuplicate:
				cols[j][i] = cols[a][i]
			case colSum:
				cols[j][i] = cols[a][i] + cols[b][i]
			case colScaled:
				cols[j][i] = cols[a][i] * 1e6
			case colSparse:
				if src.Bool(0.15) {
					cols[j][i] = src.Float64Between(1, 50)
				}
			case colHuge:
				cols[j][i] = src.Normal(0, 3) * 1e300
			case colMax:
				cols[j][i] = src.Float64Between(0.5, 1) * math.MaxFloat64
			}
		}
	}
	ds := dataset.MustNew("oracle", names, "y")
	coefs := make([]float64, p)
	for j := range coefs {
		if src.Bool(0.6) {
			coefs[j] = src.Normal(0, 2)
		}
	}
	row := make([]float64, p)
	for i := 0; i < n; i++ {
		y := 10.0
		for j := range row {
			row[j] = cols[j][i]
			y += coefs[j] * row[j] / (1 + math.Abs(cols[j][0]))
		}
		if err := ds.Append(row, y+src.Normal(0, 1)); err != nil {
			panic(err)
		}
	}
	return ds
}

// TestFitMatchesOracle checks Fit against the per-candidate solver on random
// designs of every column kind, at row counts below, at and just above the
// column count and well above it, under every Options shape M5P and the
// baselines use.
func TestFitMatchesOracle(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 400; trial++ {
		p := 1 + src.Intn(8)
		kinds := make([]int, p)
		for j := range kinds {
			kinds[j] = colNormal
			if src.Bool(0.5) {
				kinds[j] = src.Intn(numColKinds)
			}
		}
		var n int
		switch trial % 5 {
		case 0:
			n = 1 + src.Intn(p) // n < p+1: fewer rows than parameters
		case 1:
			n = p + 1
		case 2:
			n = p + 2
		default:
			n = p + 3 + src.Intn(60)
		}
		ds := randomDataset(src, n, kinds)
		subset := []int{}
		for j := 0; j < p; j++ {
			if src.Bool(0.6) {
				subset = append(subset, j)
			}
		}
		if len(subset) > 1 && src.Bool(0.3) {
			subset = append(subset, subset[0]) // a column listed twice
		}
		src.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
		for _, opts := range []Options{
			{EliminateAttrs: true},
			{EliminateAttrs: true, Columns: []int{}},
			{EliminateAttrs: true, Columns: subset},
			{EliminateAttrs: true, MaxAttrs: 1 + src.Intn(3)},
			{EliminateAttrs: true, Ridge: 1e-3},
			{EliminateAttrs: true, Ridge: -1},
			{},
			{Columns: subset, MaxAttrs: 2},
		} {
			checkOracle(t, ds, opts)
		}
	}
}

// TestFitMatchesOracleRankDeficient pins the designs whose elimination rounds
// mix QR trials with ridge fallbacks: the carrier QR fails at the constant
// (or copied) column, so trials forked before it fail inside their own steps
// and the trials after it never start a QR. The last designs overflow, so
// norms go non-finite and ridge solves fail.
func TestFitMatchesOracleRankDeficient(t *testing.T) {
	src := rng.New(11)
	for _, kinds := range [][]int{
		{colNormal, colNormal, colConstant, colNormal},
		{colNormal, colDuplicate, colNormal, colNormal},
		{colNormal, colNormal, colSum, colConstant, colNormal},
		{colConstant, colConstant, colNormal},
		{colSparse, colNormal, colScaled, colSparse},
		// Overflow: non-finite norms, and ridge solves that fail outright.
		{colNormal, colHuge, colNormal},
		{colHuge, colConstant, colNormal, colHuge},
		{colNormal, colNormal, colMax},
	} {
		for _, n := range []int{len(kinds), len(kinds) + 1, 40} {
			ds := randomDataset(src, n, kinds)
			checkOracle(t, ds, Options{EliminateAttrs: true})
			checkOracle(t, ds, Options{})
		}
	}
}

// TestHouseholderNormIsHypot checks the norm householderStep computes with
// math.Hypot's arithmetic written out against math.Hypot itself, on columns
// of zeros, subnormals, huge, infinite and NaN values.
func TestHouseholderNormIsHypot(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1, -3.75, 1e200,
		-1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	src := rng.New(3)
	for trial := 0; trial < 5000; trial++ {
		v := make([]float64, 1+src.Intn(6))
		want := 0.0
		for i := range v {
			v[i] = special[src.Intn(len(special))]
			want = math.Hypot(want, v[i])
		}
		r := [][]float64{slices.Clone(v)}
		ok := householderStep(r, make([]float64, len(v)), 0)
		if want == 0 {
			if ok {
				t.Fatalf("%v: step succeeded on a zero norm", v)
			}
			continue
		}
		if got := math.Abs(r[0][0]); !ok || math.Float64bits(got) != math.Float64bits(math.Abs(want)) {
			t.Fatalf("%v: norm %v (ok %v), math.Hypot %v", v, got, ok, want)
		}
	}
}

// FuzzEliminate decodes a small design from the fuzz bytes and requires Fit
// to match the per-candidate solver bit for bit.
func FuzzEliminate(f *testing.F) {
	f.Add([]byte{5, 3, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{9, 4, 2, 0, 1, 9, 2, 200, 7, 3, 9, 100, 2, 4, 8, 16, 32, 64, 128, 255, 1, 3, 5, 7, 11, 13, 17})
	f.Add([]byte{2, 5, 1, 0, 250, 4, 40, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, opts := decodeFuzzFit(data)
		checkOracle(t, ds, opts)
	})
}

// decodeFuzzFit reads n, p, an Options selector, one kind byte per column
// and then the cell values, column by column, and the targets. A kind byte
// makes its column raw, constant, a copy of an earlier column or the sum of
// two; missing bytes read as zero.
func decodeFuzzFit(data []byte) (*dataset.Dataset, Options) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	value := func() float64 { return float64(int8(next())) / 4 }
	n, p, sel := 1+int(next()%12), 1+int(next()%6), next()
	kinds := make([]byte, p)
	for j := range kinds {
		kinds[j] = next()
	}
	cols := make([][]float64, p)
	for j, kind := range kinds {
		cols[j] = make([]float64, n)
		a, b := int(kind>>2)%max(j, 1), int(kind>>5)%max(j, 1)
		c := value()
		for i := range cols[j] {
			switch {
			case kind%4 == 1:
				cols[j][i] = c
			case kind%4 == 2 && j > 0:
				cols[j][i] = cols[a][i]
			case kind%4 == 3 && j > 0:
				cols[j][i] = cols[a][i] + cols[b][i]
			default:
				cols[j][i] = value()
			}
		}
	}
	names := make([]string, p)
	for j := range names {
		names[j] = fmt.Sprintf("x%d", j)
	}
	ds := dataset.MustNew("fuzz", names, "y")
	row := make([]float64, p)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = cols[j][i]
		}
		if err := ds.Append(row, value()); err != nil {
			panic(err)
		}
	}
	opts := Options{EliminateAttrs: true, MaxAttrs: int(sel>>2) % 4}
	switch sel % 4 {
	case 1:
		opts.Columns = []int{}
	case 2:
		for j := 0; j < p; j++ {
			if kinds[j]&0x80 == 0 {
				opts.Columns = append(opts.Columns, p-1-j)
			}
		}
	case 3:
		opts.Ridge = 1e-4
	}
	return ds, opts
}
