package linreg

// The linear-regression solver as it was before elimination trials shared
// their QR prefix, kept verbatim as a differential oracle.

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"agingpred/internal/dataset"
)

// fitOracle is Fit as it was before elimination trials shared their QR
// prefix: every trial builds its own row-major design matrix and runs a full
// QR solve. It is the oracle the production Fit must match bit for bit.
func fitOracle(ds *dataset.Dataset, opts Options) (*Model, error) {
	if ds == nil {
		return nil, errors.New("linreg: nil dataset")
	}
	if ds.Len() == 0 {
		return nil, errors.New("linreg: empty dataset")
	}
	ridge := opts.Ridge
	if ridge == 0 {
		ridge = 1e-8
	}
	attrs := ds.Attrs()
	var cols []int
	if opts.Columns != nil {
		cols = make([]int, 0, len(opts.Columns))
		for _, c := range opts.Columns {
			if c < 0 || c >= len(attrs) {
				return nil, fmt.Errorf("linreg: column index %d out of range [0,%d)", c, len(attrs))
			}
			cols = append(cols, c)
		}
		sort.Ints(cols)
	} else {
		cols = make([]int, len(attrs))
		for i := range cols {
			cols[i] = i
		}
	}
	if opts.MaxAttrs > 0 && len(cols) > opts.MaxAttrs {
		cols = topCorrelatedAmong(ds, cols, opts.MaxAttrs)
	}

	coefs, intercept, err := oracleSolve(ds, cols, ridge)
	if err != nil {
		return nil, err
	}
	model := oracleBuildModel(ds, attrs, cols, coefs, intercept)

	if opts.EliminateAttrs && len(cols) > 1 {
		model = oracleEliminate(ds, attrs, cols, ridge, model)
	}
	return model, nil
}

// oracleBuildModel assembles a Model from solved coefficients and computes its
// training error.
func oracleBuildModel(ds *dataset.Dataset, attrs []string, cols []int, coefs []float64, intercept float64) *Model {
	m := &Model{
		Attrs:             make([]string, len(cols)),
		Coefficients:      append([]float64(nil), coefs...),
		Intercept:         intercept,
		TrainingInstances: ds.Len(),
	}
	for i, c := range cols {
		m.Attrs[i] = attrs[c]
	}
	sumAbs := 0.0
	for i := 0; i < ds.Len(); i++ {
		pred := intercept
		for j, c := range cols {
			pred += coefs[j] * ds.Value(i, c)
		}
		sumAbs += math.Abs(pred - ds.TargetValue(i))
	}
	m.TrainingMAE = sumAbs / float64(ds.Len())
	return m
}

// oracleEliminate greedily drops attributes while the Akaike-corrected training
// error does not increase. It returns the best model found (possibly the
// original one).
func oracleEliminate(ds *dataset.Dataset, attrs []string, cols []int, ridge float64, initial *Model) *Model {
	best := initial
	bestCols := append([]int(nil), cols...)
	bestScore := akaikeError(initial.TrainingMAE, ds.Len(), len(bestCols))

	improved := true
	for improved && len(bestCols) > 1 {
		improved = false
		var (
			bestDropIdx   = -1
			bestDropModel *Model
			bestDropCols  []int
			bestDropScore = bestScore
		)
		for drop := range bestCols {
			trial := make([]int, 0, len(bestCols)-1)
			trial = append(trial, bestCols[:drop]...)
			trial = append(trial, bestCols[drop+1:]...)
			coefs, intercept, err := oracleSolve(ds, trial, ridge)
			if err != nil {
				continue
			}
			m := oracleBuildModel(ds, attrs, trial, coefs, intercept)
			score := akaikeError(m.TrainingMAE, ds.Len(), len(trial))
			if score <= bestDropScore {
				bestDropScore = score
				bestDropIdx = drop
				bestDropModel = m
				bestDropCols = trial
			}
		}
		if bestDropIdx >= 0 {
			best = bestDropModel
			bestCols = bestDropCols
			bestScore = bestDropScore
			improved = true
		}
	}
	return best
}

// oracleSolve computes least-squares coefficients for the given columns plus an
// intercept. It first tries a QR solve; if the system is rank deficient it
// falls back to ridge-regularised normal equations.
func oracleSolve(ds *dataset.Dataset, cols []int, ridge float64) (coefs []float64, intercept float64, err error) {
	n := ds.Len()
	p := len(cols) + 1 // +1 intercept column

	// Build the design matrix (row-major) with a leading column of ones.
	a := make([]float64, n*p)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i*p] = 1
		for j, c := range cols {
			a[i*p+j+1] = ds.Value(i, c)
		}
		b[i] = ds.TargetValue(i)
	}

	x, ok := oracleQRSolve(a, b, n, p)
	if !ok {
		x, err = oracleRidgeSolve(a, b, n, p, ridge)
		if err != nil {
			return nil, 0, fmt.Errorf("linreg: solving least squares: %w", err)
		}
	}
	return x[1:], x[0], nil
}

// oracleQRSolve solves min ||Ax - b|| for an n×p row-major matrix using Householder
// QR. It reports ok=false when A is (numerically) rank deficient.
func oracleQRSolve(a, b []float64, n, p int) (x []float64, ok bool) {
	if n < p {
		return nil, false
	}
	// Work on copies: the caller may retry with ridge on the originals.
	r := append([]float64(nil), a...)
	y := append([]float64(nil), b...)

	for k := 0; k < p; k++ {
		// Compute the Householder reflector for column k below the diagonal.
		norm := 0.0
		for i := k; i < n; i++ {
			norm = math.Hypot(norm, r[i*p+k])
		}
		if norm == 0 {
			return nil, false
		}
		if r[k*p+k] > 0 {
			norm = -norm
		}
		for i := k; i < n; i++ {
			r[i*p+k] /= norm
		}
		r[k*p+k] += 1

		// Apply the reflector to the remaining columns and to y.
		for j := k + 1; j < p; j++ {
			s := 0.0
			for i := k; i < n; i++ {
				s += r[i*p+k] * r[i*p+j]
			}
			s = -s / r[k*p+k]
			for i := k; i < n; i++ {
				r[i*p+j] += s * r[i*p+k]
			}
		}
		s := 0.0
		for i := k; i < n; i++ {
			s += r[i*p+k] * y[i]
		}
		s = -s / r[k*p+k]
		for i := k; i < n; i++ {
			y[i] += s * r[i*p+k]
		}
		// The diagonal entry of R is -norm.
		r[k*p+k] = norm // stash; actual R(k,k) = -norm, handled in back-substitution
	}

	// Back substitution with R stored in the upper triangle (diagonal holds
	// the negated value in r[k*p+k]).
	x = make([]float64, p)
	const rankTol = 1e-10
	maxDiag := 0.0
	for k := 0; k < p; k++ {
		if d := math.Abs(r[k*p+k]); d > maxDiag {
			maxDiag = d
		}
	}
	for k := p - 1; k >= 0; k-- {
		diag := -r[k*p+k]
		if math.Abs(diag) <= rankTol*maxDiag || diag == 0 {
			return nil, false
		}
		s := y[k]
		for j := k + 1; j < p; j++ {
			s -= r[k*p+j] * x[j]
		}
		x[k] = s / diag
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
	}
	return x, true
}

// oracleRidgeSolve solves (AᵀA + λD)x = Aᵀb by Cholesky decomposition, where D is
// a diagonal scaling matrix derived from AᵀA itself so the penalty is
// meaningful regardless of the (often wildly different) column scales of the
// derived Table 2 features. The intercept column is penalised too; with the
// tiny default λ this bias is negligible and it keeps the matrix strictly
// positive definite. If the factorisation still fails, the penalty is
// escalated a few times before giving up.
func oracleRidgeSolve(a, b []float64, n, p int, lambda float64) ([]float64, error) {
	if lambda <= 0 {
		lambda = 1e-8
	}
	// Normal matrix M = AᵀA (p×p, symmetric) and rhs v = Aᵀb.
	m := make([]float64, p*p)
	v := make([]float64, p)
	for i := 0; i < n; i++ {
		row := a[i*p : (i+1)*p]
		for j := 0; j < p; j++ {
			v[j] += row[j] * b[i]
			for k := j; k < p; k++ {
				m[j*p+k] += row[j] * row[k]
			}
		}
	}
	for j := 0; j < p; j++ {
		for k := 0; k < j; k++ {
			m[j*p+k] = m[k*p+j]
		}
	}

	var lastErr error
	for attempt := 0; attempt < 6; attempt++ {
		penalised := append([]float64(nil), m...)
		for j := 0; j < p; j++ {
			// Relative penalty: scale by the column's own energy so columns
			// with values around 1e6 and columns around 1e-3 are both
			// regularised meaningfully.
			penalised[j*p+j] += lambda * (1 + m[j*p+j])
		}
		x, err := choleskySolve(penalised, v, p)
		if err == nil {
			return x, nil
		}
		lastErr = err
		lambda *= 1e3
	}
	return nil, fmt.Errorf("ridge solve failed even with escalated penalty: %w", lastErr)
}
