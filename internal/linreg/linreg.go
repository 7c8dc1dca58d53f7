// Package linreg implements multiple linear regression by least squares.
//
// It serves two roles in this repository, mirroring its two roles in the
// paper:
//
//   - as the baseline predictor the paper compares M5P against in Tables 3
//     and 4 ("Lin. Reg" columns), and
//   - as the leaf model inside M5P model trees (internal/m5p), including the
//     greedy attribute-elimination step described by Wang & Witten for M5.
//
// The solver uses a QR decomposition by Householder reflections, which is
// numerically stable for the strongly collinear derived features of Table 2
// (many of them are ratios of each other). When the design matrix is rank
// deficient even for QR, a small ridge penalty is applied instead of failing,
// because a usable, slightly-biased model is always preferable to no model in
// an on-line prediction loop.
//
// Attribute elimination dominates fitting: each greedy round solves one
// least-squares problem per candidate drop. The candidates fork from one
// carrier QR at the column they drop, so a round costs about one QR plus
// their remaining steps, with the bits of solving each from scratch.
package linreg

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"agingpred/internal/dataset"
)

// Model is a fitted linear regression model: target = Intercept + Σ coef·attr.
type Model struct {
	// Attrs holds the names of the attributes used by the model, in the same
	// order as Coefficients. Attributes eliminated during fitting do not
	// appear.
	Attrs []string
	// Coefficients holds one coefficient per entry of Attrs.
	Coefficients []float64
	// Intercept is the constant term.
	Intercept float64

	// TrainingInstances is the number of instances the model was fitted on.
	TrainingInstances int
	// TrainingMAE is the mean absolute error on the training data.
	TrainingMAE float64

	// attrIndex caches the column index of each attribute for the schema
	// held in boundAttrs; Predict rebuilds it lazily when the schema changes.
	attrIndex  []int
	boundAttrs []string
}

// Options configures Fit.
type Options struct {
	// Ridge is the L2 penalty used only when the unpenalised system is rank
	// deficient. Zero means a small default (1e-8).
	Ridge float64
	// EliminateAttrs enables M5-style greedy attribute elimination: columns
	// are dropped while doing so does not worsen the Akaike-corrected error.
	EliminateAttrs bool
	// MaxAttrs caps the number of attributes considered (0 = no cap). When
	// the cap is exceeded the attributes most correlated with the target are
	// kept. This keeps leaf models small in deep M5P trees.
	MaxAttrs int
	// Columns restricts the regression to the given attribute column
	// indices. nil means "all columns"; an empty (non-nil) slice fits an
	// intercept-only model (the constant leaf of an M5 tree). M5P uses this
	// to honour the rule that a node's linear model may only reference
	// attributes tested in the node's subtree.
	Columns []int
}

// Fit fits a linear regression model to the dataset.
func Fit(ds *dataset.Dataset, opts Options) (*Model, error) {
	if ds == nil {
		return nil, errors.New("linreg: nil dataset")
	}
	if ds.Len() == 0 {
		return nil, errors.New("linreg: empty dataset")
	}
	ridge := opts.Ridge
	if ridge <= 0 {
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

	n := ds.Len()
	ls := &leastSquares{a: [][]float64{make([]float64, n)}, b: ds.Targets(), cols: cols, ridge: ridge, pred: make([]float64, n)}
	pos := []int{0}
	for i := range ls.a[0] {
		ls.a[0][i] = 1
	}
	for _, c := range cols {
		pos = append(pos, len(ls.a))
		ls.a = append(ls.a, ds.Column(c))
	}
	// Solve by QR, falling back to ridge-regularised normal equations when
	// the system is rank deficient.
	r := make([][]float64, len(ls.a))
	for j, col := range ls.a {
		r[j] = slices.Clone(col)
	}
	x, ok := finishQR(r, slices.Clone(ls.b), 0)
	if !ok {
		var err error
		if x, err = ls.ridgeSolve(pos); err != nil {
			return nil, err
		}
	}
	if opts.EliminateAttrs && len(pos) > 2 {
		pos, x = ls.eliminate(pos, x)
	}
	return ls.model(attrs, pos, x), nil
}

// leastSquares is one Fit's design matrix, column-major: a[0] is the
// intercept's ones and a[j+1] holds attribute cols[j]. A candidate model is a
// subset of its columns, named by their ascending positions, 0 always first.
type leastSquares struct {
	a     [][]float64
	b     []float64
	cols  []int
	ridge float64
	pred  []float64 // scratch for trainingMAE
}

// model assembles the Model of the solution x over the columns at pos.
func (ls *leastSquares) model(attrs []string, pos []int, x []float64) *Model {
	m := &Model{
		Attrs:             make([]string, len(pos)-1),
		Coefficients:      append([]float64(nil), x[1:]...),
		Intercept:         x[0],
		TrainingInstances: len(ls.b),
		TrainingMAE:       ls.trainingMAE(pos, x),
	}
	for j, q := range pos[1:] {
		m.Attrs[j] = attrs[ls.cols[q-1]]
	}
	return m
}

// trainingMAE is the mean absolute error of the solution x over the columns
// at pos; each row's prediction adds its terms in column order.
func (ls *leastSquares) trainingMAE(pos []int, x []float64) float64 {
	for i := range ls.pred {
		ls.pred[i] = x[0]
	}
	for j, q := range pos[1:] {
		for i, v := range ls.a[q] {
			ls.pred[i] += x[j+1] * v
		}
	}
	sumAbs := 0.0
	for i, p := range ls.pred {
		sumAbs += math.Abs(p - ls.b[i])
	}
	return sumAbs / float64(len(ls.pred))
}

// akaikeError is the error measure M5 uses to decide whether dropping an
// attribute is worthwhile: the training MAE multiplied by a penalty factor
// (n+v)/(n-v) that grows with the number of parameters v.
func akaikeError(mae float64, n, params int) float64 {
	v := params + 1 // +1 for the intercept
	if n <= v {
		return math.Inf(1)
	}
	return mae * float64(n+v) / float64(n-v)
}

// eliminate greedily drops columns from the solution x over pos while the
// Akaike-corrected training error does not increase, and returns the best
// columns and solution found. Each round tries every single-column drop in
// ascending order; a later trial wins a tie. The trials share their QR
// prefix: step k reads only columns <= k and reflects each later column, and
// y, on its own, so the trial dropping column c is, after c steps, the full
// matrix after c steps minus column c. One carrier QR runs over the round's
// columns, and before carrier step c the trial dropping c forks from it and
// finishes the steps from c on, bit for bit a fresh solve of its columns.
func (ls *leastSquares) eliminate(pos []int, x []float64) ([]int, []float64) {
	n := len(ls.b)
	bestScore := akaikeError(ls.trainingMAE(pos, x), n, len(pos)-1)
	carrier, owned := make([][]float64, len(pos)), make([][]float64, len(pos))
	for j := range carrier {
		carrier[j], owned[j] = make([]float64, n), make([]float64, n)
	}
	cy, ty, r := make([]float64, n), make([]float64, n), make([][]float64, len(pos))
	for len(pos) > 2 {
		p, ok := len(pos), true
		for j, q := range pos {
			copy(carrier[j], ls.a[q])
		}
		copy(cy, ls.b)
		bestPos, bestX := []int(nil), []float64(nil)
		for c := 1; c < p; c++ {
			// A failed carrier step fails every later trial the same way.
			ok = ok && householderStep(carrier[:p], cy, c-1)
			trial := append(append(make([]int, 0, p-1), pos[:c]...), pos[c+1:]...)
			tx, solved := []float64(nil), false
			if ok {
				// The carrier's columns before c are final, and only read by
				// back-substitution; the trial copies the rest.
				copy(r, carrier[:c])
				for j := c + 1; j < p; j++ {
					r[j-1] = owned[j-1]
					copy(r[j-1], carrier[j])
				}
				copy(ty, cy)
				tx, solved = finishQR(r[:p-1], ty, c)
			}
			if !solved {
				var err error
				if tx, err = ls.ridgeSolve(trial); err != nil {
					continue
				}
			}
			if score := akaikeError(ls.trainingMAE(trial, tx), n, p-2); score <= bestScore {
				bestScore, bestPos, bestX = score, trial, tx
			}
		}
		if bestPos == nil {
			break
		}
		pos, x = bestPos, bestX
	}
	return pos, x
}

// topCorrelatedAmong returns the k column indices (from the candidate set)
// whose absolute Pearson correlation with the target is largest.
func topCorrelatedAmong(ds *dataset.Dataset, candidates []int, k int) []int {
	type scored struct {
		col  int
		corr float64
	}
	targets := ds.Targets()
	scoredCols := make([]scored, 0, len(candidates))
	for _, c := range candidates {
		scoredCols = append(scoredCols, scored{col: c, corr: math.Abs(pearson(ds.Column(c), targets))})
	}
	sort.SliceStable(scoredCols, func(i, j int) bool { return scoredCols[i].corr > scoredCols[j].corr })
	cols := make([]int, 0, k)
	for i := 0; i < k && i < len(scoredCols); i++ {
		cols = append(cols, scoredCols[i].col)
	}
	sort.Ints(cols)
	return cols
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// finishQR runs Householder steps k onwards on the column-major matrix r and
// on y, in place, and back-substitutes for the least-squares solution. It
// reports false when r has more columns than rows or is (numerically) rank
// deficient.
func finishQR(r [][]float64, y []float64, k int) ([]float64, bool) {
	if len(y) < len(r) {
		return nil, false
	}
	for ; k < len(r); k++ {
		if !householderStep(r, y, k) {
			return nil, false
		}
	}
	return backSubstitute(r, y)
}

// householderStep applies Householder step k to the column-major matrix r
// and to y: column k becomes the reflector, every later column and y are
// reflected one at a time in row order, and r[k][k] keeps the negated
// diagonal of R. It reports false when column k is zero below the diagonal.
func householderStep(r [][]float64, y []float64, k int) bool {
	v := r[k]
	norm := 0.0
	for _, e := range v[k:] {
		// norm = math.Hypot(norm, e), with its arithmetic for finite
		// arguments written out so that the loop makes no call.
		p, q := norm, math.Abs(e)
		if p < q {
			p, q = q, p
		}
		switch {
		case !(p <= math.MaxFloat64 && q == q): // infinite or NaN
			norm = math.Hypot(p, q)
		case p > 0: // else both are zero, and so is the norm
			q /= p
			norm = p * math.Sqrt(1+q*q)
		}
	}
	if norm == 0 {
		return false
	}
	if v[k] > 0 {
		norm = -norm
	}
	for i := k; i < len(v); i++ {
		v[i] /= norm
	}
	v[k] += 1
	for _, col := range r[k+1:] {
		reflect(v, col, k)
	}
	reflect(v, y, k)
	v[k] = norm // stash; actual R(k,k) = -norm, handled in back-substitution
	return true
}

// reflect applies the reflector stored in v[k:] to col[k:].
func reflect(v, col []float64, k int) {
	s := 0.0
	for i := k; i < len(v); i++ {
		s += v[i] * col[i]
	}
	s = -s / v[k]
	for i := k; i < len(v); i++ {
		col[i] += s * v[i]
	}
}

// backSubstitute solves R x = Qᵀb once every column has had its Householder
// step: R is the upper triangle of r (r[j][k] holds R(k,j), the diagonal
// negated) and y holds Qᵀb.
func backSubstitute(r [][]float64, y []float64) (x []float64, ok bool) {
	p := len(r)
	x = make([]float64, p)
	const rankTol = 1e-10
	maxDiag := 0.0
	for k := 0; k < p; k++ {
		if d := math.Abs(r[k][k]); d > maxDiag {
			maxDiag = d
		}
	}
	for k := p - 1; k >= 0; k-- {
		diag := -r[k][k]
		if math.Abs(diag) <= rankTol*maxDiag || diag == 0 {
			return nil, false
		}
		s := y[k]
		for j := k + 1; j < p; j++ {
			s -= r[j][k] * x[j]
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

// ridgeSolve solves (AᵀA + λD)x = Aᵀb by Cholesky decomposition over the
// columns at pos, where D is a diagonal scaling matrix derived from AᵀA
// itself so the penalty is meaningful regardless of the (often wildly
// different) column scales of the derived Table 2 features. The intercept
// column is penalised too; with the tiny default λ this bias is negligible
// and it keeps the matrix strictly positive definite. If the factorisation
// still fails, the penalty is escalated a few times before giving up.
func (ls *leastSquares) ridgeSolve(pos []int) ([]float64, error) {
	p := len(pos)
	// Normal matrix M = AᵀA (p×p, symmetric) and rhs v = Aᵀb.
	m, v := make([]float64, p*p), make([]float64, p)
	for j, qj := range pos {
		v[j] = dot(ls.a[qj], ls.b)
		for k, qk := range pos[j:] {
			m[j*p+j+k] = dot(ls.a[qj], ls.a[qk])
			m[(j+k)*p+j] = m[j*p+j+k]
		}
	}
	lambda := ls.ridge
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
	return nil, fmt.Errorf("linreg: solving least squares: ridge solve failed even with escalated penalty: %w", lastErr)
}

func dot(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// choleskySolve solves the symmetric positive definite system M x = v.
func choleskySolve(m, v []float64, p int) ([]float64, error) {
	l := make([]float64, p*p)
	for j := 0; j < p; j++ {
		sum := m[j*p+j]
		for k := 0; k < j; k++ {
			sum -= l[j*p+k] * l[j*p+k]
		}
		if sum <= 0 {
			return nil, fmt.Errorf("matrix not positive definite at column %d", j)
		}
		l[j*p+j] = math.Sqrt(sum)
		for i := j + 1; i < p; i++ {
			s := m[i*p+j]
			for k := 0; k < j; k++ {
				s -= l[i*p+k] * l[j*p+k]
			}
			l[i*p+j] = s / l[j*p+j]
		}
	}
	// Solve L z = v, then Lᵀ x = z.
	z := make([]float64, p)
	for i := 0; i < p; i++ {
		s := v[i]
		for k := 0; k < i; k++ {
			s -= l[i*p+k] * z[k]
		}
		z[i] = s / l[i*p+i]
	}
	x := make([]float64, p)
	for i := p - 1; i >= 0; i-- {
		s := z[i]
		for k := i + 1; k < p; k++ {
			s -= l[k*p+i] * x[k]
		}
		x[i] = s / l[i*p+i]
	}
	for _, val := range x {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return nil, errors.New("ridge solution is not finite")
		}
	}
	return x, nil
}

// Predict returns the model's prediction for an instance given as a full row
// of the dataset schema it was trained on (or any schema containing the
// model's attributes). attrs names the columns of row.
func (m *Model) Predict(attrs []string, row []float64) (float64, error) {
	if len(attrs) != len(row) {
		return 0, fmt.Errorf("linreg: %d attribute names for %d values", len(attrs), len(row))
	}
	if err := m.bindSchema(attrs); err != nil {
		return 0, err
	}
	pred := m.Intercept
	for j, idx := range m.attrIndex {
		pred += m.Coefficients[j] * row[idx]
	}
	return pred, nil
}

// bindSchema resolves the model's attribute names against a row schema,
// caching the result until the schema changes. A schema it has already
// bound costs one comparison per name and no allocation.
func (m *Model) bindSchema(attrs []string) error {
	if m.attrIndex != nil && slices.Equal(attrs, m.boundAttrs) {
		return nil
	}
	idx, err := m.resolveAttrs(attrs)
	if err != nil {
		return err
	}
	m.attrIndex = idx
	m.boundAttrs = append(m.boundAttrs[:0], attrs...)
	return nil
}

// resolveAttrs maps each model attribute onto its column in the given row
// schema.
func (m *Model) resolveAttrs(attrs []string) ([]int, error) {
	idx := make([]int, len(m.Attrs))
	for j, name := range m.Attrs {
		found := slices.Index(attrs, name)
		if found < 0 {
			return nil, fmt.Errorf("linreg: instance schema is missing attribute %q", name)
		}
		idx[j] = found
	}
	return idx, nil
}

// NumAttrs returns the number of attributes retained by the model.
func (m *Model) NumAttrs() int { return len(m.Attrs) }

// BoundModel is a Model bound once to a fixed row schema: Predict resolves
// no attribute names and performs no per-call allocations, which is what the
// per-checkpoint Observe hot path needs. A BoundModel is immutable and safe
// for concurrent use.
type BoundModel struct {
	intercept float64
	coeffs    []float64
	cols      []int // row column of each coefficient's attribute
}

// Bind resolves the model's attributes against the given row schema once.
// The schema may be wider or reordered as long as every model attribute is
// present. The returned BoundModel is independent of the receiver's own
// lazy schema cache, so it can be shared across goroutines.
func (m *Model) Bind(attrs []string) (*BoundModel, error) {
	cols, err := m.resolveAttrs(attrs)
	if err != nil {
		return nil, err
	}
	return &BoundModel{
		intercept: m.Intercept,
		coeffs:    append([]float64(nil), m.Coefficients...),
		cols:      cols,
	}, nil
}

// Predict evaluates the bound model on a row laid out in the schema the
// model was bound to. The arithmetic matches Model.Predict term for term, so
// the two paths produce bit-identical results.
func (b *BoundModel) Predict(row []float64) float64 {
	pred := b.intercept
	for j, idx := range b.cols {
		pred += b.coeffs[j] * row[idx]
	}
	return pred
}

// PredictBatch evaluates the bound model on every row, writing one prediction
// per row into out (len(out) must be >= len(rows)). Each row is evaluated by
// exactly the scalar Predict arithmetic, so batch and scalar results are
// bit-identical; batching exists to amortise call overhead and keep the
// model's coefficient arrays hot in cache across a whole shard tick.
func (b *BoundModel) PredictBatch(rows [][]float64, out []float64) {
	for i, row := range rows {
		pred := b.intercept
		for j, idx := range b.cols {
			pred += b.coeffs[j] * row[idx]
		}
		out[i] = pred
	}
}

// Columns returns the row columns the bound model reads, sorted ascending and
// de-duplicated. Consumers use it to skip computing feature columns a model
// can never look at.
func (b *BoundModel) Columns() []int {
	out := append([]int(nil), b.cols...)
	sort.Ints(out)
	n := 0
	for i, c := range out {
		if i == 0 || c != out[n-1] {
			out[n] = c
			n++
		}
	}
	return out[:n]
}

// Terms exposes the bound model's compiled form — the intercept and the
// parallel (coefficient, row column) arrays Predict iterates, in evaluation
// order. Flattened tree layouts inline leaf models through it. The returned
// slices are the model's own storage and must not be modified.
func (b *BoundModel) Terms() (intercept float64, coeffs []float64, cols []int) {
	return b.intercept, b.coeffs, b.cols
}

// String renders the regression equation in a human-readable form, e.g.
// "ttf = 120.5 - 3.2*tomcat_mem + 0.8*threads".
func (m *Model) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.6g", m.Intercept)
	for i, a := range m.Attrs {
		c := m.Coefficients[i]
		if c >= 0 {
			fmt.Fprintf(&b, " + %.6g*%s", c, a)
		} else {
			fmt.Fprintf(&b, " - %.6g*%s", -c, a)
		}
	}
	return b.String()
}
