package m5p

// The tree induction as it was before the split search presorted its rows,
// kept verbatim as a differential oracle.

import (
	"errors"
	"fmt"
	"math"

	"agingpred/internal/dataset"
	"agingpred/internal/linreg"
)

// fitOracle is Fit as it was before the split search presorted its rows:
// every node copies and merge-sorts its rows once per attribute, and pruning
// evaluates node models through Model.Predict. Model fitting is Fit's own.
func fitOracle(ds *dataset.Dataset, opts Options) (*Tree, error) {
	if ds == nil {
		return nil, errors.New("m5p: nil dataset")
	}
	if ds.Len() == 0 {
		return nil, errors.New("m5p: empty dataset")
	}
	opts = opts.withDefaults()
	if ds.Len() < opts.MinInstances {
		// Not enough data for even one leaf at the requested size: fall back
		// to whatever we have rather than failing, because on-line training
		// may legitimately start with very short executions.
		opts.MinInstances = ds.Len()
	}

	t := &Tree{
		attrs:             ds.Attrs(),
		opts:              opts,
		TrainingInstances: ds.Len(),
	}
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	globalSD := ds.TargetStats().StdDev

	var err error
	t.root, err = t.oracleGrow(ds, idx, 0, globalSD)
	if err != nil {
		return nil, err
	}
	if _, err := t.fitModels(ds, t.root, idx, true); err != nil {
		return nil, err
	}
	if !opts.Unpruned {
		t.oraclePrune(ds, t.root, idx)
	}
	return t, nil
}

// oracleGrow recursively builds the unpruned tree structure.
func (t *Tree) oracleGrow(ds *dataset.Dataset, idx []int, depth int, globalSD float64) (*node, error) {
	n := &node{n: len(idx), leaf: true, sd: stdDevTarget(ds, idx)}
	if len(idx) < 2*t.opts.MinInstances || depth >= t.opts.MaxDepth {
		return n, nil
	}
	if n.sd <= t.opts.MinStdDevFraction*globalSD {
		return n, nil
	}
	attr, threshold, ok := oracleBestSplit(ds, idx, t.opts.MinInstances)
	if !ok {
		return n, nil
	}
	var left, right []int
	for _, i := range idx {
		if ds.Value(i, attr) <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.opts.MinInstances || len(right) < t.opts.MinInstances {
		return n, nil
	}
	n.leaf = false
	n.attr = attr
	n.threshold = threshold
	var err error
	n.left, err = t.oracleGrow(ds, left, depth+1, globalSD)
	if err != nil {
		return nil, err
	}
	n.right, err = t.oracleGrow(ds, right, depth+1, globalSD)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// oraclePrune walks the tree bottom-up, replacing a subtree by its node model when
// the node model's estimated error is no worse than the subtree's estimated
// error. It returns the estimated error of (possibly pruned) n.
func (t *Tree) oraclePrune(ds *dataset.Dataset, n *node, idx []int) float64 {
	nodeErr := estimatedError(t.oracleNodeModelMAE(ds, n, idx), len(idx), n.model.NumAttrs())
	if n.leaf {
		return nodeErr
	}
	var left, right []int
	for _, i := range idx {
		if ds.Value(i, n.attr) <= n.threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	leftErr := t.oraclePrune(ds, n.left, left)
	rightErr := t.oraclePrune(ds, n.right, right)
	subtreeErr := (leftErr*float64(len(left)) + rightErr*float64(len(right))) / float64(len(idx))

	if nodeErr <= subtreeErr {
		// The single linear model at this node is at least as good as the
		// whole subtree below it: collapse.
		n.leaf = true
		n.left = nil
		n.right = nil
		return nodeErr
	}
	return subtreeErr
}

// oracleNodeModelMAE computes the MAE of the node's linear model over the given
// instances.
func (t *Tree) oracleNodeModelMAE(ds *dataset.Dataset, n *node, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	sum := 0.0
	for _, i := range idx {
		p, err := n.model.Predict(t.attrs, ds.Row(i))
		if err != nil {
			// The node model was fitted on this very schema; an error here is
			// a programming bug, but degrade gracefully by treating the
			// prediction as the worst case rather than panicking.
			p = math.Inf(1)
		}
		sum += math.Abs(p - ds.TargetValue(i))
	}
	return sum / float64(len(idx))
}

// oracleBestSplit finds the (attribute, threshold) maximising SDR. Shared logic
// with internal/regtree but kept local so the two packages stay independent
// (they are alternative models, not layers).
func oracleBestSplit(ds *dataset.Dataset, idx []int, minInstances int) (attr int, threshold float64, ok bool) {
	parentSD := stdDevTarget(ds, idx)
	if parentSD == 0 {
		return 0, 0, false
	}
	bestSDR := 0.0
	nTotal := float64(len(idx))

	sorted := make([]int, len(idx))
	for col := 0; col < ds.NumAttrs(); col++ {
		copy(sorted, idx)
		oracleSortByColumn(ds, sorted, col)

		var leftSum, leftSumSq float64
		var rightSum, rightSumSq float64
		for _, i := range sorted {
			v := ds.TargetValue(i)
			rightSum += v
			rightSumSq += v * v
		}
		for pos := 0; pos < len(sorted)-1; pos++ {
			v := ds.TargetValue(sorted[pos])
			leftSum += v
			leftSumSq += v * v
			rightSum -= v
			rightSumSq -= v * v

			cur := ds.Value(sorted[pos], col)
			next := ds.Value(sorted[pos+1], col)
			if cur == next {
				continue
			}
			nLeft := pos + 1
			nRight := len(sorted) - nLeft
			if nLeft < minInstances || nRight < minInstances {
				continue
			}
			sdLeft := stdDevFromSums(leftSum, leftSumSq, nLeft)
			sdRight := stdDevFromSums(rightSum, rightSumSq, nRight)
			sdr := parentSD - (float64(nLeft)/nTotal)*sdLeft - (float64(nRight)/nTotal)*sdRight
			if sdr > bestSDR {
				bestSDR = sdr
				attr = col
				threshold = (cur + next) / 2
				ok = true
			}
		}
	}
	return attr, threshold, ok
}

// oracleSortByColumn sorts idx ascending by the given attribute column using a
// bottom-up merge sort over a scratch buffer (stable, no per-comparison
// allocations).
func oracleSortByColumn(ds *dataset.Dataset, idx []int, col int) {
	n := len(idx)
	if n < 2 {
		return
	}
	buf := make([]int, n)
	src, dst := idx, buf
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if ds.Value(src[i], col) <= ds.Value(src[j], col) {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
				k++
			}
			for i < mid {
				dst[k] = src[i]
				i++
				k++
			}
			for j < hi {
				dst[k] = src[j]
				j++
				k++
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
}

// treeDiff describes the first difference between got and the oracle's
// want, bit for bit, in preorder, or returns "" when they are identical.
func treeDiff(got, want *Tree) string {
	var walk func(path string, a, b *node) string
	walk = func(path string, a, b *node) string {
		switch {
		case a.leaf != b.leaf || a.n != b.n:
			return fmt.Sprintf("%s: leaf %v n %d, oracle leaf %v n %d", path, a.leaf, a.n, b.leaf, b.n)
		case math.Float64bits(a.sd) != math.Float64bits(b.sd):
			return fmt.Sprintf("%s: sd %v, oracle %v", path, a.sd, b.sd)
		case (a.model == nil) != (b.model == nil):
			return fmt.Sprintf("%s: model %v, oracle %v", path, a.model, b.model)
		case a.model != nil && modelDiff(a.model, b.model) != "":
			return fmt.Sprintf("%s: %s", path, modelDiff(a.model, b.model))
		case a.leaf:
			return ""
		case a.attr != b.attr || math.Float64bits(a.threshold) != math.Float64bits(b.threshold):
			return fmt.Sprintf("%s: split %d <= %v, oracle %d <= %v", path, a.attr, a.threshold, b.attr, b.threshold)
		}
		if d := walk(path+"L", a.left, b.left); d != "" {
			return d
		}
		return walk(path+"R", a.right, b.right)
	}
	return walk("root", got.root, want.root)
}

// modelDiff compares two node models bit for bit.
func modelDiff(a, b *linreg.Model) string {
	if fmt.Sprint(a.Attrs) != fmt.Sprint(b.Attrs) || len(a.Coefficients) != len(b.Coefficients) ||
		math.Float64bits(a.Intercept) != math.Float64bits(b.Intercept) ||
		math.Float64bits(a.TrainingMAE) != math.Float64bits(b.TrainingMAE) {
		return fmt.Sprintf("model %v, oracle %v", a, b)
	}
	for j, c := range a.Coefficients {
		if math.Float64bits(c) != math.Float64bits(b.Coefficients[j]) {
			return fmt.Sprintf("model %v, oracle %v", a, b)
		}
	}
	return ""
}
