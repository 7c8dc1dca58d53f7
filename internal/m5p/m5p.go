// Package m5p implements M5P model trees — the machine-learning algorithm the
// paper selects for on-line software aging prediction.
//
// An M5P model is a binary decision tree whose inner nodes test
// "attribute <= threshold?" and whose leaves hold multiple linear regression
// models (Quinlan's M5, with the improvements described by Wang & Witten,
// "Inducing Model Trees for Continuous Classes", ECML 1997 — the paper's
// reference [16], as implemented in WEKA). The rationale, quoted from the
// paper, is that a highly non-linear global behaviour (heap resizes, garbage
// collection, phase changes in the workload) is often piecewise linear, and a
// model tree captures exactly that.
//
// The implementation follows the standard M5 pipeline:
//
//  1. Grow: split nodes greedily by maximising the standard deviation
//     reduction (SDR) of the target, stopping at a minimum instance count or
//     when the node's standard deviation is a small fraction of the global
//     one.
//  2. Fit: attach a linear model (internal/linreg, with M5-style attribute
//     elimination) to every node.
//  3. Prune: bottom-up, replace a subtree by its node's linear model whenever
//     the model's estimated error is no worse than the subtree's.
//  4. Smooth: at prediction time, filter the leaf prediction through the
//     linear models of its ancestors to avoid discontinuities between
//     adjacent leaves.
//
// The package also exposes the structure of the learned tree (top splits,
// per-node attributes), which the paper uses as a root-cause hint: the
// attributes tested near the root are the resources most related to the
// coming failure.
package m5p

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"agingpred/internal/dataset"
	"agingpred/internal/linreg"
)

// DefaultMinInstances is the default minimum number of instances per leaf.
// The paper reports "using 10 instances to build every leaf" for all of its
// experiments.
const DefaultMinInstances = 10

// DefaultSmoothingK is the smoothing constant k in Quinlan's formula
// p' = (n·p + k·q)/(n + k); WEKA uses 15.
const DefaultSmoothingK = 15.0

// Options configures model-tree induction.
type Options struct {
	// MinInstances is the minimum number of instances per leaf (0 = 10).
	MinInstances int
	// MaxDepth caps tree depth (0 = 30).
	MaxDepth int
	// MinStdDevFraction stops splitting when a node's target standard
	// deviation falls below this fraction of the global standard deviation
	// (0 = 0.05).
	MinStdDevFraction float64
	// Unpruned disables the pruning step (WEKA's -N flag).
	Unpruned bool
	// NoSmoothing disables prediction smoothing (WEKA's -U flag).
	NoSmoothing bool
	// SmoothingK overrides the smoothing constant (0 = 15).
	SmoothingK float64
	// LeafMaxAttrs caps the number of attributes each node's linear model
	// may consider (0 = no cap). Large derived-feature sets (Table 2 has ~60
	// variables) benefit from a cap for training speed; accuracy is
	// essentially unchanged because the elimination step drops most of them
	// anyway.
	LeafMaxAttrs int
}

func (o Options) withDefaults() Options {
	if o.MinInstances <= 0 {
		o.MinInstances = DefaultMinInstances
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 30
	}
	if o.MinStdDevFraction <= 0 {
		o.MinStdDevFraction = 0.05
	}
	if o.SmoothingK <= 0 {
		o.SmoothingK = DefaultSmoothingK
	}
	return o
}

// Tree is a fitted M5P model tree.
type Tree struct {
	root  *node
	attrs []string
	opts  Options

	// TrainingInstances is the number of instances the tree was fitted on.
	TrainingInstances int
}

// node is one tree node. Every node (internal or leaf) carries a linear
// model: internal nodes need one for smoothing and as the pruning candidate.
type node struct {
	attr      int
	threshold float64
	left      *node
	right     *node

	leaf  bool
	model *linreg.Model

	n  int     // training instances reaching this node
	sd float64 // target standard deviation at this node
}

// Split describes one internal node test, used for root-cause inspection.
type Split struct {
	// Attr is the attribute name tested.
	Attr string
	// Threshold is the split value ("Attr <= Threshold?").
	Threshold float64
	// Depth is the node's depth (0 = root).
	Depth int
	// Instances is the number of training instances that reached the node.
	Instances int
}

// Fit builds an M5P model tree for the dataset.
func Fit(ds *dataset.Dataset, opts Options) (*Tree, error) {
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
	ps := presort(ds)
	idx := slices.Clone(ps.lists[0]) // grow reorders the lists
	t.root = t.grow(ds, ps, 0, ds.Len(), 0, ds.TargetStats().StdDev)
	if _, err := t.fitModels(ds, t.root, idx, true); err != nil {
		return nil, err
	}
	if !opts.Unpruned {
		t.prune(ds, t.root, idx)
	}
	return t, nil
}

// presorted holds the split search's row lists: lists[0] has the training
// rows in ascending order, lists[1+col] in the order of attribute col. Each
// node owns the same range [lo,hi) of every list; splitting it partitions
// the range stably. So a node's list for col is its rows stable-sorted by col
// (values are finite, so "<=" is a total order): the list a per-node sort
// gives, summed by the split search in the same order.
type presorted struct {
	lists   [][]int
	cols    [][]float64 // cols[col][row]
	targets []float64
	left    []bool // left[row]: the row goes left at the split being applied
	buf     []int
}

func presort(ds *dataset.Dataset) *presorted {
	n, p := ds.Len(), ds.NumAttrs()
	ps := &presorted{lists: make([][]int, p+1), cols: make([][]float64, p), targets: ds.Targets(), left: make([]bool, n), buf: make([]int, n)}
	ps.lists[0] = make([]int, n)
	for i := range ps.lists[0] {
		ps.lists[0][i] = i
	}
	for col := range ps.cols {
		ps.cols[col] = ds.Column(col)
		ps.lists[col+1] = slices.Clone(ps.lists[0])
		sortByColumn(ps.cols[col], ps.lists[col+1])
	}
	return ps
}

// split stable-partitions the range [lo,hi) of every list into the rows
// whose attr is <= threshold, then the others, and returns where the others
// start.
func (ps *presorted) split(lo, hi, attr int, threshold float64) int {
	mid := lo
	for _, i := range ps.lists[0][lo:hi] {
		if ps.left[i] = ps.cols[attr][i] <= threshold; ps.left[i] {
			mid++
		}
	}
	for _, list := range ps.lists {
		w, right := lo, ps.buf[:0]
		for _, i := range list[lo:hi] {
			if ps.left[i] {
				list[w] = i
				w++
			} else {
				right = append(right, i)
			}
		}
		copy(list[w:hi], right)
	}
	return mid
}

// grow recursively builds the unpruned tree structure over the rows in the
// range [lo,hi) of ps.
func (t *Tree) grow(ds *dataset.Dataset, ps *presorted, lo, hi, depth int, globalSD float64) *node {
	idx := ps.lists[0][lo:hi]
	n := &node{n: len(idx), leaf: true, sd: stdDevTarget(ds, idx)}
	if len(idx) < 2*t.opts.MinInstances || depth >= t.opts.MaxDepth {
		return n
	}
	if n.sd <= t.opts.MinStdDevFraction*globalSD {
		return n
	}
	attr, threshold, ok := bestSplit(ps, lo, hi, n.sd, t.opts.MinInstances)
	if !ok {
		return n
	}
	// A rejected split leaves the range reordered, but a leaf's range is
	// never read again.
	mid := ps.split(lo, hi, attr, threshold)
	if mid-lo < t.opts.MinInstances || hi-mid < t.opts.MinInstances {
		return n
	}
	n.leaf, n.attr, n.threshold = false, attr, threshold
	n.left = t.grow(ds, ps, lo, mid, depth+1, globalSD)
	n.right = t.grow(ds, ps, mid, hi, depth+1, globalSD)
	return n
}

// fitModels attaches a linear model to every node (post-order) and returns
// the set of attribute columns tested anywhere in the node's subtree.
//
// Following M5 (Quinlan) and M5' (Wang & Witten), a node's linear model may
// only use the attributes that appear in split tests within its subtree:
// leaves therefore get intercept-only (constant) models, and the richer
// linear models live at interior nodes, becoming leaf models when pruning
// collapses their subtree. This restriction is what keeps M5P's leaves from
// extrapolating wildly on inputs outside the training distribution.
//
// The single exception is a tree that never split at all (tiny or constant
// training data): its lone node falls back to a plain linear model over all
// attributes, which is what a degenerate model tree is.
func (t *Tree) fitModels(ds *dataset.Dataset, n *node, idx []int, isRoot bool) (map[int]bool, error) {
	sub, err := ds.Subset(idx)
	if err != nil {
		return nil, fmt.Errorf("m5p: building node dataset: %w", err)
	}

	if n.leaf {
		var columns []int
		if isRoot {
			columns = nil // degenerate tree: use every attribute
		} else {
			columns = []int{} // constant model
		}
		n.model, err = linreg.Fit(sub, linreg.Options{
			EliminateAttrs: true,
			MaxAttrs:       t.opts.LeafMaxAttrs,
			Columns:        columns,
		})
		if err != nil {
			return nil, fmt.Errorf("m5p: fitting leaf model: %w", err)
		}
		return map[int]bool{}, nil
	}

	left, right := n.route(ds, idx)
	leftAttrs, err := t.fitModels(ds, n.left, left, false)
	if err != nil {
		return nil, err
	}
	rightAttrs, err := t.fitModels(ds, n.right, right, false)
	if err != nil {
		return nil, err
	}
	subtree := map[int]bool{n.attr: true}
	for a := range leftAttrs {
		subtree[a] = true
	}
	for a := range rightAttrs {
		subtree[a] = true
	}
	columns := make([]int, 0, len(subtree))
	for a := range subtree {
		columns = append(columns, a)
	}
	n.model, err = linreg.Fit(sub, linreg.Options{
		EliminateAttrs: true,
		MaxAttrs:       t.opts.LeafMaxAttrs,
		Columns:        columns,
	})
	if err != nil {
		return nil, fmt.Errorf("m5p: fitting node model: %w", err)
	}
	return subtree, nil
}

// route splits idx by n's test, keeping the order.
func (n *node) route(ds *dataset.Dataset, idx []int) (left, right []int) {
	for _, i := range idx {
		if ds.Value(i, n.attr) <= n.threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return left, right
}

// prune walks the tree bottom-up, replacing a subtree by its node model when
// the node model's estimated error is no worse than the subtree's estimated
// error. It returns the estimated error of (possibly pruned) n.
func (t *Tree) prune(ds *dataset.Dataset, n *node, idx []int) float64 {
	nodeErr := estimatedError(t.nodeModelMAE(ds, n, idx), len(idx), n.model.NumAttrs())
	if n.leaf {
		return nodeErr
	}
	left, right := n.route(ds, idx)
	leftErr := t.prune(ds, n.left, left)
	rightErr := t.prune(ds, n.right, right)
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

// nodeModelMAE computes the MAE of the node's linear model over the given
// instances.
func (t *Tree) nodeModelMAE(ds *dataset.Dataset, n *node, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	bm, err := n.model.Bind(t.attrs)
	if err != nil {
		// Fitted on this very schema, so an error is a bug: degrade
		// gracefully, scoring every prediction as the worst case.
		return math.Inf(1)
	}
	sum := 0.0
	for _, i := range idx {
		sum += math.Abs(bm.Predict(ds.Row(i)) - ds.TargetValue(i))
	}
	return sum / float64(len(idx))
}

// estimatedError applies M5's (n+v)/(n-v) pessimistic correction to a
// training error.
func estimatedError(mae float64, n, params int) float64 {
	v := params + 1
	if n <= v {
		return mae * 10 // heavily penalise models with more parameters than data
	}
	return mae * float64(n+v) / float64(n-v)
}

// bestSplit finds the (attribute, threshold) maximising SDR over the rows in
// the range [lo,hi) of ps, whose target standard deviation is parentSD.
// Shared logic with internal/regtree but kept local so the two packages stay
// independent (they are alternative models, not layers).
func bestSplit(ps *presorted, lo, hi int, parentSD float64, minInstances int) (attr int, threshold float64, ok bool) {
	if parentSD == 0 {
		return 0, 0, false
	}
	bestSDR := 0.0
	nTotal := float64(hi - lo)

	for col, list := range ps.lists[1:] {
		sorted := list[lo:hi]
		vals := ps.cols[col]

		var leftSum, leftSumSq float64
		var rightSum, rightSumSq float64
		for _, i := range sorted {
			v := ps.targets[i]
			rightSum += v
			rightSumSq += v * v
		}
		for pos := 0; pos < len(sorted)-1; pos++ {
			v := ps.targets[sorted[pos]]
			leftSum += v
			leftSumSq += v * v
			rightSum -= v
			rightSumSq -= v * v

			cur := vals[sorted[pos]]
			next := vals[sorted[pos+1]]
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

// sortByColumn sorts idx ascending by vals[idx[i]], equal values in
// ascending order of idx: for an ascending idx, the order of a stable sort.
func sortByColumn(vals []float64, idx []int) {
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(vals[a], vals[b]), cmp.Compare(a, b))
	})
}

func stdDevTarget(ds *dataset.Dataset, idx []int) float64 {
	if len(idx) < 2 {
		return 0
	}
	var sum, sumSq float64
	for _, i := range idx {
		v := ds.TargetValue(i)
		sum += v
		sumSq += v * v
	}
	return stdDevFromSums(sum, sumSq, len(idx))
}

func stdDevFromSums(sum, sumSq float64, n int) float64 {
	if n < 1 {
		return 0
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance)
}

// Predict returns the model tree's prediction for a row described by attrs.
// The schema may be wider or reordered relative to the training schema as
// long as every training attribute is present.
func (t *Tree) Predict(attrs []string, row []float64) (float64, error) {
	if len(attrs) != len(row) {
		return 0, fmt.Errorf("m5p: %d attribute names for %d values", len(attrs), len(row))
	}
	colOf, err := t.bindSchema(attrs)
	if err != nil {
		return 0, err
	}
	return t.predictNode(t.root, attrs, row, colOf)
}

func (t *Tree) bindSchema(attrs []string) ([]int, error) {
	colOf := make([]int, len(t.attrs))
	for j, name := range t.attrs {
		found := slices.Index(attrs, name)
		if found < 0 {
			return nil, fmt.Errorf("m5p: instance schema is missing attribute %q", name)
		}
		colOf[j] = found
	}
	return colOf, nil
}

// predictNode implements smoothed prediction: descend to the leaf, then
// filter the prediction back up through the ancestors' linear models.
func (t *Tree) predictNode(n *node, attrs []string, row []float64, colOf []int) (float64, error) {
	if n.leaf {
		return n.model.Predict(attrs, row)
	}
	child := n.right
	if row[colOf[n.attr]] <= n.threshold {
		child = n.left
	}
	childPred, err := t.predictNode(child, attrs, row, colOf)
	if err != nil {
		return 0, err
	}
	if t.opts.NoSmoothing {
		return childPred, nil
	}
	nodePred, err := n.model.Predict(attrs, row)
	if err != nil {
		return 0, err
	}
	k := t.opts.SmoothingK
	cn := float64(child.n)
	return (cn*childPred + k*nodePred) / (cn + k), nil
}

// Bind resolves the tree against the given row schema once and compiles it
// into the flattened array layout of BoundTree (see flat.go). The schema may
// be wider or reordered as long as every training attribute is present.
func (t *Tree) Bind(attrs []string) (*BoundTree, error) {
	colOf, err := t.bindSchema(attrs)
	if err != nil {
		return nil, err
	}
	b := &BoundTree{
		noSmoothing: t.opts.NoSmoothing,
		k:           t.opts.SmoothingK,
		width:       len(attrs),
	}
	if _, err := b.flatten(t.root, attrs, colOf, -1); err != nil {
		return nil, err
	}
	b.modelOff = append(b.modelOff, int32(len(b.coeffs)))
	// Bind only ever emits well-formed layouts; validating here guarantees
	// that invariant holds for every tree the hot path will walk, at a cost
	// paid once per binding, never per prediction.
	if err := b.validate(); err != nil {
		return nil, fmt.Errorf("m5p: flattened tree failed validation: %w", err)
	}
	return b, nil
}

// flatten appends n's subtree to the bound tree in preorder (children always
// at higher indices than their parent) and returns n's node index.
func (b *BoundTree) flatten(n *node, attrs []string, colOf []int, parent int32) (int32, error) {
	bm, err := n.model.Bind(attrs)
	if err != nil {
		return 0, err
	}
	i := int32(len(b.col))
	b.col = append(b.col, leafCol)
	b.threshold = append(b.threshold, 0)
	b.left = append(b.left, noChild)
	b.right = append(b.right, noChild)
	b.parent = append(b.parent, parent)
	b.n = append(b.n, float64(n.n))
	intercept, coeffs, cols := bm.Terms()
	b.intercept = append(b.intercept, intercept)
	b.modelOff = append(b.modelOff, int32(len(b.coeffs)))
	for j := range coeffs {
		b.coeffs = append(b.coeffs, coeffs[j])
		b.cols = append(b.cols, int32(cols[j]))
	}
	if n.leaf {
		return i, nil
	}
	b.col[i] = int32(colOf[n.attr])
	b.threshold[i] = n.threshold
	l, err := b.flatten(n.left, attrs, colOf, i)
	if err != nil {
		return 0, err
	}
	r, err := b.flatten(n.right, attrs, colOf, i)
	if err != nil {
		return 0, err
	}
	b.left[i] = l
	b.right[i] = r
	return i, nil
}

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int { return countLeaves(t.root) }

// InnerNodes returns the number of internal nodes.
func (t *Tree) InnerNodes() int { return countInner(t.root) }

// Depth returns the tree depth (a single leaf is depth 0).
func (t *Tree) Depth() int { return nodeDepth(t.root) }

// Attrs returns the training attribute names.
func (t *Tree) Attrs() []string { return append([]string(nil), t.attrs...) }

func countLeaves(n *node) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	return countLeaves(n.left) + countLeaves(n.right)
}

func countInner(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	return 1 + countInner(n.left) + countInner(n.right)
}

func nodeDepth(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := nodeDepth(n.left), nodeDepth(n.right)
	if l > r {
		return 1 + l
	}
	return 1 + r
}

// TopSplits returns the splits of the first maxDepth levels of the tree in
// breadth-first order. The paper inspects exactly these to hint at the root
// cause of the coming failure (e.g. "the root tests system memory; below
// 1306 MB the next test is Tomcat memory").
func (t *Tree) TopSplits(maxDepth int) []Split {
	var out []Split
	type queued struct {
		n     *node
		depth int
	}
	queue := []queued{{t.root, 0}}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		if q.n == nil || q.n.leaf || q.depth >= maxDepth {
			continue
		}
		out = append(out, Split{
			Attr:      t.attrs[q.n.attr],
			Threshold: q.n.threshold,
			Depth:     q.depth,
			Instances: q.n.n,
		})
		queue = append(queue, queued{q.n.left, q.depth + 1}, queued{q.n.right, q.depth + 1})
	}
	return out
}

// SplitAttributeCounts returns, for every attribute that appears in at least
// one split, the number of internal nodes testing it. Attributes that
// dominate the splits are the strongest root-cause candidates.
func (t *Tree) SplitAttributeCounts() map[string]int {
	counts := make(map[string]int)
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil || n.leaf {
			return
		}
		counts[t.attrs[n.attr]]++
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	return counts
}

// String renders the model tree in WEKA-like indented form, with the linear
// model of every leaf.
func (t *Tree) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "M5P model tree (%d inner nodes, %d leaves, %d training instances)\n",
		t.InnerNodes(), t.Leaves(), t.TrainingInstances)
	leafID := 0
	t.writeNode(&b, t.root, 0, &leafID)
	return b.String()
}

func (t *Tree) writeNode(b *strings.Builder, n *node, indent int, leafID *int) {
	pad := strings.Repeat("  ", indent)
	if n.leaf {
		*leafID++
		fmt.Fprintf(b, "%sLM%d (n=%d): %s = %s\n", pad, *leafID, n.n, "target", n.model.String())
		return
	}
	fmt.Fprintf(b, "%s%s <= %.6g (n=%d)\n", pad, t.attrs[n.attr], n.threshold, n.n)
	t.writeNode(b, n.left, indent+1, leafID)
	fmt.Fprintf(b, "%s%s > %.6g\n", pad, t.attrs[n.attr], n.threshold)
	t.writeNode(b, n.right, indent+1, leafID)
}
