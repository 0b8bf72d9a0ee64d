package mlmodel

import (
	"fmt"
	"math"
	"slices"
)

// flatForest is the fitted form of Tree, Forest and GBM: every node of every
// tree in one set of parallel slices, with no per-tree or per-node object.
// The three families embed it and differ only in how the leaves a row reaches
// fold into its prediction (kind, base, scale), so their one kernel,
// PredictBatchDist, is written once.
//
// A leaf points at itself with both children. That lets the kernel walk every
// row of tree t exactly depth[t] steps with no "is this a leaf" test: a row
// that arrives early keeps stepping onto the same leaf.
type flatForest struct {
	feat   []int32   // split feature; 0 on a leaf, whose compare is then harmless
	thr    []float64 // a row goes left when x[feat] <= thr
	kids   []int32   // kids[2i], kids[2i+1]: left and right child of node i
	value  []float64 // mean training target of the node; the estimate at a leaf
	spread []float64 // std of the node's training targets; entries past its end are 0
	root   []int32   // root of tree t; its nodes run up to the next tree's root
	depth  []int32   // edges on the longest root-to-leaf path of tree t

	kind  leafFold
	base  float64 // boosted: the estimate before the first round
	scale float64 // boosted: the learning rate; bagged: 1/trees
}

// leafFold says how a family folds the leaves one row reaches, in tree order.
type leafFold uint8

const (
	single  leafFold = iota // Tree: the one leaf's value, and its recorded spread
	bagged                  // Forest: (Σ leaf)·scale, spread = std of the leaves
	boosted                 // GBM: base, then += scale·leaf; spread = std of the last partial sums
)

const (
	// maxTreeDepth bounds depth[t], and so the steps a row can cost. FitTree's
	// "unlimited" depth stops here too: whatever a builder emits loads again.
	maxTreeDepth = 1024

	// blockRows is how many rows the kernel carries through all trees at a
	// time (the enumeration's chunk size): few enough that their features and
	// folds stay cached, enough that a tree's nodes are read once per block.
	blockRows = 16

	// gbmTailWindow is the number of trailing boosting rounds whose partial
	// sums form the GBM's virtual ensemble.
	gbmTailWindow = 16
)

// leaf appends a leaf to the tree under construction and returns its index.
func (f *flatForest) leaf(value float64) int32 {
	i := int32(len(f.value))
	f.feat = append(f.feat, 0)
	f.thr = append(f.thr, 0)
	f.kids = append(f.kids, i, i)
	f.value = append(f.value, value)
	return i
}

// split turns leaf i into an internal node.
func (f *flatForest) split(i, feat int32, thr float64, left, right int32) {
	f.feat[i], f.thr[i] = feat, thr
	f.kids[2*i], f.kids[2*i+1] = left, right
}

// endTree closes the nodes appended since lo, the tree's root, as one tree
// and records its depth. Both children of a split lie after it inside the
// tree — what every builder emits and addTree demands of an artifact — so a
// walk can only move forward, and one forward pass finds the longest path.
func (f *flatForest) endTree(lo int32) error {
	hi := int32(len(f.value))
	level := make([]int32, hi-lo) // longest path from the root to each node
	deepest := int32(0)
	for i := lo; i < hi; i++ {
		l, r := f.kids[2*i], f.kids[2*i+1]
		if l == i {
			continue
		}
		d := level[i-lo] + 1
		level[l-lo] = max(level[l-lo], d)
		level[r-lo] = max(level[r-lo], d)
		deepest = max(deepest, d)
	}
	if deepest > maxTreeDepth {
		return fmt.Errorf("mlmodel: tree is %d levels deep, limit %d", deepest, maxTreeDepth)
	}
	f.root = append(f.root, lo)
	f.depth = append(f.depth, deepest)
	return nil
}

// graft appends the finished trees of g to f.
func (f *flatForest) graft(g *flatForest) {
	off := int32(len(f.value))
	f.appendSpread(g.spread)
	f.feat = append(f.feat, g.feat...)
	f.thr = append(f.thr, g.thr...)
	f.value = append(f.value, g.value...)
	for _, k := range g.kids {
		f.kids = append(f.kids, off+k)
	}
	for _, r := range g.root {
		f.root = append(f.root, off+r)
	}
	f.depth = append(f.depth, g.depth...)
}

// appendSpread records s as the spreads of the nodes about to be appended.
// Spreads that are all zero (a GBM's, a legacy artifact's) are not stored.
func (f *flatForest) appendSpread(s []float64) {
	if slices.ContainsFunc(s, func(v float64) bool { return v != 0 }) {
		f.spread = append(append(f.spread, make([]float64, len(f.value)-len(f.spread))...), s...)
	}
}

// spreadAt returns the training-target std recorded at node i.
func (f *flatForest) spreadAt(i int32) float64 {
	if int(i) < len(f.spread) {
		return f.spread[i]
	}
	return 0
}

// width returns max split-feature index + 1 over the forest's nodes.
func (f *flatForest) width() int {
	w := 0
	for i, ft := range f.feat {
		if f.kids[2*i] != int32(i) && int(ft) >= w {
			w = int(ft) + 1
		}
	}
	return w
}

// NumTrees returns the number of trees (boosting rounds, for a GBM).
func (f *flatForest) NumTrees() int { return len(f.depth) }

// NumNodes returns the node count over all trees.
func (f *flatForest) NumNodes() int { return len(f.value) }

// step moves one level down from node a for feature row x. The comparison is
// literally x[feat] <= thr, so NaN and ±Inf features go where the textbook
// walk sends them; the compiler turns the 0/1 choice into a flag-set rather
// than a jump, which keeps the walk free of unpredictable branches. Indexing
// unsigned spares a sign extension per load, 7% of the kernel's time.
func (f *flatForest) step(x []float64, a int32) int32 {
	i, right := uint32(a), uint32(1)
	if x[uint32(f.feat[i])] <= f.thr[i] {
		right = 0
	}
	return f.kids[2*i+right]
}

// walk4 advances four independent walks k levels at once, walk i standing on
// node at[i] and reading features from x[i]. One walk is a chain of dependent
// loads (node, feature, child); four interleaved keep the processor busy while
// each waits. Extra levels are harmless: a walk that has reached its leaf
// stays there.
func (f *flatForest) walk4(x *[4][]float64, at *[4]int32, k int32) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	a0, a1, a2, a3 := at[0], at[1], at[2], at[3]
	for ; k > 0; k-- {
		a0 = f.step(x0, a0)
		a1 = f.step(x1, a1)
		a2 = f.step(x2, a2)
		a3 = f.step(x3, a3)
	}
	at[0], at[1], at[2], at[3] = a0, a1, a2, a3
}

// leafOf walks x down tree t alone.
func (f *flatForest) leafOf(t int, x []float64) int32 {
	a := f.root[t]
	for k := f.depth[t]; k > 0; k-- {
		a = f.step(x, a)
	}
	return a
}

// rowFold is one row's fold over the trees walked so far.
type rowFold struct {
	sum float64 // running estimate
	s1  float64 // single: leaf spread; bagged: Σ leaf²; boosted: Σ of the tail's partial sums
	s2  float64 // boosted: Σ (partial sum)² over the tail
}

// fold adds the leaf a row reached in tree t. Trees must arrive in order: the
// sum is built exactly as the family's definition reads (base, then += lr·leaf
// round by round; Σ leaf, scaled at the end), so a row's estimate depends on
// neither the batch it arrives in nor on whether spread was asked for.
// tailFrom is the first boosting round whose partial sum feeds the spread.
func (f *flatForest) fold(a *rowFold, t int, leaf int32, tailFrom int) {
	v := f.value[leaf]
	switch f.kind {
	case single:
		a.sum, a.s1 = v, f.spreadAt(leaf)
	case bagged:
		a.sum += v
		a.s1 += v * v
	case boosted:
		a.sum += f.scale * v
		if t >= tailFrom {
			a.s1 += a.sum
			a.s2 += a.sum * a.sum
		}
	}
}

// finish writes a row's fold over all trees out as row i's mean and spread.
func (f *flatForest) finish(a *rowFold, tailFrom, i int, mean, spread []float64) {
	m, s := a.sum, a.s1
	switch f.kind {
	case bagged:
		m *= f.scale
		s = stdFromSums(m, s*f.scale)
	case boosted:
		if k := float64(len(f.depth) - tailFrom); k > 0 {
			s = stdFromSums(s/k, a.s2/k)
		}
	}
	mean[i] = m
	if spread != nil {
		spread[i] = s
	}
}

// PredictBatchDist is the one inference kernel of the tree families. It fills
// mean — and, unless spread is nil, the family's spread and the z-interval
// around the mean — for every row of X.
//
// Full groups of four rows go tree-major, blockRows rows at a time: the
// block's features and folds stay cached while each tree's nodes are read
// once per block, and the four rows of a group are the four walks of walk4.
// The last one to three rows have no partners, so each walks four trees at a
// time instead (a scalar Predict is this case). Either way every row meets
// the trees in order. All scratch lives on the stack.
func (f *flatForest) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	trees := len(f.depth)
	tailFrom := trees
	if f.kind == boosted && spread != nil {
		tailFrom = max(trees-gbmTailWindow, 0)
	}
	var (
		rows  [blockRows / 4][4][]float64
		folds [blockRows]rowFold
	)
	grouped := X.Rows &^ 3
	for lo := 0; lo < grouped; lo += blockRows {
		n := min(blockRows, grouped-lo)
		for r := 0; r < n; r++ {
			rows[r/4][r%4] = X.Row(lo + r)
			folds[r] = rowFold{sum: f.base}
		}
		for t, d := range f.depth {
			root := f.root[t]
			for r := 0; r < n; r += 4 {
				at := [4]int32{root, root, root, root}
				f.walk4(&rows[r/4], &at, d)
				for i, leaf := range at {
					f.fold(&folds[r+i], t, leaf, tailFrom)
				}
			}
		}
		for r := 0; r < n; r++ {
			f.finish(&folds[r], tailFrom, lo+r, mean, spread)
		}
	}
	for r := grouped; r < X.Rows; r++ {
		x := X.Row(r)
		x4 := [4][]float64{x, x, x, x}
		a := rowFold{sum: f.base}
		t := 0
		for ; t+4 <= trees; t += 4 {
			at := [4]int32(f.root[t : t+4])
			f.walk4(&x4, &at, max(f.depth[t], f.depth[t+1], f.depth[t+2], f.depth[t+3]))
			for i, leaf := range at {
				f.fold(&a, t+i, leaf, tailFrom)
			}
		}
		for ; t < trees; t++ {
			f.fold(&a, t, f.leafOf(t, x), tailFrom)
		}
		f.finish(&a, tailFrom, r, mean, spread)
	}
	zBounds(X.Rows, mean, spread, lo, hi)
}

// stdFromSums returns the population std given the mean and the mean of
// squares, clamping the rounding-induced negative variance to zero.
func stdFromSums(mu, meanSq float64) float64 {
	v := meanSq - mu*mu
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Predict returns the estimate for feature vector x: a batch of one.
func (f *flatForest) Predict(x []float64) float64 { return predictOne(f, x)[0] }
