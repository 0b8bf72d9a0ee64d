package mlmodel

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// flatForest is the fitted form of Tree, Forest and GBM: every node of every
// tree in one slice, with no per-tree object. The three families embed it and
// differ only in how the leaves a row reaches fold into its prediction (kind,
// base, scale), so their one kernel, PredictBatchDist, is written once.
//
// A leaf points at itself with both children. That lets the kernel walk a row
// any number of steps past a tree's depth with no "is this a leaf" test: a row
// that arrives early keeps stepping onto the same leaf. A leaf's threshold,
// which no walk needs, holds what the fold adds for it (indexFeatures), so
// the fold reads the node the walk has just loaded.
//
// A split names its feature by its index into cols, the ascending list of the
// features the forest's splits read (about half of a plan vector's cells for
// a served GBM). The kernel gathers just those cells of each row into a dense
// window and walks the window, so one kernel scores a row of any layout that
// lists where the used features it holds sit: a Schema-width row through
// wide, a row holding only some columns through a Specialize list.
type flatForest struct {
	nodes  []node       // what a walk reads: one load per step
	cols   []int32      // Schema column of used feature j; ascending
	wide   []gatherPair // the gather of a Schema-width row: feature j from column cols[j]
	value  []float64    // mean training target of the node; the estimate at a leaf
	spread []float64    // std of the node's training targets; entries past its end are 0
	root   []int32      // root of tree t; its nodes run up to the next tree's root
	depth  []int32      // edges on the longest root-to-leaf path of tree t

	kind  leafFold
	base  float64 // boosted: the estimate before the first round
	scale float64 // boosted: the learning rate; bagged: 1/trees
}

// node is one split, or a leaf pointing at itself: the 24 bytes a walk step
// reads, packed so a step costs one cache line rather than three arrays.
type node struct {
	thr  float64  // a row goes left when x[feat] <= thr; a leaf's fold term once the forest is complete
	feat int32    // split feature: index into cols (a Schema column while building); 0 on a leaf, whose compare is harmless
	kids [2]int32 // left and right child
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

	// lockstepTrees is how many trees a block walks at once (walk's lanes):
	// enough that one row alone keeps the processor busy, few enough that a
	// forest's last group wastes little on lanes with no tree.
	lockstepTrees = 8

	// gbmTailWindow is the number of trailing boosting rounds whose partial
	// sums form the GBM's virtual ensemble.
	gbmTailWindow = 16

	// maxColumns bounds the Schema columns a split reads, so that a gather
	// pair holds a window slot and a row column in 16 bits each.
	maxColumns = 1 << 16
)

// leaf appends a leaf to the tree under construction and returns its index.
func (f *flatForest) leaf(value float64) int32 {
	i := int32(len(f.value))
	f.nodes = append(f.nodes, node{kids: [2]int32{i, i}})
	f.value = append(f.value, value)
	return i
}

// split turns leaf i into an internal node.
func (f *flatForest) split(i, feat int32, thr float64, left, right int32) {
	f.nodes[i] = node{thr: thr, feat: feat, kids: [2]int32{left, right}}
}

// endTree closes the nodes appended since lo, the tree's root, as one tree
// and records its depth. Both children of a split lie after it inside the
// tree — what every builder emits and addTree demands of an artifact — so a
// walk can only move forward, and one forward pass finds the longest path.
// scratch is the caller's, reused across the trees of a forest.
func (f *flatForest) endTree(lo int32, scratch *[]int32) error {
	hi := int32(len(f.value))
	*scratch = slices.Grow((*scratch)[:0], int(hi-lo))[:hi-lo]
	level := *scratch // longest path from the root to each node
	clear(level)
	deepest := int32(0)
	for i := lo; i < hi; i++ {
		l, r := f.nodes[i].kids[0], f.nodes[i].kids[1]
		if l == i {
			continue
		}
		if c := f.nodes[i].feat; c >= maxColumns {
			return fmt.Errorf("mlmodel: a split reads column %d, limit %d", c, maxColumns-1)
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

// indexFeatures completes the forest. It turns the splits' features, Schema
// columns while the trees are built, into indices into cols, which it fills,
// and lists them as the gather of a Schema-width row (wide). It writes each
// leaf's fold term into the leaf's threshold: the leaf's value, times the
// learning rate for a GBM, rounded once, so every call adds the same product.
// Builders and loaders call it once, when the last tree is in; the nodes are
// rewritten in place.
func (f *flatForest) indexFeatures() {
	used := make([]int32, 0, len(f.nodes))
	for i, nd := range f.nodes {
		if nd.kids[0] != int32(i) {
			used = append(used, nd.feat)
		}
	}
	slices.Sort(used)
	f.cols = slices.Clone(slices.Compact(used))
	for i := range f.nodes {
		nd := &f.nodes[i]
		if nd.kids[0] == int32(i) {
			nd.thr = f.value[i]
			if f.kind == boosted {
				nd.thr = f.scale * f.value[i]
			}
			continue
		}
		j, _ := slices.BinarySearch(f.cols, nd.feat)
		nd.feat = int32(j)
	}
	f.wide = make([]gatherPair, len(f.cols))
	for j, c := range f.cols {
		f.wide[j] = gatherPair{slot: uint16(j), col: uint16(c)}
	}
}

// graft appends the finished trees of g to f, a forest still being built:
// their features go back to Schema columns.
func (f *flatForest) graft(g *flatForest) {
	off := int32(len(f.value))
	f.appendSpread(g.spread)
	f.value = append(f.value, g.value...)
	for i, nd := range g.nodes {
		if nd.kids[0] != int32(i) {
			nd.feat = g.cols[nd.feat]
		}
		nd.kids[0] += off
		nd.kids[1] += off
		f.nodes = append(f.nodes, nd)
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

// width returns the largest Schema column a split reads, plus one.
func (f *flatForest) width() int {
	if len(f.cols) == 0 {
		return 0
	}
	return int(f.cols[len(f.cols)-1]) + 1
}

// NumTrees returns the number of trees (boosting rounds, for a GBM).
func (f *flatForest) NumTrees() int { return len(f.depth) }

// NumNodes returns the node count over all trees.
func (f *flatForest) NumNodes() int { return len(f.value) }

// step moves one level down from node a for feature row x. The comparison is
// literally x[feat] <= thr, so NaN and ±Inf features go where the textbook
// walk sends them; the compiler turns the 0/1 choice into a flag-set rather
// than a jump, which keeps the walk free of unpredictable branches, and the
// mask spares the child's bounds check. Indexing unsigned spares a sign
// extension per load.
func step(nodes []node, x []float64, a int32) int32 {
	n := &nodes[uint32(a)]
	right := uint32(1)
	if x[uint32(n.feat)] <= n.thr {
		right = 0
	}
	return n.kids[right&1]
}

// walk advances every walk of at d levels, row r's lanes reading features
// from rows[r]: each level, every row steps once in every lane before any
// walk goes deeper, so the steps of one level are all independent. The eight
// lanes are written out: as a loop over them the kernel is half again slower.
func walk(nodes []node, rows [][]float64, at [][lockstepTrees]int32, d int32) {
	for ; d > 0; d-- {
		for r, x := range rows {
			a := &at[r]
			a[0], a[1], a[2], a[3] = step(nodes, x, a[0]), step(nodes, x, a[1]), step(nodes, x, a[2]), step(nodes, x, a[3])
			a[4], a[5], a[6], a[7] = step(nodes, x, a[4]), step(nodes, x, a[5]), step(nodes, x, a[6]), step(nodes, x, a[7])
		}
	}
}

// leafOf walks x down tree t alone, while the forest is built: its splits
// still read Schema columns of x.
func (f *flatForest) leafOf(t int, x []float64) int32 {
	a := f.root[t]
	for k := f.depth[t]; k > 0; k-- {
		a = step(f.nodes, x, a)
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
// v is the leaf's fold term, its threshold: what predict's mean-only fold adds.
func (f *flatForest) fold(a rowFold, t int, leaf int32, tailFrom int) rowFold {
	v := f.nodes[uint32(leaf)].thr
	switch f.kind {
	case single:
		a.sum, a.s1 = v, f.spreadAt(leaf)
	case bagged:
		a.sum += v
		a.s1 += v * v
	case boosted:
		a.sum += v
		if t >= tailFrom {
			a.s1 += a.sum
			a.s2 += a.sum * a.sum
		}
	}
	return a
}

// finish writes a row's fold over all trees out as row i's mean and spread.
func (f *flatForest) finish(a rowFold, tailFrom, i int, mean, spread []float64) {
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
// around the mean — for every row of X, a Schema-width row.
func (f *flatForest) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	f.predict(X, f.wide, mean, spread, lo, hi)
}

// predict is the kernel. pairs lists, in ascending slot order, the used
// features a row of X holds: feature slot (cols[slot]) is the row's cell col.
// A used feature the row does not hold reads 0.
//
// Rows go blockRows at a time through all trees, lockstepTrees trees at a
// time. A block's used features are first gathered into a dense window, one
// row of len(cols) cells per row of the block, and the walks read the window;
// the slots no pair writes are zeroed once per call.
// Every row of the block then advances one level in all of the group's trees
// before any walk goes deeper, so even a single row has lockstepTrees
// independent chains of dependent loads (node, feature, child) in flight, and
// a full block blockRows times as many. The walk runs to the group's deepest
// tree; shallower walks idle on their leaves. The leaves are then folded per
// row in tree order: a mean-only call of a GBM or a Forest (every call an
// Ensemble makes of its members) just adds the leaves' terms. A scalar
// Predict, a partial block and a full one all take this one path; the window
// is the one scratch off the stack (takeWindow).
func (f *flatForest) predict(X *Matrix, pairs []gatherPair, mean, spread, lo, hi []float64) {
	trees := len(f.depth)
	tailFrom := trees
	if f.kind == boosted && spread != nil {
		tailFrom = max(trees-gbmTailWindow, 0)
	}
	sumOnly := spread == nil && f.kind != single
	var (
		rows  [blockRows][]float64
		at    [blockRows][lockstepTrees]int32
		folds [blockRows]rowFold
		win   []float64
	)
	k := len(f.cols)
	if k > 0 && X.Rows > 0 {
		w := takeWindow(blockRows * k)
		defer putWindow(w)
		win = w.data
		if len(pairs) < k {
			clear(win[:min(blockRows, X.Rows)*k])
		}
	}
	for first := 0; first < X.Rows; first += blockRows {
		n := min(blockRows, X.Rows-first)
		for r := 0; r < n; r++ {
			rows[r] = win[r*k : (r+1)*k : (r+1)*k]
			gather(rows[r], X.Row(first+r), pairs)
			folds[r] = rowFold{sum: f.base}
		}
		for t := 0; t < trees; t += lockstepTrees {
			g := min(lockstepTrees, trees-t)
			var start [lockstepTrees]int32 // a lane with no tree walks tree 0, never folded
			copy(start[:], f.root[t:t+g])
			d := slices.Max(f.depth[t : t+g])
			for r := 0; r < n; r++ {
				at[r] = start
			}
			walk(f.nodes, rows[:n], at[:n], d)
			for r := 0; r < n; r++ {
				if sumOnly {
					s := folds[r].sum
					for _, leaf := range at[r][:g] {
						s += f.nodes[uint32(leaf)].thr
					}
					folds[r].sum = s
					continue
				}
				a := folds[r]
				for j, leaf := range at[r][:g] {
					a = f.fold(a, t+j, leaf, tailFrom)
				}
				folds[r] = a
			}
		}
		for r := 0; r < n; r++ {
			f.finish(folds[r], tailFrom, first+r, mean, spread)
		}
	}
	zBounds(X.Rows, mean, spread, lo, hi)
}

// gatherPair says that window slot slot takes the row's cell col.
type gatherPair struct{ slot, col uint16 }

// gather copies into w the cells of row x that pairs name; it writes no other
// slot.
func gather(w, x []float64, pairs []gatherPair) {
	for _, p := range pairs {
		w[p.slot] = x[p.col]
	}
}

// window is a kernel's scratch: cells, and a header for a matrix over them
// that a kernel hands to a model (an interface call, so the matrix escapes).
type window struct {
	data []float64
	m    Matrix
}

// windows holds the kernels' spare windows: a stack under a lock rather than
// a sync.Pool, whose items die with every other collection (and at random
// under the race detector), so that a kernel allocates a window only when
// more calls are in flight than ever before.
var windows struct {
	sync.Mutex
	free []*window
}

// takeWindow returns a spare window of at least n cells, or a new one.
func takeWindow(n int) *window {
	var w *window
	windows.Lock()
	if k := len(windows.free); k > 0 {
		w = windows.free[k-1]
		windows.free = windows.free[:k-1]
	}
	windows.Unlock()
	if w == nil {
		w = new(window)
	}
	if cap(w.data) < n {
		w.data = make([]float64, n)
	}
	w.data = w.data[:n]
	return w
}

// putWindow gives w back for the next call.
func putWindow(w *window) {
	windows.Lock()
	windows.free = append(windows.free, w)
	windows.Unlock()
}

// Specialize returns the forest as a scorer of rows that hold only the Schema
// columns cols, ascending and distinct (as an enumeration's live columns
// are), in that order: bit-identical to PredictBatchDist on the Schema-width
// row that holds the same cells and 0 in every other column. It shares the
// forest's nodes and owns the gather pairs of the used features the row
// holds; a feature the row lacks reads 0. A row column p holds Schema column
// cols[p] >= p, so it fits a pair wherever the column does.
func (f *flatForest) Specialize(cols []int) Model {
	for p, c := range cols {
		if c < 0 || p > 0 && c <= cols[p-1] {
			panic("mlmodel: Specialize needs ascending, distinct, non-negative columns")
		}
	}
	pairs := make([]gatherPair, 0, len(f.cols))
	p := 0
	for j, c := range f.cols {
		for p < len(cols) && cols[p] < int(c) {
			p++
		}
		if p < len(cols) && cols[p] == int(c) {
			pairs = append(pairs, gatherPair{slot: uint16(j), col: uint16(p)})
		}
	}
	return &compactForest{f, pairs}
}

// compactForest is a flat forest specialised to rows of some Schema columns
// (flatForest.Specialize): the forest's kernel, gathering through pairs.
type compactForest struct {
	f     *flatForest
	pairs []gatherPair
}

// PredictBatchDist is the forest's kernel on rows of the specialised columns.
func (c *compactForest) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	c.f.predict(X, c.pairs, mean, spread, lo, hi)
}

// Predict returns the estimate for x, a row of the specialised columns.
func (c *compactForest) Predict(x []float64) float64 { return predictOne(c, x)[0] }

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
