package mlmodel

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// TreeConfig controls CART regression-tree induction.
type TreeConfig struct {
	MaxDepth    int // 0 means as deep as the fitted form allows (maxTreeDepth)
	MinLeaf     int // minimum samples per leaf (default 1)
	MaxFeatures int // features considered per split; 0 means all
	Seed        int64
}

// treeMinSplit is the fewest samples a node needs for a split to be tried.
const treeMinSplit = 2

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth <= 0 || c.MaxDepth > maxTreeDepth {
		c.MaxDepth = maxTreeDepth
	}
	if c.MinLeaf < 1 {
		c.MinLeaf = 1
	}
	return c
}

// Tree is a fitted CART regression tree predicting the mean target of the
// training rows that reach each leaf. Splits minimize the weighted sum of
// child variances (equivalently maximize variance reduction). Every node
// records the population std of the training targets that reached it; the
// leaf's is the tree's local predictive uncertainty (PredictBatchDist), zero
// on trees loaded from artifacts that predate the field.
type Tree struct{ flatForest }

// treeBuilder carries the induction state.
type treeBuilder struct {
	cfg  TreeConfig
	d    *Dataset
	rng  *rngSource
	feat []int // feature index scratch for subsampling
}

// rngSource is a tiny splitmix64 generator: deterministic, allocation-free,
// and independent of math/rand's global state.
type rngSource struct{ s uint64 }

func newRng(seed int64) *rngSource {
	return &rngSource{s: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *rngSource) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rngSource) intn(n int) int { return int(r.next() % uint64(n)) }

// fanOut runs job(0), …, job(n−1) on up to GOMAXPROCS goroutines and returns
// when all have finished. Job i writes only slot i of what the caller
// collects, so the result does not depend on how the jobs were scheduled.
func fanOut(n int, job func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				job(i)
			}
		}()
	}
	wg.Wait()
}

// FitTree fits a CART regression tree on d.
func FitTree(d *Dataset, cfg TreeConfig) (*Tree, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("mlmodel: cannot fit a tree on an empty dataset")
	}
	cfg = cfg.withDefaults()
	b := &treeBuilder{cfg: cfg, d: d, rng: newRng(cfg.Seed)}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{flatForest{kind: single}}
	var level []int32
	if err := t.endTree(b.build(&t.flatForest, idx, 0), &level); err != nil {
		return nil, err
	}
	t.indexFeatures()
	return t, nil
}

// build grows the subtree over rows idx and returns its node index.
func (b *treeBuilder) build(t *flatForest, idx []int, depth int) int32 {
	mu := mean(b.d.Y, idx)
	node := t.leaf(mu)
	t.spread = append(t.spread, stddev(b.d.Y, idx, mu))
	if len(idx) < treeMinSplit || depth >= b.cfg.MaxDepth || constantTarget(b.d.Y, idx) {
		return node
	}
	feat, thr, ok := b.bestSplit(idx)
	if !ok {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if b.d.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		return node
	}
	l := b.build(t, left, depth+1)
	r := b.build(t, right, depth+1)
	t.split(node, int32(feat), thr, l, r)
	return node
}

// bestSplit finds the (feature, threshold) with the lowest weighted child
// sum-of-squares over a random feature subset of size MaxFeatures.
func (b *treeBuilder) bestSplit(idx []int) (feature int, threshold float64, ok bool) {
	nf := b.d.NumFeatures()
	b.feat = b.feat[:0]
	for f := 0; f < nf; f++ {
		b.feat = append(b.feat, f)
	}
	if b.cfg.MaxFeatures > 0 && b.cfg.MaxFeatures < nf {
		// Partial Fisher-Yates: choose MaxFeatures distinct features.
		for i := 0; i < b.cfg.MaxFeatures; i++ {
			j := i + b.rng.intn(nf-i)
			b.feat[i], b.feat[j] = b.feat[j], b.feat[i]
		}
		b.feat = b.feat[:b.cfg.MaxFeatures]
	}

	type pair struct{ x, y float64 }
	pairs := make([]pair, len(idx))
	bestScore := math.Inf(1)
	for _, f := range b.feat {
		for i, row := range idx {
			pairs[i] = pair{b.d.X[row][f], b.d.Y[row]}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].x < pairs[j].x })
		// Prefix sums enable O(1) variance evaluation per split point.
		var sumL, sqL float64
		var sumR, sqR float64
		for _, p := range pairs {
			sumR += p.y
			sqR += p.y * p.y
		}
		n := float64(len(pairs))
		for i := 0; i < len(pairs)-1; i++ {
			y := pairs[i].y
			sumL += y
			sqL += y * y
			sumR -= y
			sqR -= y * y
			if pairs[i].x == pairs[i+1].x {
				continue // cannot split between equal values
			}
			nl := float64(i + 1)
			nr := n - nl
			if int(nl) < b.cfg.MinLeaf || int(nr) < b.cfg.MinLeaf {
				continue
			}
			// Weighted child SSE = Σy² - (Σy)²/n per side.
			score := (sqL - sumL*sumL/nl) + (sqR - sumR*sumR/nr)
			if score < bestScore {
				bestScore = score
				feature = f
				threshold = (pairs[i].x + pairs[i+1].x) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

func mean(y []float64, idx []int) float64 {
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

// stddev returns the population standard deviation of y over idx around mu.
func stddev(y []float64, idx []int, mu float64) float64 {
	s := 0.0
	for _, i := range idx {
		d := y[i] - mu
		s += d * d
	}
	return math.Sqrt(s / float64(len(idx)))
}

func constantTarget(y []float64, idx []int) bool {
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] {
			return false
		}
	}
	return true
}
