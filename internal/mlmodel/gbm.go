package mlmodel

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// GBMConfig controls gradient-boosted regression trees.
type GBMConfig struct {
	Trees    int     // boosting rounds (default 200)
	MaxDepth int     // per-tree depth (default 6)
	LR       float64 // shrinkage (default 0.1)
	MinLeaf  int     // minimum samples per leaf (default 5)
	Seed     int64
}

const (
	gbmSubsample = 0.8 // row fraction each round's tree is fitted on
	gbmMaxBins   = 128 // histogram bins per feature (at most 255: codes are uint8)
)

func (c GBMConfig) withDefaults() GBMConfig {
	if c.Trees <= 0 {
		c.Trees = 200
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 6
	}
	if c.LR <= 0 {
		c.LR = 0.1
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 5
	}
	return c
}

// GBM is a histogram-based gradient-boosted tree ensemble for squared-error
// regression. Boosting fits every round's tree on the residuals of the
// rounds before it, so secondary-but-decisive effects — which platform the
// heavy operator runs on — get modelled after the dominant drivers (input
// cardinality) are absorbed; bagged forests average those effects away into
// wide leaves, which plan *ranking* cannot tolerate. Split finding uses
// quantile histograms (the LightGBM approach): features are quantized to at
// most gbmMaxBins bins once per fit, making a split scan O(rows + bins) per
// feature instead of O(rows log rows). The estimate is the training mean
// plus lr·tree(x) round by round; the predictive spread is the std of the
// last gbmTailWindow partial sums — a model still moving in its final rounds
// is uncertain, one that has flattened out is confident.
type GBM struct{ flatForest }

// binner quantizes features to histogram bins via per-feature quantile cut
// points. bin b covers values in (edges[b-1], edges[b]]; values above the
// last edge land in the final bin.
type binner struct {
	// edges[f] holds ascending upper cut points; len ≤ gbmMaxBins-1.
	edges [][]float64
}

func newBinner(d *Dataset) *binner {
	nf := d.NumFeatures()
	b := &binner{edges: make([][]float64, nf)}
	vals := make([]float64, 0, d.Len())
	for f := 0; f < nf; f++ {
		// Plan-vector features are sparse: most cells are zero in most
		// rows. Compute quantile cuts over the nonzero values only
		// (plus one zero cut), so the informative tail gets the full
		// bin resolution instead of collapsing into one coarse bucket.
		vals = vals[:0]
		anyZero := false
		for _, row := range d.X {
			if v := row[f]; v != 0 {
				vals = append(vals, v)
			} else {
				anyZero = true
			}
		}
		if len(vals) == 0 {
			b.edges[f] = nil // constant zero feature
			continue
		}
		sort.Float64s(vals)
		var edges []float64
		if anyZero && vals[0] > 0 {
			edges = append(edges, 0)
		}
		cuts := gbmMaxBins - len(edges)
		for q := 1; q < cuts; q++ {
			v := vals[q*(len(vals)-1)/cuts]
			if len(edges) == 0 || v > edges[len(edges)-1] {
				edges = append(edges, v)
			}
		}
		// Drop a trailing cut equal to the maximum: it would create an
		// empty top bin.
		if len(edges) > 0 && edges[len(edges)-1] >= vals[len(vals)-1] {
			edges = edges[:len(edges)-1]
		}
		b.edges[f] = edges
	}
	return b
}

// code returns the bin index of value v for feature f.
func (b *binner) code(f int, v float64) uint8 {
	edges := b.edges[f]
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint8(lo)
}

// quantize builds the feature-major code matrix.
func (b *binner) quantize(d *Dataset) [][]uint8 {
	nf := d.NumFeatures()
	codes := make([][]uint8, nf)
	for f := 0; f < nf; f++ {
		col := make([]uint8, d.Len())
		for i, row := range d.X {
			col[i] = b.code(f, row[f])
		}
		codes[f] = col
	}
	return codes
}

// histBuilder grows one regression tree over quantized features.
type histBuilder struct {
	cfg    GBMConfig
	codes  [][]uint8
	bins   *binner
	resid  []float64
	sumBuf []float64 // gbmMaxBins scratch
	cntBuf []int32   // gbmMaxBins scratch
}

// build grows the subtree over rows and returns its node index in t.
func (hb *histBuilder) build(t *flatForest, rows []int32, depth int) int32 {
	sum := 0.0
	for _, r := range rows {
		sum += hb.resid[r]
	}
	node := t.leaf(sum / float64(len(rows)))
	if depth >= hb.cfg.MaxDepth || len(rows) < 2*hb.cfg.MinLeaf {
		return node
	}
	feat, bin, ok := hb.bestSplit(rows, sum)
	if !ok {
		return node
	}
	col := hb.codes[feat]
	var left, right []int32
	for _, r := range rows {
		if col[r] <= bin {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) < hb.cfg.MinLeaf || len(right) < hb.cfg.MinLeaf {
		return node
	}
	l := hb.build(t, left, depth+1)
	r := hb.build(t, right, depth+1)
	t.split(node, int32(feat), hb.bins.edges[feat][bin], l, r)
	return node
}

// splitCandidate is one feature's best histogram split.
type splitCandidate struct {
	gain float64
	feat int
	bin  uint8
	ok   bool
}

// bestSplit finds the (feature, bin) maximizing the gain
// sumL²/nL + sumR²/nR − sumTotal²/n over all histogram splits. A node with
// fewer than 32 features or 1024 rows is scanned in place; a larger one is
// cut into GOMAXPROCS feature chunks scanned concurrently. The split is the
// same either way: within a chunk and across chunks, strictly greater gain
// wins and equal gains resolve to the lowest feature index.
func (hb *histBuilder) bestSplit(rows []int32, total float64) (int, uint8, bool) {
	nf := len(hb.codes)
	if nf < 32 || len(rows) < 1024 {
		c := hb.scanFeatures(rows, total, 0, nf, hb.sumBuf, hb.cntBuf)
		return c.feat, c.bin, c.ok
	}
	procs := runtime.GOMAXPROCS(0)
	size := (nf + procs - 1) / procs
	results := make([]splitCandidate, (nf+size-1)/size)
	fanOut(len(results), func(w int) {
		lo := w * size
		results[w] = hb.scanFeatures(rows, total, lo, min(lo+size, nf),
			make([]float64, gbmMaxBins), make([]int32, gbmMaxBins))
	})
	best := splitCandidate{gain: 1e-12}
	for _, c := range results {
		// Chunks come in feature order, so keeping the first of equal
		// gains keeps the lowest feature index.
		if c.gain > best.gain {
			best = c
		}
	}
	return best.feat, best.bin, best.ok
}

// scanFeatures evaluates all splits of features [lo, hi) and returns the
// best candidate.
func (hb *histBuilder) scanFeatures(rows []int32, total float64, lo, hi int, sumBuf []float64, cntBuf []int32) splitCandidate {
	n := float64(len(rows))
	baseScore := total * total / n
	best := splitCandidate{gain: 1e-12}
	for f := lo; f < hi; f++ {
		edges := hb.bins.edges[f]
		if len(edges) == 0 {
			continue // constant feature
		}
		sums := sumBuf[:len(edges)+1]
		cnts := cntBuf[:len(edges)+1]
		for i := range sums {
			sums[i] = 0
			cnts[i] = 0
		}
		col := hb.codes[f]
		for _, r := range rows {
			c := col[r]
			sums[c] += hb.resid[r]
			cnts[c]++
		}
		var sumL float64
		var cntL int32
		for b := 0; b < len(edges); b++ {
			sumL += sums[b]
			cntL += cnts[b]
			cntR := int32(len(rows)) - cntL
			if int(cntL) < hb.cfg.MinLeaf || int(cntR) < hb.cfg.MinLeaf {
				continue
			}
			sumR := total - sumL
			gain := sumL*sumL/float64(cntL) + sumR*sumR/float64(cntR) - baseScore
			if gain > best.gain {
				best = splitCandidate{gain: gain, feat: f, bin: uint8(b), ok: true}
			}
		}
	}
	return best
}

// FitGBM trains gradient-boosted trees on d. Deterministic for a fixed seed.
func FitGBM(d *Dataset, cfg GBMConfig) (*GBM, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("mlmodel: cannot fit a GBM on an empty dataset")
	}
	cfg = cfg.withDefaults()
	n := d.Len()

	g := &GBM{flatForest{kind: boosted, scale: cfg.LR}}
	for _, y := range d.Y {
		g.base += y
	}
	g.base /= float64(n)

	bins := newBinner(d)
	codes := bins.quantize(d)

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = g.base
	}
	resid := make([]float64, n)
	rng := newRng(cfg.Seed)
	sampleSize := int(gbmSubsample * float64(n))
	if sampleSize < 1 {
		sampleSize = 1
	}
	hb := &histBuilder{
		cfg:    cfg,
		codes:  codes,
		bins:   bins,
		resid:  resid,
		sumBuf: make([]float64, gbmMaxBins),
		cntBuf: make([]int32, gbmMaxBins),
	}
	rows := make([]int32, 0, n)
	var level []int32 // endTree's scratch
	for round := 0; round < cfg.Trees; round++ {
		for i := 0; i < n; i++ {
			resid[i] = d.Y[i] - pred[i]
		}
		rows = rows[:0]
		if sampleSize >= n {
			for i := 0; i < n; i++ {
				rows = append(rows, int32(i))
			}
		} else {
			for i := 0; i < sampleSize; i++ {
				rows = append(rows, int32(rng.intn(n)))
			}
		}
		first := hb.build(&g.flatForest, rows, 0)
		if err := g.endTree(first, &level); err != nil {
			return nil, err
		}
		if g.NumNodes() == int(first)+1 && math.Abs(g.value[first]) < 1e-15 {
			// Residuals are exhausted; further rounds are no-ops.
			break
		}
		// Update running predictions on every training row (not only the
		// sampled ones) so the next round's residuals stay exact.
		for i := 0; i < n; i++ {
			pred[i] += cfg.LR * g.value[g.leafOf(round, d.X[i])]
		}
	}
	g.indexFeatures()
	return g, nil
}

// GBMTrainer adapts FitGBM to the Trainer interface.
type GBMTrainer struct{ Config GBMConfig }

// Fit trains a GBM on d.
func (t GBMTrainer) Fit(d *Dataset) (Model, error) { return FitGBM(d, t.Config) }
