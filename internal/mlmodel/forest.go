package mlmodel

import "fmt"

// ForestConfig controls random-forest training.
type ForestConfig struct {
	Trees    int   // number of trees (default 50)
	MaxDepth int   // per-tree depth cap (default 16)
	Seed     int64 // master seed; tree i uses Seed + i deterministically
}

// forestMinLeaf is every tree's minimum leaf size.
const forestMinLeaf = 2

func (c ForestConfig) withDefaults() ForestConfig {
	if c.Trees <= 0 {
		c.Trees = 50
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 16
	}
	return c
}

// Forest is a bagged ensemble of CART regression trees — the model the
// paper found most robust for runtime prediction. Prediction is the mean of
// the trees' estimates (summed in tree order, then scaled by 1/trees); the
// predictive spread is the trees' disagreement.
type Forest struct{ flatForest }

// newForest joins fitted trees, in order, into one forest.
func newForest(trees []*Tree) *Forest {
	f := &Forest{flatForest{kind: bagged, scale: 1 / float64(len(trees))}}
	for _, t := range trees {
		f.graft(&t.flatForest)
	}
	f.indexFeatures()
	return f
}

// FitForest trains a random forest on d: each tree sees a bootstrap sample
// of the rows and a random third of the features (at least one) per split.
// The trees are fitted concurrently; the forest is the same at any
// GOMAXPROCS, because every tree derives its own generator from Seed+i.
func FitForest(d *Dataset, cfg ForestConfig) (*Forest, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("mlmodel: cannot fit a forest on an empty dataset")
	}
	cfg = cfg.withDefaults()
	maxFeatures := max(d.NumFeatures()/3, 1)
	trees := make([]*Tree, cfg.Trees)
	errs := make([]error, cfg.Trees)
	fanOut(cfg.Trees, func(i int) {
		rng := newRng(cfg.Seed + int64(i)*7919)
		boot := &Dataset{X: make([][]float64, d.Len()), Y: make([]float64, d.Len())}
		for j := range boot.X {
			k := rng.intn(d.Len())
			boot.X[j] = d.X[k]
			boot.Y[j] = d.Y[k]
		}
		trees[i], errs[i] = FitTree(boot, TreeConfig{
			MaxDepth:    cfg.MaxDepth,
			MinLeaf:     forestMinLeaf,
			MaxFeatures: maxFeatures,
			Seed:        cfg.Seed + int64(i)*104729,
		})
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return newForest(trees), nil
}

// ForestTrainer adapts FitForest to the Trainer interface.
type ForestTrainer struct{ Config ForestConfig }

// Fit trains a forest on d.
func (t ForestTrainer) Fit(d *Dataset) (Model, error) { return FitForest(d, t.Config) }
