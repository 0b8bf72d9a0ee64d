package mlmodel

import (
	"fmt"
	"runtime"
	"sync"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	Trees       int   // number of trees (default 50)
	MaxDepth    int   // per-tree depth cap (default 16)
	MinLeaf     int   // per-tree minimum leaf size (default 2)
	MaxFeatures int   // features per split; 0 means NumFeatures/3, min 1
	Seed        int64 // master seed; tree i uses Seed + i deterministically
	Parallel    bool  // fit trees across GOMAXPROCS goroutines
}

func (c ForestConfig) withDefaults(numFeatures int) ForestConfig {
	if c.Trees <= 0 {
		c.Trees = 50
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 16
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.MaxFeatures <= 0 {
		c.MaxFeatures = numFeatures / 3
		if c.MaxFeatures < 1 {
			c.MaxFeatures = 1
		}
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
// of the rows and a random MaxFeatures-subset of features per split.
// Training is deterministic for a fixed Seed regardless of Parallel, because
// every tree derives its own generator from Seed+i.
func FitForest(d *Dataset, cfg ForestConfig) (*Forest, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("mlmodel: cannot fit a forest on an empty dataset")
	}
	cfg = cfg.withDefaults(d.NumFeatures())
	trees := make([]*Tree, cfg.Trees)

	fitOne := func(i int) error {
		rng := newRng(cfg.Seed + int64(i)*7919)
		boot := &Dataset{X: make([][]float64, d.Len()), Y: make([]float64, d.Len())}
		for j := range boot.X {
			k := rng.intn(d.Len())
			boot.X[j] = d.X[k]
			boot.Y[j] = d.Y[k]
		}
		t, err := FitTree(boot, TreeConfig{
			MaxDepth:    cfg.MaxDepth,
			MinLeaf:     cfg.MinLeaf,
			MaxFeatures: cfg.MaxFeatures,
			Seed:        cfg.Seed + int64(i)*104729,
		})
		if err != nil {
			return err
		}
		trees[i] = t
		return nil
	}

	if !cfg.Parallel {
		for i := 0; i < cfg.Trees; i++ {
			if err := fitOne(i); err != nil {
				return nil, err
			}
		}
		return newForest(trees), nil
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > cfg.Trees {
		workers = cfg.Trees
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fitOne(i); err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < cfg.Trees; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if ferr != nil {
		return nil, ferr
	}
	return newForest(trees), nil
}

// ForestTrainer adapts FitForest to the Trainer interface.
type ForestTrainer struct{ Config ForestConfig }

// Fit trains a forest on d.
func (t ForestTrainer) Fit(d *Dataset) (Model, error) { return FitForest(d, t.Config) }
