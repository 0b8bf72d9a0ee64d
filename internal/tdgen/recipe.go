package tdgen

import (
	"fmt"

	"repro/internal/mlmodel"
	"repro/internal/platform"
	"repro/internal/simulator"
	"repro/internal/workload"
)

// Size picks a row of sizes. The zero value is the paper's setup.
type Size int

const (
	SizeFull  Size = iota // Section VII-A: templates of up to 50 operators; minutes of CPU
	SizeQuick             // Harness.Quick, roboptd -quick, the benchmark fixture; 9–13 s
	SizeTiny              // robopt.QuickTraining (examples, the facade's tests); about 2 s, poor quality
)

// sizes is the one place the training sizes are written (DESIGN.md deviation
// 20 says why there are three rows). The quick row is frozen: bench/fixture.go
// trains through it, so a changed number there moves every serving
// benchmark's plan_quality_x.
var sizes = [...]struct {
	draw             // one TDGen draw
	trees, depth int // one member's boosted trees
	members      int // independently drawn and fitted
}{
	SizeFull:  {draw{50, 24, 14, 10}, 300, 6, 3},
	SizeQuick: {draw{30, 10, 8, 8}, 150, 5, 2},
	SizeTiny:  {draw{20, 5, 6, 6}, 80, 5, 2},
}

// draw is the part of a size row one TDGen draw reads: the largest template,
// the templates per shape, the execution plans kept per logical plan (and as
// many uniform negatives), and the cardinality profiles per plan.
type draw struct{ maxOps, templates, plans, profiles int }

// Recipe is everything that decides which model gets trained: a size and the
// deployment it is trained for. It is the one way to configure a TDGen draw:
// the facade, the experiment harness, robopt and roboptd train through it and
// the tdgen command draws through it, so the same Recipe gives the same model
// everywhere.
type Recipe struct {
	Size      Size
	Platforms []platform.ID
	Avail     *platform.Availability
	// Cluster executes the generated jobs.
	Cluster *simulator.Cluster
	// SeedQueries is the workload the generated plans should resemble
	// (generation option (i) of Section VI). Empty means the evaluation
	// workload of Table II, each query drawn over its own size range.
	SeedQueries []workload.Query
}

// Dataset runs one TDGen draw. seedOffset varies it: Train gives every
// ensemble member its own offset, and 0 is member 0's dataset.
func (r Recipe) Dataset(seedOffset int64) (*mlmodel.Dataset, error) {
	if len(r.SeedQueries) == 0 {
		r.SeedQueries = workload.Catalog()
	}
	ds, _, err := newGenerator(r, sizes[r.Size].draw, 2020+seedOffset).generate()
	if err != nil {
		return nil, fmt.Errorf("tdgen: training data generation: %w", err)
	}
	return ds, nil
}

// Fit trains one ensemble member on ds: gradient-boosted trees on log targets
// (DESIGN.md; the paper's "one can plug any regression algorithm" is the
// extension point). It is also how a model is fitted on data the recipe did
// not draw — a tdgen CSV, merged feedback exports included — with offset 0.
func (s Size) Fit(ds *mlmodel.Dataset, seedOffset int64) (mlmodel.Model, error) {
	return mlmodel.LogTargetTrainer{Inner: mlmodel.GBMTrainer{Config: mlmodel.GBMConfig{
		Trees:    sizes[s].trees,
		MaxDepth: sizes[s].depth,
		LR:       0.1,
		MinLeaf:  5,
		Seed:     7 + seedOffset,
	}}}.Fit(ds)
}

// Train returns the recipe's model — an ensemble whose members are fitted on
// independently drawn datasets, because TDGen's draws are a real source of
// run-to-run variance and the optimizer's argmin over thousands of candidates
// amplifies single-model noise — and the number of rows it was fitted on.
func (r Recipe) Train() (mlmodel.Model, int, error) {
	var ensemble mlmodel.Ensemble
	rows := 0
	for i := int64(0); i < int64(sizes[r.Size].members); i++ {
		ds, err := r.Dataset(i * 101)
		if err != nil {
			return nil, 0, err
		}
		m, err := r.Size.Fit(ds, i*211)
		if err != nil {
			return nil, 0, err
		}
		ensemble.Models = append(ensemble.Models, m)
		rows += ds.Len()
	}
	return ensemble, rows, nil
}
