package robopt

// Benchmarks: the ablations called out in DESIGN.md that no table of the
// paper's evaluation reports. The tables and figures themselves, latency
// medians included, come from cmd/benchharness (internal/experiments.All).

import (
	"strconv"
	"testing"

	"repro/internal/mlmodel"
	"repro/internal/platform"
	"repro/internal/simulator"
	"repro/internal/tdgen"
)

// BenchmarkAblationModel compares the prediction cost of the three model
// families the paper tried (random forest, linear regression, MLP).
func BenchmarkAblationModel(b *testing.B) {
	cluster := simulator.Default()
	cfg := tdgen.Config{
		Shapes:            []tdgen.Shape{tdgen.ShapePipeline, tdgen.ShapeLoop},
		MaxOps:            16,
		TemplatesPerShape: 4,
		PlansPerTemplate:  5,
		Profiles:          5,
		Platforms:         platform.Subset(3),
		Avail:             platform.UniformAvailability(3),
		Seed:              1,
	}
	ds, _, err := tdgen.New(cfg, cluster).Generate()
	if err != nil {
		b.Fatal(err)
	}
	models := []struct {
		name    string
		trainer mlmodel.Trainer
	}{
		{"GBM", mlmodel.GBMTrainer{Config: mlmodel.GBMConfig{Trees: 100, Seed: 2}}},
		{"Forest", mlmodel.ForestTrainer{Config: mlmodel.ForestConfig{Trees: 24, Seed: 2}}},
		{"Linear", mlmodel.LinearTrainer{}},
		{"MLP", mlmodel.MLPTrainer{Config: mlmodel.MLPConfig{Epochs: 10, Seed: 3}}},
	}
	x := ds.X[0]
	for _, mc := range models {
		m, err := mc.trainer.Fit(ds)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Predict(x)
			}
		})
	}
}

// BenchmarkAblationBeta measures TDGen's plan enumeration with and without
// the platform-switch pruning.
func BenchmarkAblationBeta(b *testing.B) {
	cluster := simulator.Default()
	for _, beta := range []int{1, 3, 100} {
		cfg := tdgen.Config{
			Shapes:            []tdgen.Shape{tdgen.ShapePipeline},
			MaxOps:            10,
			TemplatesPerShape: 2,
			PlansPerTemplate:  6,
			Profiles:          4,
			Beta:              beta,
			Platforms:         platform.Subset(3),
			Avail:             platform.UniformAvailability(3),
			Seed:              4,
		}
		b.Run("beta="+strconv.Itoa(beta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := tdgen.New(cfg, cluster).Generate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
