package robopt

// Benchmarks: the ablations called out in DESIGN.md that no table of the
// paper's evaluation reports. The tables and figures themselves, latency
// medians included, come from cmd/benchharness (internal/experiments.All).

import (
	"testing"

	"repro/internal/mlmodel"
	"repro/internal/platform"
	"repro/internal/simulator"
	"repro/internal/tdgen"
)

// BenchmarkAblationModel compares the prediction cost of four model families:
// the boosted trees the recipe fits and the three the paper tried (random
// forest, linear regression, MLP).
func BenchmarkAblationModel(b *testing.B) {
	ds, err := tdgen.Recipe{
		Size:      tdgen.SizeTiny,
		Platforms: platform.Subset(3),
		Avail:     platform.UniformAvailability(3),
		Cluster:   simulator.Default(),
	}.Dataset(0)
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
