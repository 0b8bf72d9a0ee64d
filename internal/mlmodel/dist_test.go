package mlmodel_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mlmodel"
	"repro/internal/vecops"
)

// distFamilies fits one model of every family on a shared synthetic dataset.
func distFamilies(t *testing.T, nf int) []struct {
	name string
	m    mlmodel.Model
} {
	t.Helper()
	d := synthDataset(250, nf, 17, batchTarget, 0.2)
	fit := func(name string, tr mlmodel.Trainer) mlmodel.Model {
		t.Helper()
		m, err := tr.Fit(d)
		if err != nil {
			t.Fatalf("fit %s: %v", name, err)
		}
		return m
	}
	gbm := fit("gbm", mlmodel.GBMTrainer{Config: mlmodel.GBMConfig{Trees: 25, MaxDepth: 3, Seed: 5}})
	linear := fit("linear", mlmodel.LinearTrainer{})
	tree, err := mlmodel.FitTree(d, mlmodel.TreeConfig{MaxDepth: 5})
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	return []struct {
		name string
		m    mlmodel.Model
	}{
		{"Tree", tree},
		{"Forest", fit("forest", mlmodel.ForestTrainer{Config: mlmodel.ForestConfig{Trees: 15, Seed: 3}})},
		{"GBM", gbm},
		{"Linear", linear},
		{"MLP", fit("mlp", mlmodel.MLPTrainer{Config: mlmodel.MLPConfig{Hidden: 8, Epochs: 10, Seed: 7}})},
		{"Ensemble", mlmodel.Ensemble{Models: []mlmodel.Model{gbm, linear}}},
		{"LogTarget", fit("logtarget", mlmodel.LogTargetTrainer{Inner: mlmodel.GBMTrainer{Config: mlmodel.GBMConfig{Trees: 10, MaxDepth: 3, Seed: 9}}})},
	}
}

// TestDistMeanBitParity is the distributional contract's core invariant: for
// every family, PredictBatchDist's mean column is BIT-identical to
// PredictBatch (the optimizer's λ=0 parity depends on it), spreads are
// nonnegative and finite, and lo ≤ mean ≤ hi holds row-wise.
func TestDistMeanBitParity(t *testing.T) {
	const nf = 8
	rng := rand.New(rand.NewSource(42))
	for _, fam := range distFamilies(t, nf) {
		dm, ok := fam.m.(mlmodel.BatchDistModel)
		if !ok {
			t.Errorf("%s does not implement BatchDistModel natively", fam.name)
			continue
		}
		bm := fam.m.(mlmodel.BatchModel)
		for _, rows := range []int{0, 1, 5, 33, 128} {
			X := vecops.NewMatrix(rows, nf)
			for i := range X.Data {
				X.Data[i] = rng.Float64() * 10
			}
			point := make([]float64, rows)
			mean := make([]float64, rows)
			spread := make([]float64, rows)
			lo := make([]float64, rows)
			hi := make([]float64, rows)
			bm.PredictBatch(X, point)
			dm.PredictBatchDist(X, mean, spread, lo, hi)
			for i := 0; i < rows; i++ {
				if mean[i] != point[i] {
					t.Fatalf("%s rows=%d row %d: dist mean %v != point %v (must be bit-identical)",
						fam.name, rows, i, mean[i], point[i])
				}
				if spread[i] < 0 || math.IsNaN(spread[i]) || math.IsInf(spread[i], 0) {
					t.Fatalf("%s rows=%d row %d: invalid spread %v", fam.name, rows, i, spread[i])
				}
				if lo[i] > mean[i] || hi[i] < mean[i] {
					t.Fatalf("%s rows=%d row %d: interval [%v, %v] does not bracket mean %v",
						fam.name, rows, i, lo[i], hi[i], mean[i])
				}
			}
		}
	}
}

// TestDistPersistRoundTrip checks the uncertainty state survives the
// persistence envelope: per-leaf spreads (tree families) and residual stds
// (Linear, MLP) round-trip exactly, so a reloaded artifact reports the same
// predictive distribution.
func TestDistPersistRoundTrip(t *testing.T) {
	const nf = 8
	rng := rand.New(rand.NewSource(11))
	for _, fam := range distFamilies(t, nf) {
		back := roundTrip(t, fam.m)
		a := fam.m.(mlmodel.BatchDistModel)
		b, ok := back.(mlmodel.BatchDistModel)
		if !ok {
			t.Errorf("%s: round-tripped model %T lost BatchDistModel", fam.name, back)
			continue
		}
		for trial := 0; trial < 10; trial++ {
			x := make([]float64, nf)
			for i := range x {
				x[i] = rng.Float64() * 10
			}
			X := vecops.Matrix{Data: x, Rows: 1, Cols: nf}
			var m1, s1, l1, h1, m2, s2, l2, h2 [1]float64
			a.PredictBatchDist(&X, m1[:], s1[:], l1[:], h1[:])
			b.PredictBatchDist(&X, m2[:], s2[:], l2[:], h2[:])
			if m1 != m2 || s1 != s2 || l1 != l2 || h1 != h2 {
				t.Fatalf("%s: distribution changed across round trip: (%v %v %v %v) -> (%v %v %v %v)",
					fam.name, m1[0], s1[0], l1[0], h1[0], m2[0], s2[0], l2[0], h2[0])
			}
		}
	}
}

// TestDistBatcherPointOnly checks the adapter for point-only models: the
// distribution collapses to the mean (zero spread, lo = hi = mean) and the
// mean matches the scalar path.
func TestDistBatcherPointOnly(t *testing.T) {
	dm := mlmodel.DistBatcher(scalarOnly{})
	X := vecops.NewMatrix(3, 2)
	copy(X.Data, []float64{1, 0, 2.5, 0, -4, 0})
	mean := make([]float64, 3)
	spread := make([]float64, 3)
	lo := make([]float64, 3)
	hi := make([]float64, 3)
	dm.PredictBatchDist(X, mean, spread, lo, hi)
	for i, want := range []float64{3, 6, -7} {
		if mean[i] != want {
			t.Errorf("row %d: mean %v, want %v", i, mean[i], want)
		}
		if spread[i] != 0 || lo[i] != mean[i] || hi[i] != mean[i] {
			t.Errorf("row %d: point-only adapter leaked uncertainty: spread=%v lo=%v hi=%v",
				i, spread[i], lo[i], hi[i])
		}
	}
}
