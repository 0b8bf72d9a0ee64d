package mlmodel_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mlmodel"
	"repro/internal/vecops"
)

// batchTarget is a mildly nonlinear regression target exercising splits and
// interactions in the tree families.
func batchTarget(x []float64) float64 {
	return 3*x[0] + x[1]*x[2] + math.Abs(x[3]-5) + 0.5*x[4]
}

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

// TestDistMeanBitParity is the one prediction contract, checked for every
// family: Predict(row), the kernel's mean with nil spread columns and its mean
// with them are bit-identical (the optimizer's λ=0 parity depends on it), the
// spread is nonnegative and finite, and lo ≤ mean ≤ hi. All four columns are
// bit-equal to the family's test-only reference (flat_test.go): the reference
// walk for the tree families and their wrappers, and for the MLP its former
// row-major forward pass, the one its hidden-unit-major kernel was checked
// against. The batch sizes straddle the flat forest's four-row groups and its
// blocks, which take different paths through the kernel.
func TestDistMeanBitParity(t *testing.T) {
	const nf = 8
	rng := rand.New(rand.NewSource(42))
	for _, fam := range distFamilies(t, nf) {
		ref := refFromArtifact(t, saveBytes(t, fam.m))
		for _, rows := range []int{0, 1, 3, 4, 5, mlmodel.BlockRows, mlmodel.BlockRows + 1} {
			X := vecops.NewMatrix(rows, nf)
			for i := range X.Data {
				X.Data[i] = rng.Float64() * 10
			}
			point := make([]float64, rows)
			mean := make([]float64, rows)
			spread := make([]float64, rows)
			lo := make([]float64, rows)
			hi := make([]float64, rows)
			fam.m.PredictBatchDist(X, point, nil, nil, nil)
			fam.m.PredictBatchDist(X, mean, spread, lo, hi)
			for i := 0; i < rows; i++ {
				x := X.Row(i)
				if p := fam.m.Predict(x); !sameBits(p, point[i]) || !sameBits(p, mean[i]) {
					t.Fatalf("%s rows=%d row %d: Predict %v, mean-only kernel %v, kernel %v (must be bit-identical)",
						fam.name, rows, i, p, point[i], mean[i])
				}
				if spread[i] < 0 || math.IsNaN(spread[i]) || math.IsInf(spread[i], 0) {
					t.Fatalf("%s rows=%d row %d: invalid spread %v", fam.name, rows, i, spread[i])
				}
				if lo[i] > mean[i] || hi[i] < mean[i] {
					t.Fatalf("%s rows=%d row %d: interval [%v, %v] does not bracket mean %v",
						fam.name, rows, i, lo[i], hi[i], mean[i])
				}
				wm, ws, wl, wh := ref.dist(x)
				if !sameBits(mean[i], wm) || !sameBits(spread[i], ws) || !sameBits(lo[i], wl) || !sameBits(hi[i], wh) {
					t.Fatalf("%s rows=%d row %d:\n kernel    (%v %v %v %v)\n reference (%v %v %v %v)",
						fam.name, rows, i, mean[i], spread[i], lo[i], hi[i], wm, ws, wl, wh)
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
		a, b := fam.m, roundTrip(t, fam.m)
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

// TestEnsembleEmptyBatch: the zero-member ensemble predicts 0 on every path.
func TestEnsembleEmptyBatch(t *testing.T) {
	e := mlmodel.Ensemble{}
	X := vecops.NewMatrix(3, 2)
	out := [][]float64{{7, 7, 7}, {7, 7, 7}, {7, 7, 7}, {7, 7, 7}}
	e.PredictBatchDist(X, out[0], out[1], out[2], out[3])
	for c, col := range out {
		for i, v := range col {
			if v != 0 {
				t.Fatalf("column %d row %d = %v, want 0", c, i, v)
			}
		}
	}
	if got := e.Predict(X.Row(0)); got != 0 {
		t.Fatalf("Predict = %v, want 0", got)
	}
}

// TestEnsembleIntervalHoldsMean: seven members predicting the same value v
// average to one unit in the last place above v, so the member min/max alone
// would not bracket the mean.
func TestEnsembleIntervalHoldsMean(t *testing.T) {
	v := 7.0 / 997
	var e mlmodel.Ensemble
	for i := 0; i < 7; i++ {
		e.Models = append(e.Models, predictFunc(func([]float64) float64 { return v }))
	}
	X := vecops.NewMatrix(1, 1)
	var mean, spread, lo, hi [1]float64
	e.PredictBatchDist(X, mean[:], spread[:], lo[:], hi[:])
	if mean[0] == v {
		t.Fatalf("the average of seven %v rounded back to it; the test needs one that does not", v)
	}
	if lo[0] > mean[0] || hi[0] < mean[0] {
		t.Fatalf("interval [%v, %v] does not bracket mean %v", lo[0], hi[0], mean[0])
	}
}
