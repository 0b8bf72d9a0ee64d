package mlmodel_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mlmodel"
)

// synthDataset builds y = f(x) + noise over random feature rows.
func synthDataset(n, nf int, seed int64, f func([]float64) float64, noise float64) *mlmodel.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &mlmodel.Dataset{}
	for i := 0; i < n; i++ {
		x := make([]float64, nf)
		for j := range x {
			x[j] = rng.Float64() * 10
		}
		ds.Append(x, f(x)+noise*rng.NormFloat64())
	}
	return ds
}

func TestDatasetValidate(t *testing.T) {
	ds := &mlmodel.Dataset{}
	ds.Append([]float64{1, 2}, 3)
	ds.Append([]float64{4, 5}, 6)
	if err := ds.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ds.Append([]float64{1}, 0) // ragged
	if err := ds.Validate(); err == nil {
		t.Fatal("Validate accepted ragged rows")
	}
	ds2 := &mlmodel.Dataset{}
	ds2.Append([]float64{math.NaN()}, 1)
	if err := ds2.Validate(); err == nil {
		t.Fatal("Validate accepted NaN features")
	}
	ds3 := &mlmodel.Dataset{X: [][]float64{{1}}, Y: nil}
	if err := ds3.Validate(); err == nil {
		t.Fatal("Validate accepted mismatched lengths")
	}
}

func TestDatasetSplit(t *testing.T) {
	ds := synthDataset(100, 3, 1, func(x []float64) float64 { return x[0] }, 0)
	train, test := ds.Split(0.25, 7)
	if train.Len() != 75 || test.Len() != 25 {
		t.Fatalf("split = %d/%d, want 75/25", train.Len(), test.Len())
	}
	// Same seed, same split.
	tr2, _ := ds.Split(0.25, 7)
	for i := range train.Y {
		if train.Y[i] != tr2.Y[i] {
			t.Fatal("Split is not deterministic for a fixed seed")
		}
	}
}

func TestTreeFitsStepFunction(t *testing.T) {
	ds := synthDataset(400, 2, 2, func(x []float64) float64 {
		if x[0] > 5 {
			return 100
		}
		return 1
	}, 0)
	tree, err := mlmodel.FitTree(ds, mlmodel.TreeConfig{MaxDepth: 4})
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	if got := tree.Predict([]float64{9, 0}); math.Abs(got-100) > 5 {
		t.Errorf("Predict(high) = %g, want ≈100", got)
	}
	if got := tree.Predict([]float64{1, 0}); math.Abs(got-1) > 5 {
		t.Errorf("Predict(low) = %g, want ≈1", got)
	}
	if tree.NumNodes() < 3 {
		t.Errorf("tree did not split: %d nodes", tree.NumNodes())
	}
}

func TestTreeConstantTarget(t *testing.T) {
	ds := &mlmodel.Dataset{}
	for i := 0; i < 10; i++ {
		ds.Append([]float64{float64(i)}, 42)
	}
	tree, err := mlmodel.FitTree(ds, mlmodel.TreeConfig{})
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	if got := tree.Predict([]float64{100}); got != 42 {
		t.Errorf("Predict = %g, want 42", got)
	}
	if tree.NumNodes() != 1 {
		t.Errorf("constant target grew %d nodes, want 1", tree.NumNodes())
	}
}

func TestTreeEmptyDataset(t *testing.T) {
	if _, err := mlmodel.FitTree(&mlmodel.Dataset{}, mlmodel.TreeConfig{}); err == nil {
		t.Fatal("FitTree accepted an empty dataset")
	}
	if _, err := mlmodel.FitForest(&mlmodel.Dataset{}, mlmodel.ForestConfig{}); err == nil {
		t.Fatal("FitForest accepted an empty dataset")
	}
	if _, err := mlmodel.FitLinear(&mlmodel.Dataset{}, mlmodel.LinearConfig{}); err == nil {
		t.Fatal("FitLinear accepted an empty dataset")
	}
	if _, err := mlmodel.FitMLP(&mlmodel.Dataset{}, mlmodel.MLPConfig{}); err == nil {
		t.Fatal("FitMLP accepted an empty dataset")
	}
}

func TestForestBeatsSingleTreeOnNoisy(t *testing.T) {
	target := func(x []float64) float64 { return 3*x[0] + x[1]*x[1] }
	train := synthDataset(600, 4, 3, target, 4)
	test := synthDataset(200, 4, 4, target, 0)
	forest, err := mlmodel.FitForest(train, mlmodel.ForestConfig{Trees: 40, MaxDepth: 10, Seed: 5})
	if err != nil {
		t.Fatalf("FitForest: %v", err)
	}
	fm := mlmodel.Evaluate(forest, test)
	if fm.R2 < 0.85 {
		t.Errorf("forest R² = %.3f, want ≥ 0.85", fm.R2)
	}
	if fm.RankCorr < 0.9 {
		t.Errorf("forest rank corr = %.3f, want ≥ 0.9", fm.RankCorr)
	}
}

func TestForestDeterministicAcrossParallel(t *testing.T) {
	ds := synthDataset(300, 3, 6, func(x []float64) float64 { return x[0] * x[1] }, 1)
	seq, err := mlmodel.FitForest(ds, mlmodel.ForestConfig{Trees: 16, Seed: 9, Parallel: false})
	if err != nil {
		t.Fatalf("FitForest: %v", err)
	}
	par, err := mlmodel.FitForest(ds, mlmodel.ForestConfig{Trees: 16, Seed: 9, Parallel: true})
	if err != nil {
		t.Fatalf("FitForest parallel: %v", err)
	}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		if seq.Predict(x) != par.Predict(x) {
			t.Fatal("parallel fit differs from sequential fit for the same seed")
		}
	}
	if seq.NumTrees() != 16 {
		t.Errorf("NumTrees = %d, want 16", seq.NumTrees())
	}
}

func TestLinearRecoversCoefficients(t *testing.T) {
	// y = 2x0 - 3x1 + 7, exactly.
	ds := synthDataset(200, 2, 11, func(x []float64) float64 { return 2*x[0] - 3*x[1] + 7 }, 0)
	lin, err := mlmodel.FitLinear(ds, mlmodel.LinearConfig{})
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	if math.Abs(lin.Weights[0]-2) > 1e-3 || math.Abs(lin.Weights[1]+3) > 1e-3 {
		t.Errorf("weights = %v, want [2 -3]", lin.Weights)
	}
	if math.Abs(lin.Intercept-7) > 1e-2 {
		t.Errorf("intercept = %g, want 7", lin.Intercept)
	}
}

func TestLinearHandlesCollinearFeatures(t *testing.T) {
	// Second feature duplicates the first; ridge must keep this solvable.
	ds := &mlmodel.Dataset{}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		v := rng.Float64() * 10
		ds.Append([]float64{v, v}, 4*v+1)
	}
	lin, err := mlmodel.FitLinear(ds, mlmodel.LinearConfig{})
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	if got := lin.Predict([]float64{5, 5}); math.Abs(got-21) > 0.5 {
		t.Errorf("Predict = %g, want ≈21", got)
	}
}

func TestMLPLearnsLinearTarget(t *testing.T) {
	target := func(x []float64) float64 { return 5*x[0] - 2*x[1] }
	train := synthDataset(500, 3, 13, target, 0.5)
	test := synthDataset(100, 3, 14, target, 0)
	mlp, err := mlmodel.FitMLP(train, mlmodel.MLPConfig{Hidden: 16, Epochs: 80, Seed: 3})
	if err != nil {
		t.Fatalf("FitMLP: %v", err)
	}
	m := mlmodel.Evaluate(mlp, test)
	if m.R2 < 0.9 {
		t.Errorf("MLP R² = %.3f, want ≥ 0.9", m.R2)
	}
}

func TestMLPDeterministic(t *testing.T) {
	ds := synthDataset(100, 2, 15, func(x []float64) float64 { return x[0] }, 0.1)
	a, err1 := mlmodel.FitMLP(ds, mlmodel.MLPConfig{Seed: 4, Epochs: 10})
	b, err2 := mlmodel.FitMLP(ds, mlmodel.MLPConfig{Seed: 4, Epochs: 10})
	if err1 != nil || err2 != nil {
		t.Fatalf("FitMLP: %v %v", err1, err2)
	}
	x := []float64{3, 4}
	if a.Predict(x) != b.Predict(x) {
		t.Fatal("MLP fit is not deterministic for a fixed seed")
	}
}

func TestSpearman(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := mlmodel.Spearman(a, []float64{10, 20, 30, 40}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman(increasing) = %g, want 1", got)
	}
	if got := mlmodel.Spearman(a, []float64{40, 30, 20, 10}); math.Abs(got+1) > 1e-12 {
		t.Errorf("Spearman(decreasing) = %g, want -1", got)
	}
	if got := mlmodel.Spearman(a, []float64{1}); got != 0 {
		t.Errorf("Spearman(mismatched) = %g, want 0", got)
	}
	// Ties get average ranks and must not panic.
	_ = mlmodel.Spearman([]float64{1, 1, 2}, []float64{3, 3, 4})
}

func TestEvaluatePerfectModel(t *testing.T) {
	ds := synthDataset(50, 2, 16, func(x []float64) float64 { return x[0] + x[1] }, 0)
	perfect := predictFunc(func(x []float64) float64 { return x[0] + x[1] })
	m := mlmodel.Evaluate(perfect, ds)
	if m.MAE > 1e-12 || m.RMSE > 1e-12 {
		t.Errorf("perfect model has error: %+v", m)
	}
	if math.Abs(m.R2-1) > 1e-12 || math.Abs(m.RankCorr-1) > 1e-12 {
		t.Errorf("perfect model not scored 1: %+v", m)
	}
	if got := mlmodel.Evaluate(perfect, &mlmodel.Dataset{}); got.N != 0 {
		t.Errorf("Evaluate(empty) N = %d", got.N)
	}
}

type predictFunc func([]float64) float64

func (f predictFunc) Predict(x []float64) float64 { return f(x) }

// PredictBatchDist is a point-only kernel: f per row, and zero spread with
// lo = hi = mean when asked.
func (f predictFunc) PredictBatchDist(X *mlmodel.Matrix, mean, spread, lo, hi []float64) {
	for i := 0; i < X.Rows; i++ {
		mean[i] = f(X.Row(i))
		if spread != nil {
			spread[i], lo[i], hi[i] = 0, mean[i], mean[i]
		}
	}
}

// Property: forest predictions are bounded by the training target range
// (each leaf predicts a mean of training targets).
func TestQuickForestPredictionInRange(t *testing.T) {
	ds := synthDataset(200, 3, 17, func(x []float64) float64 { return x[0]*x[1] - x[2] }, 1)
	forest, err := mlmodel.FitForest(ds, mlmodel.ForestConfig{Trees: 10, Seed: 18})
	if err != nil {
		t.Fatalf("FitForest: %v", err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, y := range ds.Y {
		lo = math.Min(lo, y)
		hi = math.Max(hi, y)
	}
	f := func(a, b, c float64) bool {
		x := []float64{math.Mod(math.Abs(a), 100), math.Mod(math.Abs(b), 100), math.Mod(math.Abs(c), 100)}
		p := forest.Predict(x)
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: tree prediction is piecewise constant — tiny feature
// perturbations far from any threshold rarely change output; we check the
// weaker invariant that predictions are always finite.
func TestQuickTreePredictFinite(t *testing.T) {
	ds := synthDataset(200, 2, 19, func(x []float64) float64 { return math.Sin(x[0]) * 10 }, 0)
	tree, err := mlmodel.FitTree(ds, mlmodel.TreeConfig{MaxDepth: 8})
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return !math.IsNaN(tree.Predict([]float64{a, b}))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
