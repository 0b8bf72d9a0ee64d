package mlmodel_test

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mlmodel"
)

func TestGBMLearnsInteraction(t *testing.T) {
	// y = x0*x1 — a multiplicative interaction single trees struggle with
	// but boosting approximates well.
	target := func(x []float64) float64 { return x[0] * x[1] }
	train := synthDataset(800, 3, 21, target, 0.5)
	test := synthDataset(200, 3, 22, target, 0)
	g, err := mlmodel.FitGBM(train, mlmodel.GBMConfig{Trees: 120, MaxDepth: 4, Seed: 5})
	if err != nil {
		t.Fatalf("FitGBM: %v", err)
	}
	m := mlmodel.Evaluate(g, test)
	if m.R2 < 0.9 {
		t.Errorf("GBM R² = %.3f, want ≥ 0.9", m.R2)
	}
	if m.RankCorr < 0.95 {
		t.Errorf("GBM rank corr = %.3f, want ≥ 0.95", m.RankCorr)
	}
}

func TestGBMResolvesSecondaryEffect(t *testing.T) {
	// A dominant driver (x0, large scale) plus a small secondary effect
	// (x1 flag worth 5 units). Ranking rows with equal x0 requires the
	// model to resolve the secondary effect — the platform-choice analogue.
	ds := &mlmodel.Dataset{}
	for i := 0; i < 1000; i++ {
		x0 := float64(i%50) * 100
		x1 := float64((i / 50) % 2)
		ds.Append([]float64{x0, x1}, x0+5*x1)
	}
	g, err := mlmodel.FitGBM(ds, mlmodel.GBMConfig{Trees: 200, MaxDepth: 3, Seed: 9})
	if err != nil {
		t.Fatalf("FitGBM: %v", err)
	}
	correct := 0
	for x0 := 0.0; x0 < 5000; x0 += 100 {
		a := g.Predict([]float64{x0, 0})
		b := g.Predict([]float64{x0, 1})
		if b > a {
			correct++
		}
	}
	if correct < 45 {
		t.Errorf("secondary effect resolved in only %d/50 slices", correct)
	}
}

func TestGBMDeterministic(t *testing.T) {
	ds := synthDataset(300, 4, 23, func(x []float64) float64 { return x[0] - 2*x[2] }, 1)
	a, err1 := mlmodel.FitGBM(ds, mlmodel.GBMConfig{Trees: 30, Seed: 11})
	b, err2 := mlmodel.FitGBM(ds, mlmodel.GBMConfig{Trees: 30, Seed: 11})
	if err1 != nil || err2 != nil {
		t.Fatalf("FitGBM: %v %v", err1, err2)
	}
	x := []float64{1, 2, 3, 4}
	if a.Predict(x) != b.Predict(x) {
		t.Fatal("GBM fit is not deterministic for a fixed seed")
	}
	if a.NumTrees() != 30 {
		t.Errorf("NumTrees = %d, want 30", a.NumTrees())
	}
}

// fitBytesAt returns the SaveModel bytes of fit run at GOMAXPROCS procs.
func fitBytesAt(t *testing.T, procs int, fit func() (mlmodel.Model, error)) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	m, err := fit()
	if err != nil {
		t.Fatalf("fit at GOMAXPROCS %d: %v", procs, err)
	}
	return saveBytes(t, m)
}

// requireSameAtAnyProcs fails unless fit gives the same artifact at
// GOMAXPROCS 1 as at the ambient value (at least 2).
func requireSameAtAnyProcs(t *testing.T, fit func() (mlmodel.Model, error)) {
	t.Helper()
	procs := max(runtime.GOMAXPROCS(0), 2)
	if one, many := fitBytesAt(t, 1, fit), fitBytesAt(t, procs, fit); !bytes.Equal(one, many) {
		t.Fatalf("the fit at GOMAXPROCS %d differs from the one at GOMAXPROCS 1", procs)
	}
}

func TestGBMFitSameAtAnyGOMAXPROCS(t *testing.T) {
	// 6 000 rows × 40 features: every node of at least 1 024 sampled rows,
	// the root's children and grandchildren too, cuts the features into one
	// chunk per GOMAXPROCS and scans the chunks concurrently. Column 25
	// copies column 5, which puts equal-gain ties in different chunks at
	// every GOMAXPROCS ≥ 2 (the lower index must win); column 39, in the
	// last chunk, carries signal of its own.
	rng := rand.New(rand.NewSource(29))
	ds := &mlmodel.Dataset{}
	for range 6000 {
		x := make([]float64, 40)
		for j := range x {
			x[j] = float64(rng.Intn(16))
		}
		x[25] = x[5]
		ds.Append(x, 4*x[5]+3*x[39]+rng.NormFloat64())
	}
	requireSameAtAnyProcs(t, func() (mlmodel.Model, error) {
		return mlmodel.FitGBM(ds, mlmodel.GBMConfig{Trees: 8, MaxDepth: 4, Seed: 13})
	})
}

func TestGBMEmptyDataset(t *testing.T) {
	if _, err := mlmodel.FitGBM(&mlmodel.Dataset{}, mlmodel.GBMConfig{}); err == nil {
		t.Fatal("FitGBM accepted an empty dataset")
	}
}

func TestGBMConstantTarget(t *testing.T) {
	ds := &mlmodel.Dataset{}
	for i := 0; i < 20; i++ {
		ds.Append([]float64{float64(i)}, 3)
	}
	g, err := mlmodel.FitGBM(ds, mlmodel.GBMConfig{Trees: 10, Seed: 1})
	if err != nil {
		t.Fatalf("FitGBM: %v", err)
	}
	if got := g.Predict([]float64{5}); math.Abs(got-3) > 1e-9 {
		t.Errorf("Predict = %g, want 3", got)
	}
}

func TestGBMHandlesConstantAndSparseFeatures(t *testing.T) {
	// Plan vectors are mostly zeros with a few informative cells; the
	// histogram binner must cope with constant columns and columns with
	// fewer distinct values than bins.
	ds := &mlmodel.Dataset{}
	for i := 0; i < 300; i++ {
		x := make([]float64, 6)
		x[0] = 7                // constant
		x[1] = float64(i % 2)   // binary
		x[2] = float64(i % 3)   // ternary
		x[5] = float64(i) * 1e6 // wide numeric
		ds.Append(x, 10*x[1]+float64(i)*0.01)
	}
	g, err := mlmodel.FitGBM(ds, mlmodel.GBMConfig{Trees: 60, MaxDepth: 4, Seed: 6})
	if err != nil {
		t.Fatalf("FitGBM: %v", err)
	}
	hi := g.Predict([]float64{7, 1, 0, 0, 0, 1e6})
	lo := g.Predict([]float64{7, 0, 0, 0, 0, 1e6})
	if hi-lo < 5 {
		t.Errorf("binary effect of 10 resolved as %g", hi-lo)
	}
}

func TestGBMQuantizationMonotone(t *testing.T) {
	// Predictions over a single monotone feature must be (weakly)
	// monotone after boosting on noiseless data.
	ds := &mlmodel.Dataset{}
	for i := 0; i < 500; i++ {
		x := float64(i)
		ds.Append([]float64{x}, x*2)
	}
	g, err := mlmodel.FitGBM(ds, mlmodel.GBMConfig{Trees: 150, MaxDepth: 4, Seed: 8})
	if err != nil {
		t.Fatalf("FitGBM: %v", err)
	}
	prev := math.Inf(-1)
	for x := 0.0; x <= 499; x += 25 {
		p := g.Predict([]float64{x})
		if p < prev-20 { // small leaf-wiggle tolerance
			t.Errorf("prediction dropped from %g to %g at x=%g", prev, p, x)
		}
		if p > prev {
			prev = p
		}
	}
}

func TestLogTargetWrapper(t *testing.T) {
	ds := synthDataset(200, 2, 25, func(x []float64) float64 { return 100 * x[0] }, 0)
	m, err := mlmodel.LogTargetTrainer{Inner: mlmodel.GBMTrainer{Config: mlmodel.GBMConfig{Trees: 80, Seed: 2}}}.Fit(ds)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	got := m.Predict([]float64{5, 0})
	if got < 0 {
		t.Errorf("LogTarget produced a negative runtime %g", got)
	}
	if math.Abs(got-500) > 150 {
		t.Errorf("Predict = %g, want ≈500", got)
	}
}
