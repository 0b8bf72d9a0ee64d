package mlmodel_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/mlmodel"
	"repro/internal/vecops"
)

// TestPersistMLP: the MLP round-trips through SaveModel/LoadModel and the
// reloaded network agrees with the original on both the scalar and the batch
// prediction path — the deployability contract every trained family must
// satisfy.
func TestPersistMLP(t *testing.T) {
	ds := synthDataset(200, 5, 36, func(x []float64) float64 { return 3*x[0] - x[3] + x[4]*x[4] }, 0.2)
	m, err := mlmodel.FitMLP(ds, mlmodel.MLPConfig{Hidden: 8, Epochs: 10, Seed: 5})
	if err != nil {
		t.Fatalf("FitMLP: %v", err)
	}
	back := roundTrip(t, m)
	if _, ok := back.(*mlmodel.MLP); !ok {
		t.Fatalf("round trip changed the model type: %T", back)
	}
	assertSamePredictions(t, m, back, ds)

	// Batch/scalar parity on the reloaded model: the kernel over the whole
	// dataset must match row-by-row Predict bit for bit.
	X := vecops.MatrixFromRows(ds.X, ds.NumFeatures())
	got := make([]float64, ds.Len())
	back.PredictBatchDist(X, got, nil, nil, nil)
	for i := range got {
		if want := back.Predict(ds.X[i]); got[i] != want {
			t.Fatalf("batch/scalar mismatch at row %d: %g != %g", i, got[i], want)
		}
		if orig := m.Predict(ds.X[i]); got[i] != orig {
			t.Fatalf("reloaded batch prediction differs from original at row %d: %g != %g", i, got[i], orig)
		}
	}

	// LogTarget wrapping survives too.
	wrapped := mlmodel.LogTarget{Inner: m}
	assertSamePredictions(t, wrapped, roundTrip(t, wrapped), ds)
}

func TestPersistMLPRejectsInconsistent(t *testing.T) {
	for name, payload := range map[string]string{
		"no hidden units": `{"w1":[],"b1":[],"w2":[],"b2":0,"xMean":[0],"xStd":[1],"yMean":0,"yStd":1}`,
		"ragged w1":       `{"w1":[[1,2],[3]],"b1":[0,0],"w2":[1,1],"b2":0,"xMean":[0,0],"xStd":[1,1],"yMean":0,"yStd":1}`,
		"b1 mismatch":     `{"w1":[[1]],"b1":[0,0],"w2":[1],"b2":0,"xMean":[0],"xStd":[1],"yMean":0,"yStd":1}`,
		"zero xStd":       `{"w1":[[1]],"b1":[0],"w2":[1],"b2":0,"xMean":[0],"xStd":[0],"yMean":0,"yStd":1}`,
		"zero yStd":       `{"w1":[[1]],"b1":[0],"w2":[1],"b2":0,"xMean":[0],"xStd":[1],"yMean":0,"yStd":0}`,
	} {
		env := `{"type":"mlp","payload":` + payload + `}`
		if _, err := mlmodel.LoadModel(strings.NewReader(env)); err == nil {
			t.Errorf("LoadModel accepted an MLP with %s", name)
		}
	}
}

func TestFeatureWidth(t *testing.T) {
	ds := synthDataset(200, 6, 37, func(x []float64) float64 { return x[0] + 2*x[5] }, 0.1)

	lin, err := mlmodel.FitLinear(ds)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	if w, exact := mlmodel.FeatureWidth(lin); w != 6 || !exact {
		t.Errorf("linear width = (%d, %v), want (6, true)", w, exact)
	}

	mlp, err := mlmodel.FitMLP(ds, mlmodel.MLPConfig{Hidden: 4, Epochs: 2})
	if err != nil {
		t.Fatalf("FitMLP: %v", err)
	}
	if w, exact := mlmodel.FeatureWidth(mlp); w != 6 || !exact {
		t.Errorf("mlp width = (%d, %v), want (6, true)", w, exact)
	}

	gbm, err := mlmodel.FitGBM(ds, mlmodel.GBMConfig{Trees: 20, Seed: 3})
	if err != nil {
		t.Fatalf("FitGBM: %v", err)
	}
	if w, exact := mlmodel.FeatureWidth(gbm); w < 1 || w > 6 || exact {
		t.Errorf("gbm width = (%d, %v), want a bound in [1, 6] and exact=false", w, exact)
	}

	// Composites: an exact member fixes the width; the wrapper recurses.
	e := mlmodel.Ensemble{Models: []mlmodel.Model{gbm, mlmodel.LogTarget{Inner: lin}}}
	if w, exact := mlmodel.FeatureWidth(e); w != 6 || !exact {
		t.Errorf("ensemble width = (%d, %v), want (6, true)", w, exact)
	}
}

func TestFamilyName(t *testing.T) {
	lin := &mlmodel.Linear{Weights: []float64{1}}
	if got := mlmodel.FamilyName(mlmodel.LogTarget{Inner: lin}); got != "logtarget(linear)" {
		t.Errorf("FamilyName = %q", got)
	}
	e := mlmodel.Ensemble{Models: []mlmodel.Model{lin, lin, lin}}
	if got := mlmodel.FamilyName(e); got != "ensemble(linear×3)" {
		t.Errorf("FamilyName = %q", got)
	}
}

func TestDatasetMerge(t *testing.T) {
	a := &mlmodel.Dataset{}
	a.Append([]float64{1, 2}, 3)
	b := &mlmodel.Dataset{}
	b.Append([]float64{4, 5}, 6)
	b.Append([]float64{7, 8}, 9)
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.Len() != 3 || a.Y[2] != 9 {
		t.Fatalf("merged dataset wrong: len=%d", a.Len())
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("merged dataset invalid: %v", err)
	}

	wide := &mlmodel.Dataset{}
	wide.Append([]float64{1, 2, 3}, 0)
	if err := a.Merge(wide); err == nil {
		t.Error("Merge accepted mismatched feature widths")
	}
	if err := a.Merge(&mlmodel.Dataset{}); err != nil {
		t.Errorf("Merge of empty dataset errored: %v", err)
	}

	// Merging into an empty dataset adopts the other's width.
	empty := &mlmodel.Dataset{}
	if err := empty.Merge(wide); err != nil || empty.NumFeatures() != 3 {
		t.Errorf("merge into empty: err=%v width=%d", err, empty.NumFeatures())
	}
}

// Guard against envelope drift: a saved MLP names its type "mlp".
func TestMLPEnvelopeType(t *testing.T) {
	ds := synthDataset(50, 2, 38, func(x []float64) float64 { return x[0] }, 0)
	m, err := mlmodel.FitMLP(ds, mlmodel.MLPConfig{Hidden: 2, Epochs: 1})
	if err != nil {
		t.Fatalf("FitMLP: %v", err)
	}
	var buf bytes.Buffer
	if err := mlmodel.SaveModel(&buf, m); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	if !strings.Contains(buf.String(), `"type":"mlp"`) {
		t.Errorf("envelope missing mlp type: %.80s", buf.String())
	}
}
