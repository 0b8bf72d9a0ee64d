package mlmodel_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/mlmodel"
)

func roundTrip(t *testing.T, m mlmodel.Model) mlmodel.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := mlmodel.SaveModel(&buf, m); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	back, err := mlmodel.LoadModel(&buf)
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	return back
}

func assertSamePredictions(t *testing.T, a, b mlmodel.Model, ds *mlmodel.Dataset) {
	t.Helper()
	for i := 0; i < 25 && i < ds.Len(); i++ {
		if a.Predict(ds.X[i]) != b.Predict(ds.X[i]) {
			t.Fatalf("prediction differs after round trip at row %d", i)
		}
	}
}

func TestPersistGBM(t *testing.T) {
	ds := synthDataset(200, 4, 31, func(x []float64) float64 { return x[0]*3 - x[2] }, 0.5)
	g, err := mlmodel.FitGBM(ds, mlmodel.GBMConfig{Trees: 20, Seed: 1})
	if err != nil {
		t.Fatalf("FitGBM: %v", err)
	}
	assertSamePredictions(t, g, roundTrip(t, g), ds)
}

func TestPersistForest(t *testing.T) {
	ds := synthDataset(200, 3, 32, func(x []float64) float64 { return x[1] }, 0.5)
	f, err := mlmodel.FitForest(ds, mlmodel.ForestConfig{Trees: 8, Seed: 2})
	if err != nil {
		t.Fatalf("FitForest: %v", err)
	}
	assertSamePredictions(t, f, roundTrip(t, f), ds)
}

func TestPersistLinearAndLogTarget(t *testing.T) {
	ds := synthDataset(100, 2, 33, func(x []float64) float64 { return 2*x[0] + 1 }, 0)
	lin, err := mlmodel.FitLinear(ds)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	assertSamePredictions(t, lin, roundTrip(t, lin), ds)

	wrapped := mlmodel.LogTarget{Inner: lin}
	back := roundTrip(t, wrapped)
	if _, ok := back.(mlmodel.LogTarget); !ok {
		t.Fatalf("round trip lost the LogTarget wrapper: %T", back)
	}
	assertSamePredictions(t, wrapped, back, ds)
}

func TestPersistTree(t *testing.T) {
	ds := synthDataset(150, 2, 34, func(x []float64) float64 { return x[0] }, 0)
	tree, err := mlmodel.FitTree(ds, mlmodel.TreeConfig{MaxDepth: 6})
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	assertSamePredictions(t, tree, roundTrip(t, tree), ds)
}

func TestPersistEnsemble(t *testing.T) {
	ds := synthDataset(150, 3, 35, func(x []float64) float64 { return x[0] + x[1] }, 0.3)
	var e mlmodel.Ensemble
	for i := 0; i < 3; i++ {
		g, err := mlmodel.FitGBM(ds, mlmodel.GBMConfig{Trees: 10, Seed: int64(i)})
		if err != nil {
			t.Fatalf("FitGBM: %v", err)
		}
		e.Models = append(e.Models, mlmodel.LogTarget{Inner: g})
	}
	back := roundTrip(t, e)
	assertSamePredictions(t, e, back, ds)
	if _, err := mlmodel.LoadModel(strings.NewReader(`{"type":"ensemble","payload":[]}`)); err == nil {
		t.Error("LoadModel accepted an empty ensemble")
	}
}

func TestEnsembleAveraging(t *testing.T) {
	a := predictFunc(func([]float64) float64 { return 10 })
	b := predictFunc(func([]float64) float64 { return 20 })
	e := mlmodel.Ensemble{Models: []mlmodel.Model{a, b}}
	if got := e.Predict(nil); got != 15 {
		t.Fatalf("ensemble mean = %g, want 15", got)
	}
	if got := (mlmodel.Ensemble{}).Predict(nil); got != 0 {
		t.Fatalf("empty ensemble = %g, want 0", got)
	}
}

func TestPersistRejectsUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := mlmodel.SaveModel(&buf, predictFunc(func([]float64) float64 { return 0 })); err == nil {
		t.Error("SaveModel accepted an unserializable model")
	}
	if _, err := mlmodel.LoadModel(strings.NewReader(`{"type":"nope","payload":{}}`)); err == nil {
		t.Error("LoadModel accepted an unknown type")
	}
	if _, err := mlmodel.LoadModel(strings.NewReader(`garbage`)); err == nil {
		t.Error("LoadModel accepted garbage")
	}
	if _, err := mlmodel.LoadModel(strings.NewReader(`{"type":"tree","payload":{"feature":[0],"threshold":[1],"left":[5],"right":[6],"value":[0]}}`)); err == nil {
		t.Error("LoadModel accepted a tree with out-of-range children")
	}
}

// TestLoadRejectsLeafThreshold: a leaf's threshold slot holds its fold term in
// memory, and every builder writes it as 0, so an artifact with any other
// leaf threshold (−0 included) is refused, bare or inside a GBM, rather than
// loaded as a file that would not save back as it was read.
func TestLoadRejectsLeafThreshold(t *testing.T) {
	tree := func(leafThr string) string {
		return `{"feature":[0,-1,-1],"threshold":[1,0,` + leafThr + `],"left":[1,0,0],"right":[2,0,0],"value":[0,1,2]}`
	}
	for _, thr := range []string{"1", "-0", "1e-300"} {
		for _, raw := range []string{
			`{"type":"tree","payload":` + tree(thr) + `}`,
			`{"type":"gbm","payload":{"base":0,"lr":0.1,"trees":[` + tree("0") + `,` + tree(thr) + `]}}`,
		} {
			_, err := mlmodel.LoadModel(strings.NewReader(raw))
			if err == nil || !strings.Contains(err.Error(), "leaf 2 has threshold") {
				t.Errorf("leaf threshold %s: LoadModel error = %v, want a leaf-threshold refusal", thr, err)
			}
		}
	}
	m, err := mlmodel.LoadModel(strings.NewReader(`{"type":"tree","payload":` + tree("0") + `}`))
	if err != nil {
		t.Fatalf("LoadModel refused a tree whose leaves have threshold 0: %v", err)
	}
	if got := m.Predict([]float64{1}); got != 1 {
		t.Errorf("Predict = %v, want 1", got)
	}
}
