package tdgen_test

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/mlmodel"
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

// small is the deployment the generator tests draw for; Draw and Bounded take
// the size row (max ops, templates per shape, plans, profiles) and seed.
var small = tdgen.Recipe{
	Platforms: platform.Subset(3),
	Avail:     platform.UniformAvailability(3),
	Cluster:   simulator.Default(),
}

func TestGenerateProducesValidDataset(t *testing.T) {
	ds, rep, err := tdgen.Draw(small, 12, 3, 4, 6, 11)
	if err != nil {
		t.Fatalf("Draw: %v", err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatalf("dataset invalid: %v", err)
	}
	if rep.LogicalPlans != 9 {
		t.Errorf("logical plans = %d, want 9 (three shapes × three templates)", rep.LogicalPlans)
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
	a, _, err1 := tdgen.Draw(small, 12, 1, 4, 6, 11)
	b, _, err2 := tdgen.Draw(small, 12, 1, 4, 6, 11)
	if err1 != nil || err2 != nil {
		t.Fatalf("Draw: %v %v", err1, err2)
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

// TestGenerateRespectsBeta: the plans TDGen keeps as plausible — the
// single-platform anchors and the sample of the β-pruned enumeration — switch
// platforms at most β = 3 times. The uniform negatives that follow them are
// unbounded on purpose, so they are not checked. The enumeration keeps its
// 4 × plans fewest-switch members, so only a sample large next to an 8-operator
// plan's assignment space reaches the bound: at these sizes β = 4 fails.
func TestGenerateRespectsBeta(t *testing.T) {
	sels, err := tdgen.Bounded(small, 8, 3, 60, 11)
	if err != nil {
		t.Fatalf("Bounded: %v", err)
	}
	switched := 0
	for i, sel := range sels {
		for _, a := range sel.Assigns {
			x, err := sel.Ctx.Unvectorize(&core.Vector{Assign: a})
			if err != nil {
				t.Fatalf("plan %d: Unvectorize(%v): %v", i, a, err)
			}
			if n := len(x.Conversions); n > 3 {
				t.Errorf("plan %d: assignment %v switches platforms %d times, want at most β = 3", i, a, n)
			} else if n > 0 {
				switched++
			}
		}
	}
	if len(sels) != 9 || switched == 0 {
		t.Fatalf("%d plans, %d bounded assignments that switch at all; the check saw nothing", len(sels), switched)
	}
}

// TestBoundedReachesBeta: β decides something. At the quick row's template
// size and plan count, the bounded assignments switch platforms every number
// of times from 1 to β = 3, so the sample is not just the least-switching
// plans.
func TestBoundedReachesBeta(t *testing.T) {
	sels, err := tdgen.Bounded(small, 30, 3, 8, 11)
	if err != nil {
		t.Fatalf("Bounded: %v", err)
	}
	var bySwitches [4]int
	for i, sel := range sels {
		for _, a := range sel.Assigns {
			x, err := sel.Ctx.Unvectorize(&core.Vector{Assign: a})
			if err != nil {
				t.Fatalf("plan %d: Unvectorize(%v): %v", i, a, err)
			}
			if n := len(x.Conversions); n >= len(bySwitches) {
				t.Fatalf("plan %d: assignment %v switches platforms %d times, want at most β = 3", i, a, n)
			} else {
				bySwitches[n]++
			}
		}
	}
	for n := 1; n < len(bySwitches); n++ {
		if bySwitches[n] == 0 {
			t.Errorf("no bounded assignment switches %d times (counts by switches %v)", n, bySwitches)
		}
	}
}

func TestGenerateIncludesSinglePlatformAnchors(t *testing.T) {
	// The training set must contain, for every template, the all-on-one-
	// platform execution plans: they anchor the per-platform cost regimes
	// the model ranks against. With 3 platforms and 4 plans per template at
	// least 3 plans per template are the anchors.
	ds, rep, err := tdgen.Draw(small, 12, 2, 4, 6, 11)
	if err != nil {
		t.Fatalf("Draw: %v", err)
	}
	if rep.ExecutionPlans < rep.LogicalPlans*3 {
		t.Errorf("only %d execution plans over %d templates; single-platform anchors missing",
			rep.ExecutionPlans, rep.LogicalPlans)
	}
	if ds.Len() == 0 {
		t.Fatal("empty dataset")
	}
}

func TestGenerateSeedQueries(t *testing.T) {
	seeded := small
	seeded.SeedQueries = []workload.Query{{
		Name:     "wordcount",
		MinBytes: 1e6,
		MaxBytes: 1e9,
		Build:    workload.WordCount,
	}}
	ds, rep, err := tdgen.Draw(seeded, 12, 1, 4, 6, 11)
	if err != nil {
		t.Fatalf("Draw: %v", err)
	}
	// One template per shape, and the seed query adds one more logical plan.
	if rep.LogicalPlans != 4 {
		t.Fatalf("logical plans = %d, want 3 synthetic + 1 seeded", rep.LogicalPlans)
	}
	if ds.Len() == 0 || rep.Jobs == 0 {
		t.Fatal("seeded generation produced no rows")
	}
	// Invalid seed queries surface as errors.
	bad := small
	bad.SeedQueries = []workload.Query{{
		Name: "broken", MinBytes: 1e6, MaxBytes: 1e7,
		Build: func(bytes float64) *plan.Logical { return &plan.Logical{} },
	}}
	if _, _, err := tdgen.Draw(bad, 12, 1, 4, 6, 11); err == nil {
		t.Fatal("Draw accepted a seed query producing empty plans")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds, _, err := tdgen.Draw(small, 12, 1, 4, 6, 11)
	if err != nil {
		t.Fatalf("Draw: %v", err)
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
	// A header and no rows: what WriteCSV writes for an empty dataset, and
	// what a one-row file without a header reads as.
	var empty bytes.Buffer
	if err := tdgen.WriteCSV(&empty, &mlmodel.Dataset{}); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	for _, in := range []string{"f0,runtime\n", empty.String(), "0.5,2\n"} {
		if ds, err := tdgen.ReadCSV(bytes.NewBufferString(in)); err == nil {
			t.Errorf("ReadCSV(%q) = %d rows, no error; want a header-only file refused", in, ds.Len())
		}
	}
}
