package experiments_test

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/workload"
)

// One quick harness shared by all experiment tests: model training dominates
// the suite's runtime otherwise.
var (
	once sync.Once
	hns  *experiments.Harness
)

func harness(t *testing.T) *experiments.Harness {
	t.Helper()
	once.Do(func() {
		hns = experiments.NewHarness()
		hns.Quick = true
	})
	return hns
}

// text renders tb with the text writer.
func text(t *testing.T, tb *experiments.Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return sb.String()
}

// perPlan runs optimize (which reports how many plans it enumerated) and
// returns its heap allocations and allocated bytes per enumerated plan.
func perPlan(optimize func() int) (allocs, bytes float64) {
	const runs = 10
	plans := 0
	run := func() { plans = optimize() }
	allocs = testing.AllocsPerRun(runs, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return allocs / float64(plans), float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(plans)
}

// TestFigure1Shape asserts Figure 1's claim where it is deterministic: what
// the representation costs per enumerated plan. The vector enumeration merges
// into reused rows and keeps only survivors; the object enumeration allocates
// a subplan object per plan and a fresh feature vector per model call. The
// wall-clock ratio the figure plots is measured, with reference-scaled
// medians, by the benchmark ledger (core.vec_speedup_x and paper-fig9's
// 40-operator gate), not here.
func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("latency experiment")
	}
	h := harness(t)
	rows, err := h.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	plats := platform.Subset(2)
	avail := platform.UniformAvailability(2)
	m := h.LatencyModel(plats)
	for _, l := range []*plan.Logical{
		workload.WordCount(1 * workload.GB), workload.Join(10 * workload.GB), workload.Pipeline(40, 10*workload.GB),
	} {
		vecAllocs, vecBytes := perPlan(func() int {
			res, err := h.RoboptOptimizeWith(l, plats, avail, m)
			if err != nil {
				t.Fatalf("Robopt: %v", err)
			}
			return res.Stats.VectorsCreated
		})
		objAllocs, objBytes := perPlan(func() int {
			res, err := h.RheemMLOptimizeWith(l, plats, avail, m)
			if err != nil {
				t.Fatalf("Rheem-ML: %v", err)
			}
			return res.Stats.SubplansCreated
		})
		t.Logf("%d ops, per enumerated plan: vectors %.1f allocs / %.0f B, objects %.1f allocs / %.0f B",
			l.NumOps(), vecAllocs, vecBytes, objAllocs, objBytes)
		// Fixed per-run costs (the context, the result) weigh on the
		// 6-operator WordCount; from a dozen operators on, vectors must
		// cost at most half of what objects do.
		margin := 1.0
		if l.NumOps() >= 15 {
			margin = 2
		}
		if vecAllocs*margin > objAllocs {
			t.Errorf("%d ops: %.1f allocations per plan vector, %.1f per subplan object", l.NumOps(), vecAllocs, objAllocs)
		}
		if vecBytes*margin > objBytes {
			t.Errorf("%d ops: %.0f bytes per plan vector, %.0f per subplan object", l.NumOps(), vecBytes, objBytes)
		}
	}
	if out := text(t, experiments.Fig1Table(rows)); !strings.Contains(out, "WordCount") {
		t.Errorf("table missing rows:\n%s", out)
	}
}

func TestFigure2Shape(t *testing.T) {
	rows, err := harness(t).Figure2()
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	worse := 0
	for _, r := range rows {
		if r.SimplySec > r.WellTunedSec*1.05 {
			worse++
		}
		if r.SimplySec < r.WellTunedSec*0.95 {
			t.Errorf("%s: simply-tuned plan (%.1fs) beat well-tuned (%.1fs)", r.Query, r.SimplySec, r.WellTunedSec)
		}
	}
	if worse == 0 {
		t.Error("simply-tuned model never hurt performance — Figure 2's effect is absent")
	}
	_ = experiments.Fig2Table(rows)
}

func TestTable1Shape(t *testing.T) {
	rows, err := harness(t).Table1()
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if float64(r.WithPruning) >= r.WithoutPruning {
			t.Errorf("(%d,%d): pruning did not reduce the enumeration: %d vs %g",
				r.Operators, r.Platforms, r.WithPruning, r.WithoutPruning)
		}
	}
	// Pruned counts grow polynomially with k: for 20 ops the ratio between
	// k=5 and k=2 must be far below the (5/2)^20 exponential ratio.
	var k2, k5 int
	for _, r := range rows {
		if r.Operators == 20 && r.Platforms == 2 {
			k2 = r.WithPruning
		}
		if r.Operators == 20 && r.Platforms == 5 {
			k5 = r.WithPruning
		}
	}
	if k2 == 0 || k5 == 0 {
		t.Fatal("missing 20-operator rows")
	}
	if ratio := float64(k5) / float64(k2); ratio > 700 { // ~ (5/2)^4 * slack, far below exponential
		t.Errorf("pruned enumeration is not polynomial in k: ratio %g", ratio)
	}
	_ = experiments.Table1Table(rows)
}

func TestTable2MatchesCatalog(t *testing.T) {
	rows := workload.Catalog()
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 (Table II)", len(rows))
	}
	wantOps := map[string]int{
		"WordCount": 6, "Word2NVec": 14, "SimWords": 26, "TPC-H Q1": 7,
		"TPC-H Q3": 18, "Kmeans": 7, "SGD": 6, "CrocoPR": 22,
	}
	for _, q := range rows {
		if wantOps[q.Name] != q.Operators {
			t.Errorf("%s: catalog says %d operators, Table II says %d", q.Name, q.Operators, wantOps[q.Name])
		}
		l := q.Build(q.MinBytes)
		if l.NumOps() != q.Operators {
			t.Errorf("%s: built plan has %d operators, catalog declares %d", q.Name, l.NumOps(), q.Operators)
		}
	}
	if out := text(t, experiments.Table2Table(rows)); !strings.Contains(out, "CrocoPR") {
		t.Errorf("table missing rows:\n%s", out)
	}
}

func TestFigure8InterpolationTracksActual(t *testing.T) {
	rows, err := harness(t).Figure8()
	if err != nil {
		t.Fatalf("Figure8: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.TrainingPt {
			if math.Abs(r.Interpolated-r.Actual) > 1e-6*r.Actual+1e-6 {
				t.Errorf("card %g: interpolation misses its own training point (%g vs %g)",
					r.Cardinality, r.Interpolated, r.Actual)
			}
			continue
		}
		if math.Abs(r.Interpolated-r.Actual) > 0.25*r.Actual+0.5 {
			t.Errorf("card %g: imputed %g vs actual %g (>25%% off)", r.Cardinality, r.Interpolated, r.Actual)
		}
	}
	_ = experiments.Fig8Table(rows)
}

func TestFigure9aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("latency experiment")
	}
	rows, err := harness(t).Figure9a()
	if err != nil {
		t.Fatalf("Figure9a: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	last := rows[len(rows)-1] // 80 operators
	if last.RoboptMs >= last.RheemMLMs {
		t.Errorf("80 ops: Robopt (%.2fms) not faster than Rheem-ML (%.2fms)", last.RoboptMs, last.RheemMLMs)
	}
	_ = experiments.Fig9Table(rows)
}

func TestFigure10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("latency experiment")
	}
	rows, err := harness(t).Figure10()
	if err != nil {
		t.Fatalf("Figure10: %v", err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	// The priority order exists to maximize the pruning effect: at every
	// grid point it must materialize fewer plan vectors and send fewer rows
	// to the model than either distance-based order. These counters are
	// deterministic; the latencies the figure plots are not asserted (the
	// benchmark ledger carries the wall-clock claims).
	for _, r := range rows {
		for i, order := range []string{"top-down", "bottom-up"} {
			if r.Vectors[0] >= r.Vectors[i+1] || r.ModelRows[0] >= r.ModelRows[i+1] {
				t.Errorf("%d joins, %d platforms: priority created %d vectors / %d model rows, %s %d / %d",
					r.Joins, r.Platforms, r.Vectors[0], r.ModelRows[0], order, r.Vectors[i+1], r.ModelRows[i+1])
			}
		}
	}
	_ = experiments.Fig10Table(rows)
}

func TestFigure11AndTable3(t *testing.T) {
	h := harness(t)
	points, err := h.Figure11()
	if err != nil {
		t.Fatalf("Figure11: %v", err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	// Hit rates. The paper reports 84% (Robopt) vs 43% (RHEEMix); our
	// automatically calibrated RHEEMix is stronger than the paper's
	// hand-tuned one (see EXPERIMENTS.md), so the robust regression
	// guards are: both optimizers choose sensibly most of the time, and
	// Robopt (with the quick test model) hits at least as often.
	var rb, rx, rbFail int
	for _, pt := range points {
		if pt.Robopt == pt.Fastest {
			rb++
		}
		if pt.Rheemix == pt.Fastest {
			rx++
		}
		if math.IsInf(pt.Runtimes[pt.Robopt], 1) && !math.IsInf(pt.Runtimes[pt.Fastest], 1) {
			rbFail++
		}
	}
	if 2*rb < len(points) {
		t.Errorf("Robopt chose the fastest platform only %d/%d times", rb, len(points))
	}
	if 2*rx < len(points) {
		t.Errorf("RHEEMix chose the fastest platform only %d/%d times", rx, len(points))
	}
	if rb < rx {
		t.Errorf("Robopt chose the fastest platform %d/%d times, RHEEMix %d", rb, len(points), rx)
	}
	if rbFail > 2 {
		t.Errorf("Robopt picked a failing platform %d times", rbFail)
	}

	rows := h.Table3(points)
	if len(rows) != 8 {
		t.Fatalf("Table3 rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.RoboptMax < 0 || r.RheemixMax < 0 {
			t.Errorf("%s: negative max diff", r.Query)
		}
	}
	// Deviation over the points where Robopt's pick completed: the quick
	// test model may flip a terabyte near-tie onto an aborting platform
	// (counted by rbFail above); away from those edges its picks must be
	// within seconds of optimal.
	var dev float64
	n := 0.0
	for _, pt := range points {
		rt := pt.Runtimes[pt.Robopt]
		if math.IsInf(rt, 1) || rt >= h.Cluster.Timeout {
			continue
		}
		dev += rt - pt.Runtimes[pt.Fastest]
		n++
	}
	if n > 0 && dev/n > 120 {
		t.Errorf("Robopt mean deviation on completed picks = %.1fs", dev/n)
	}
	_ = experiments.Fig11Table(points)
	_ = experiments.Table3Table(rows)
}

func TestFigure12Shape(t *testing.T) {
	rows, err := harness(t).Figure12()
	if err != nil {
		t.Fatalf("Figure12: %v", err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	// Robopt must beat RHEEMix somewhere (the K-means / SGD effects) and
	// must never be drastically worse.
	wins := 0
	for _, r := range rows {
		if r.RoboptRT < r.RheemixRT*0.8 {
			wins++
		}
	}
	if wins == 0 {
		t.Error("Robopt never clearly beat RHEEMix in multi-platform mode")
	}
	_ = experiments.Fig12Table(rows)
}

func TestFigure13Shape(t *testing.T) {
	rows, err := harness(t).Figure13()
	if err != nil {
		t.Fatalf("Figure13: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	_ = experiments.Fig13Table(rows)
}

func TestSinglePlatformChoiceErrors(t *testing.T) {
	l := workload.WordCount(workload.MB)
	_, _, _, err := plan.CheapestAllOn(l, []platform.ID{platform.Postgres},
		platform.DefaultAvailability(),
		func(*plan.Execution) (float64, error) { return 0, nil })
	if err == nil {
		t.Fatal("accepted a platform that cannot run the query")
	}
}
