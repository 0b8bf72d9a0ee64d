package core_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// firstDiff returns the first cell where two feature blocks differ by more
// than rounding (merged cardinality sums accumulate in merge-tree order, the
// one-pass vectorization in operator order), or -1.
func firstDiff(got, want []float64) int {
	for c := range want {
		if diff := math.Abs(got[c] - want[c]); !(diff <= 1e-9*math.Abs(want[c])+1e-12) {
			return c
		}
	}
	return -1
}

// TestResultVectorOutlivesRun: the winning vector on a Result is the caller's
// own copy. With the poison hook armed, the run's whole store is overwritten
// when Optimize returns and the next run on the same Context recycles
// nothing of it — Result.Vector must still read as the chosen plan's vector.
func TestResultVectorOutlivesRun(t *testing.T) {
	l := workload.RandomDAG(20, 1e8, 101)
	ctx := newCtx(t, l, 3)
	m := newLinModel(ctx.Schema.Len(), 5)
	first, err := ctx.Optimize(context.Background(), m)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	f, assign := slices.Clone(first.Vector.F), slices.Clone(first.Vector.Assign)
	if _, err := ctx.Optimize(context.Background(), m); err != nil {
		t.Fatalf("second Optimize: %v", err)
	}
	if !slices.Equal(first.Vector.F, f) || !slices.Equal(first.Vector.Assign, assign) {
		t.Fatal("Result.Vector changed when later runs reused its Context")
	}
	if c := firstDiff(first.Vector.F, ctx.VectorizeExecution(first.Vector.Assign).F); c >= 0 {
		t.Fatalf("Result.Vector differs from VectorizeExecution of its assignment at cell %d", c)
	}
	if m.Predict(first.Vector.F) != first.Predicted {
		t.Errorf("Result.Vector scores %g, Predicted %g", m.Predict(first.Vector.F), first.Predicted)
	}
}

// TestStoreReturnsRows: whatever pruned it, a finished enumeration's run
// holds exactly the final vectors' rows — every consumed input and every
// vector the degraded beam dropped, before or after a merge, went back on the
// free list once, and none of the survivors did. The configurations cover
// the cost-driven pruners, TDGen's model-free ones and both ways into
// degraded mode, serial and pooled.
func TestStoreReturnsRows(t *testing.T) {
	l := workload.RandomDAG(24, 1e8, 211)
	m := newLinModel(newCtx(t, l, 3).Schema.Len(), 9)
	cases := []struct {
		name   string
		pruner core.Pruner
		budget core.Budget
	}{
		{"boundary", core.BoundaryPruner{Model: m}, core.Budget{}},
		{"property", core.PropertyPruner{Model: m, Properties: []core.Property{core.SwitchCountProperty{}}}, core.Budget{}},
		{"switch", core.SwitchPruner{Beta: 2, MaxVectors: 40}, core.Budget{}},
		{"switch-degraded", core.SwitchPruner{Beta: 3}, core.Budget{MaxVectors: 300, DegradedCap: 5}},
		{"budget-trip", core.BoundaryPruner{Model: m}, core.Budget{MaxVectors: 400}},
		{"load-shed", core.BoundaryPruner{Model: m}, core.Budget{ForceDegraded: true, DegradedCap: 3}},
	}
	for _, cs := range cases {
		for _, workers := range []int{1, 8} {
			ctx := newCtx(t, l, 3)
			ctx.Workers = workers
			ctx.Budget = cs.budget
			var st core.Stats
			final, err := ctx.EnumerateFull(context.Background(), cs.pruner, core.OrderPriority, &st)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", cs.name, workers, err)
			}
			if st.Degraded != cs.budget.Active() {
				t.Errorf("%s workers=%d: degraded = %v", cs.name, workers, st.Degraded)
			}
			if live := ctx.LiveRows(); live != len(final.Vectors) {
				t.Errorf("%s workers=%d: %d store rows live, final enumeration has %d vectors",
					cs.name, workers, live, len(final.Vectors))
			}
			for i, v := range final.Vectors {
				if c := firstDiff(v.F, ctx.VectorizeExecution(v.Assign).F); c >= 0 || math.IsNaN(v.Cost) {
					t.Fatalf("%s workers=%d: final vector %d is not its assignment's vector (cell %d, cost %g)",
						cs.name, workers, i, c, v.Cost)
				}
			}
		}
	}
}
