package core_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/vecops"
	"repro/internal/workload"
)

// batchLinModel is linModel with a native PredictBatch: the shape of the
// latency experiments' model (point-only, batched), so a request reaches the
// enumeration through the same adapters as the ledger's paper-fig9 workload.
type batchLinModel struct{ linModel }

func (m batchLinModel) PredictBatch(X *vecops.Matrix, out []float64) {
	for i := 0; i < X.Rows; i++ {
		out[i] = m.Predict(X.Row(i))
	}
}

// TestOptimizeAllocCeiling pins what one cold optimization of Figure 9a's
// 40-operator pipeline (two platforms, linear model, serial) may allocate:
// context construction, enumeration and unvectorization together. The
// ceilings sit ~10 % above the measured 1032 allocations / 341 kB; before
// products were merged into a reused scratch the same run took 3074
// allocations / 1658 kB, three quarters of the bytes in one zeroed matrix per
// concatenation. A regression past either ceiling is the enumeration
// allocating per product or per plan again.
func TestOptimizeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		maxAllocs = 1150
		maxBytes  = 380 << 10
	)
	l := workload.Pipeline(40, 1e9)
	plats := platform.Subset(2)
	avail := platform.DefaultAvailability().Restrict(plats)
	m := batchLinModel{newLinModel(core.MustSchema(plats).Len(), 1)}
	run := func() {
		ctx, err := core.NewContext(l, plats, avail)
		if err != nil {
			t.Fatalf("NewContext: %v", err)
		}
		if _, err := ctx.Optimize(context.Background(), m); err != nil {
			t.Fatalf("Optimize: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(20, run)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Pipeline(40) × 2 platforms: %.0f allocs, %d kB per optimization", allocs, bytes>>10)
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations per optimization, ceiling %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("%d bytes per optimization, ceiling %d", bytes, maxBytes)
	}
}
