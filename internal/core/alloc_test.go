package core_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workload"
)

// TestOptimizeAllocCeiling pins what one cold optimization of Figure 9a's
// 40-operator pipeline (two platforms, linear model, serial) may allocate:
// context construction, enumeration and unvectorization together. The run
// measures 945 allocations / 338 kB. The allocation ceiling sits ten above:
// scoring through an adapter boxed once per model batch took 984. The byte
// ceiling sits ~12 % above. Before products were merged into a reused scratch
// the same run took 3074 allocations / 1658 kB, three quarters of the bytes in
// one zeroed matrix per concatenation. A regression past either ceiling is the
// enumeration allocating per product, per batch or per plan again.
func TestOptimizeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		maxAllocs = 955
		maxBytes  = 380 << 10
	)
	l := workload.Pipeline(40, 1e9)
	plats := platform.Subset(2)
	avail := platform.DefaultAvailability().Restrict(plats)
	// linModel is the shape of the latency experiments' model (point-only,
	// its kernel on the concrete type), as in the ledger's paper-fig9 workload.
	m := newLinModel(core.MustSchema(plats).Len(), 1)
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
