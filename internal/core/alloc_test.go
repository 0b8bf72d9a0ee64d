package core_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/workload"
)

// TestOptimizeAllocCeiling pins what one cold optimization of Figure 9a's
// 40-operator pipeline (two platforms, linear model, serial) may allocate:
// context construction, enumeration and unvectorization together. The run
// measures 69 allocations / 175 kB: its bookkeeping (enumeration slots and
// scopes, vector headers, boundary lists, frontier nodes, children lists,
// tasks, NewContext's per-operator tables) comes in blocks sized from the
// plan, and its parallel loop bodies are bound once per worker. The ceilings
// keep the headroom they had over the 823 allocations / 178 kB it took while
// each of those was an object per enumeration step, eleven allocations and
// 45 kB. Its model has no Specialize, so
// mlmodel.Specialize expands its rows one kernel block per call into a window
// off the kernels' shared stack. It was 824 / 225 kB while the run kept a
// buffer of expanded rows per worker, and 237 kB while one matrix of expanded
// rows covered each whole batch. The allocation ceiling sits eleven above: a
// matrix view moved to the heap per model batch took 945, scoring through an
// adapter boxed once per batch 984. The byte ceiling keeps the 45 kB of
// headroom it had over the 237 kB.
// With rows at the Schema's width instead of the plan's live width, and a
// MergeCtx allocated per concatenation, the run took 898 / 335 kB.
// Before products were merged into a reused scratch
// the same run took 3074 allocations / 1658 kB, three quarters of the bytes in
// one zeroed matrix per concatenation. A regression past either ceiling is the
// enumeration allocating per product, per batch or per plan again.
func TestOptimizeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		maxAllocs = 80
		maxBytes  = 220 << 10
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

// TestOptimizeAllocsIndependentOfPlanSize pins that a run allocates its
// bookkeeping in blocks sized from the plan, not per enumeration step: a cold
// optimization of an 80-operator pipeline may make at most maxDiff more
// allocations than one of a 20-operator pipeline (linear model, serial),
// untraced and traced. Untraced, the two counts are equal; traced, the span
// chunks, the attribute block and the audit's boundary lists and platform
// names each grow geometrically, which is 4 more at 80 operators. While
// every enumeration, scope, boundary, child list, task, span and attribute
// was its own object, the 80-operator run made hundreds more.
func TestOptimizeAllocsIndependentOfPlanSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const maxDiff = 8
	plats := platform.Subset(2)
	avail := platform.DefaultAvailability().Restrict(plats)
	m := newLinModel(core.MustSchema(plats).Len(), 1)
	allocs := func(n int, traced bool) float64 {
		l := workload.Pipeline(n, 1e9)
		return testing.AllocsPerRun(10, func() {
			ctx, err := core.NewContext(l, plats, avail)
			if err != nil {
				t.Fatalf("NewContext: %v", err)
			}
			if traced {
				ctx.Trace = obs.NewTrace("size")
			}
			if _, err := ctx.Optimize(context.Background(), m); err != nil {
				t.Fatalf("Optimize: %v", err)
			}
		})
	}
	for _, traced := range []bool{false, true} {
		small, large := allocs(20, traced), allocs(80, traced)
		t.Logf("traced=%v: Pipeline(20) %.0f allocations, Pipeline(80) %.0f", traced, small, large)
		if large-small > maxDiff {
			t.Errorf("traced=%v: Pipeline(80) makes %.0f allocations, Pipeline(20) %.0f: more than %d apart", traced, large, small, maxDiff)
		}
	}
}
