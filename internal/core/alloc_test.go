package core_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/workload"
)

// TestOptimizeAllocCeiling pins what one cold optimization of Figure 9a's
// 40-operator pipeline (two platforms, linear model, serial) may allocate:
// context construction, enumeration and unvectorization together, in two
// cases (measureRuns). On reused memory — the rows and bookkeeping of the run
// before, which the collector has not reclaimed yet — it measures 32
// allocations / 13 kB: NewContext's tables, the run's live cells, the scope
// words, the worker scratch, the bound model, the Result and its plan
// (ceilings 43 / 58 kB). On fresh memory it measures 40 allocations / 160 kB
// (ceilings 63 / 178 kB). The two cases may differ by at most 8 allocations
// (8 measured: the runMem, its weak pointer's handle and the first chunk of
// each of its six slabs), so that how many runs found their memory reclaimed
// barely moves a workload's allocation count; TestRunMemoryMixedSizes holds
// the same rule over the benchmark's mix of plan sizes. A run's rows hold
// only the plan's live cells, its bookkeeping comes in blocks sized from the
// plan, its parallel loop bodies are its worker scratch (no allocation), and
// its model, which has no Specialize, gets its rows expanded one kernel block
// per call into a window off the kernels' shared stack. A regression past
// either ceiling is the enumeration allocating per product, per batch or per
// plan again, or its rows growing wider than the cells a plan can set; git
// log has the history of these figures.
func TestOptimizeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
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
	var counts []float64
	for _, cs := range []struct {
		mode      string
		reuse     bool
		maxAllocs float64
		maxBytes  uint64
	}{
		{"fresh", false, 63, 178 << 10},
		{"reused", true, 43, 58 << 10},
	} {
		allocs, bytes := measureRuns(20, cs.reuse, run)
		counts = append(counts, allocs)
		t.Logf("Pipeline(40) × 2 platforms, %s memory: %.0f allocs, %d kB per optimization", cs.mode, allocs, bytes>>10)
		if allocs > cs.maxAllocs {
			t.Errorf("%s memory: %.0f allocations per optimization, ceiling %.0f", cs.mode, allocs, cs.maxAllocs)
		}
		if bytes > cs.maxBytes {
			t.Errorf("%s memory: %d bytes per optimization, ceiling %d", cs.mode, bytes, cs.maxBytes)
		}
	}
	if d := counts[0] - counts[1]; d > 8 {
		t.Errorf("a run on fresh memory makes %.0f allocations more than one on reused memory, at most 8", d)
	}
}

// measureRuns returns what run allocates per call, as testing.AllocsPerRun
// counts it, and the bytes, over runs calls. Fresh (reuse false), the spare
// stack is emptied before every call, so each run starts on new memory, as
// it does after a collection. Reused, the collector is off for the
// measurement, so each run takes over the memory of the one before; a
// collection in the middle would otherwise make the counts depend on when
// it came.
func measureRuns(runs int, reuse bool, run func()) (allocs float64, bytes uint64) {
	if reuse {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	} else {
		inner := run
		run = func() {
			core.DropSpareMemory()
			inner()
		}
	}
	allocs = testing.AllocsPerRun(runs, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestOptimizeAllocsIndependentOfPlanSize pins that a run allocates its
// bookkeeping in blocks sized from the plan, not per enumeration step: a cold
// optimization of an 80-operator pipeline may make at most maxDiff more
// allocations than one of a 20-operator pipeline (linear model, serial),
// untraced and traced, on fresh and on reused memory (measureRuns).
// Untraced, the 80-operator run makes no more allocations than the
// 20-operator one; traced, the span chunks, the attribute block and the
// audit's boundary lists and platform names each grow geometrically, which
// is 3 more at 80 operators on fresh and on reused memory (4 on reused
// memory when runs dropped their rows; 1 on fresh memory while the
// 20-operator run outgrew its first chunk of features), with ceilings 8 and
// 7. While
// every enumeration, scope, boundary, child list, task, span and attribute
// was its own object, the 80-operator run made hundreds more.
func TestOptimizeAllocsIndependentOfPlanSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	plats := platform.Subset(2)
	avail := platform.DefaultAvailability().Restrict(plats)
	m := newLinModel(core.MustSchema(plats).Len(), 1)
	allocs := func(n int, traced, reuse bool) float64 {
		l := workload.Pipeline(n, 1e9)
		a, _ := measureRuns(10, reuse, func() {
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
		return a
	}
	for _, cs := range []struct {
		mode    string
		reuse   bool
		maxDiff float64
	}{
		{"fresh", false, 8},
		{"reused", true, 7},
	} {
		for _, traced := range []bool{false, true} {
			small, large := allocs(20, traced, cs.reuse), allocs(80, traced, cs.reuse)
			t.Logf("%s memory, traced=%v: Pipeline(20) %.0f allocations, Pipeline(80) %.0f", cs.mode, traced, small, large)
			if large-small > cs.maxDiff {
				t.Errorf("%s memory, traced=%v: Pipeline(80) makes %.0f allocations, Pipeline(20) %.0f: more than %.0f apart",
					cs.mode, traced, large, small, cs.maxDiff)
			}
		}
	}
}
