package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/vecops"
	"repro/internal/workload"
)

// TestRunMemoryIsReclaimed: a finished run's memory is held only weakly. The
// test keeps everything an Optimize hands out (the Result, its Execution, its
// RunTrace and the Context, traced and untraced, serial and pooled), collects
// once, and requires every block of every spare run memory to be gone: a
// block the caller can still reach would stay resident between requests,
// which is what the benchmark's heap_live_mb reads.
func TestRunMemoryIsReclaimed(t *testing.T) {
	l := workload.RandomDAG(24, 1e8, 5)
	ctx := newCtx(t, l, 3)
	m := newLinModel(ctx.Schema.Len(), 3)
	core.DropSpareMemory()
	var kept []*core.Result
	for i, traced := range []bool{false, true, false, true} {
		ctx.Workers = 1 + i%2*3
		ctx.Trace = nil
		if traced {
			ctx.Trace = obs.NewTrace("reclaim")
		}
		res, err := ctx.Optimize(context.Background(), m)
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		kept = append(kept, res)
	}
	probes := core.SpareMemory()
	if len(probes) == 0 {
		t.Fatal("no finished run's memory is on the spare stack")
	}
	if !probes[0]() {
		t.Fatal("the spare run memory is gone before any collection")
	}
	runtime.GC()
	for i, alive := range probes {
		if alive() {
			t.Errorf("probe %d: a finished run's memory survived a collection", i)
		}
	}
	for _, res := range kept {
		if res.Execution == nil || res.Vector == nil {
			t.Fatal("a kept result lost its plan")
		}
		if res.Trace != nil {
			if _, err := res.Explain(); err != nil {
				t.Fatalf("Explain: %v", err)
			}
		}
	}
	runtime.KeepAlive(ctx)
}

// cancelAfter is a cost model that cancels its run on its calls-th kernel call.
type cancelAfter struct {
	core.CostModel
	calls  int64
	n      *atomic.Int64
	cancel context.CancelFunc
}

func (m cancelAfter) PredictBatchDist(X *vecops.Matrix, mean, spread, lo, hi []float64) {
	if m.n.Add(1) == m.calls {
		m.cancel()
	}
	m.CostModel.PredictBatchDist(X, mean, spread, lo, hi)
}

// reuseJob is one optimization of TestRunMemoryReuse.
type reuseJob struct {
	l       *plan.Logical
	plats   int
	workers int
	model   core.CostModel
}

// runReuseJob runs job traced on a fresh Context and fingerprints what it
// decided; with cancelAt > 0 the run is cancelled at that model call. ok is
// false when the cancellation stopped the run.
func runReuseJob(t *testing.T, job reuseJob, cancelAt int64) (fp string, ok bool) {
	ctx := newCtx(t, job.l, job.plats)
	ctx.Workers = job.workers
	ctx.Trace = obs.NewTrace("reuse")
	run := context.Background()
	m := job.model
	if cancelAt > 0 {
		var cancel context.CancelFunc
		run, cancel = context.WithCancel(run)
		defer cancel()
		m = cancelAfter{CostModel: m, calls: cancelAt, n: new(atomic.Int64), cancel: cancel}
	}
	res, err := ctx.Optimize(run, m)
	if err != nil {
		if cancelAt > 0 && errors.Is(err, context.Canceled) {
			return "", false
		}
		t.Errorf("Optimize (%d platforms, %d workers): %v", job.plats, job.workers, err)
		return "", false
	}
	audit, err := json.Marshal(res.Trace)
	if err != nil {
		t.Errorf("marshal audit: %v", err)
	}
	return fmt.Sprintf("%v|%v|%+v|%s", res.Execution.Assign, res.Predicted, res.Stats.Counters(), audit), true
}

// TestRunMemoryReuse: a run that takes over a finished run's memory decides
// exactly what it would on new memory. Goroutines run a mix of plans over 2
// to 5 platforms, so consecutive runs on one memory change row width, plan
// size and worker count, and some runs are cancelled mid-enumeration, with
// the poison hook armed. Every completed run must match, bit for bit, the
// same optimization run alone on new memory: plan, Predicted, Counters() and
// the audit JSON.
func TestRunMemoryReuse(t *testing.T) {
	var jobs []reuseJob
	for i, plats := range []int{2, 3, 4, 5} {
		for _, l := range []*plan.Logical{
			workload.Pipeline(12+8*i, 1e9),
			workload.JoinTree(3+i%2, 1e8),
			workload.RandomDAG(16+4*i, 1e8, int64(31+i)),
		} {
			m := newLinModel(core.MustSchema(platform.Subset(plats)).Len(), int64(plats))
			for _, workers := range []int{1, 4} {
				jobs = append(jobs, reuseJob{l: l, plats: plats, workers: workers, model: m})
			}
		}
	}
	want := make([]string, len(jobs))
	for i, job := range jobs {
		core.DropSpareMemory()
		want[i], _ = runReuseJob(t, job, 0)
	}
	const goroutines = 4
	var wg sync.WaitGroup
	var cancelled atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for _, i := range rng.Perm(len(jobs)) {
				cancelAt := int64(0)
				if rng.Intn(4) == 0 {
					cancelAt = 1 + rng.Int63n(40)
				}
				got, ok := runReuseJob(t, jobs[i], cancelAt)
				if !ok {
					cancelled.Add(1)
				} else if got != want[i] {
					t.Errorf("job %d (%d platforms, %d workers, cancel at %d): the run on reused memory decided differently from the run on new memory",
						i, jobs[i].plats, jobs[i].workers, cancelAt)
				}
			}
		}(g)
	}
	wg.Wait()
	if cancelled.Load() == 0 {
		t.Error("no run was cancelled mid-enumeration")
	}
}

// TestRunMemoryMixedSizes replays the benchmark's paper-fig9 mix: 120
// serial optimizations of Pipeline(20), (40) and (80) over two platforms, in
// the order the benchmark shuffles them into with seed 1. It replays it with
// every run on new memory (DropSpareMemory first), on the memory of the run
// before, and on that memory with the poison hook armed. Every run must pick
// the same plan all three ways. Outside the race detector, which changes
// allocation counts, a run of each size may make at most 8 allocations more
// on new memory than on reused memory: what TestOptimizeAllocCeiling allows
// one size run alone, held here while the memory a run takes over was sized
// by a run of another size. Each count is the least of three replays.
func TestRunMemoryMixedSizes(t *testing.T) {
	sizes := []int{20, 40, 80}
	plats := platform.Subset(2)
	avail := platform.DefaultAvailability().Restrict(plats)
	m := newLinModel(core.MustSchema(plats).Len(), 1)
	order := make([]int, 120)
	for i := range order {
		order[i] = i % len(sizes)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	var plans []*plan.Logical
	for _, n := range sizes {
		plans = append(plans, workload.Pipeline(n, 1e9))
	}
	// replay runs the mix once and returns every run's plan and, per size,
	// the allocations of a run on average.
	replay := func(reuse, poison bool) (picked []string, allocs []float64) {
		mallocs := make([]uint64, len(sizes))
		var before, after runtime.MemStats
		for _, k := range order {
			ctx, err := core.NewContext(plans[k], plats, avail)
			if err != nil {
				t.Fatalf("NewContext: %v", err)
			}
			if poison {
				ctx.PoisonFreed()
			}
			if !reuse {
				core.DropSpareMemory()
			}
			runtime.ReadMemStats(&before)
			res, err := ctx.Optimize(context.Background(), m)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("Pipeline(%d): %v", sizes[k], err)
			}
			mallocs[k] += after.Mallocs - before.Mallocs
			picked = append(picked, fmt.Sprintf("%v|%v", res.Execution.Assign, res.Predicted))
		}
		for _, n := range mallocs {
			allocs = append(allocs, float64(n)/float64(len(order)/len(sizes)))
		}
		return picked, allocs
	}
	// As testing.AllocsPerRun does, count on one P, with the collector off
	// (see measureRuns) and after a first replay: on new memory it grows the
	// spare stack, on reused memory it sizes the memory for the largest run.
	// The count is the whole process's, so an allocation the runtime makes
	// for itself inside a window counts as the run's: a type switch with an
	// interface case (mlmodel.Specialize's) fills its cache on a random one
	// call in 1 024, once per dynamic type. Each size keeps its least count
	// over three replays, since such allocations only ever add.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := func(reuse bool) (picked []string, allocs []float64) {
		for i := 0; i < 3; i++ {
			if !reuse {
				runtime.GC()
			}
			p, a := replay(reuse, false)
			if i == 0 {
				picked, allocs = p, a
			} else if !slices.Equal(p, picked) {
				t.Fatalf("replay %d on reused=%v memory picked other plans than the first", i+1, reuse)
			}
			for k := range allocs {
				allocs[k] = min(allocs[k], a[k])
			}
		}
		return picked, allocs
	}
	replay(false, false)
	fresh, freshAllocs := least(false)
	runtime.GC()
	replay(true, false)
	reused, reusedAllocs := least(true)
	poisoned, _ := replay(true, true)
	for i, k := range order {
		if reused[i] != fresh[i] || poisoned[i] != fresh[i] {
			t.Fatalf("run %d, Pipeline(%d): new memory picked %s, reused memory %s, poisoned reused memory %s",
				i, sizes[k], fresh[i], reused[i], poisoned[i])
		}
	}
	for k, n := range sizes {
		t.Logf("Pipeline(%d): %.1f allocations on new memory, %.1f on reused memory", n, freshAllocs[k], reusedAllocs[k])
		if d := freshAllocs[k] - reusedAllocs[k]; !raceEnabled && d > 8 {
			t.Errorf("Pipeline(%d): a run on new memory makes %.1f allocations more than one on reused memory, at most 8", n, d)
		}
	}
}
