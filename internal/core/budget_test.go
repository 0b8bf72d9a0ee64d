package core_test

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simulator"
	"repro/internal/vecops"
	"repro/internal/workload"
)

// slowModel wraps a linear oracle with a per-call sleep, making model-call
// volume the dominant optimization cost — the regime of a real trained
// model, where cancellation latency is governed by the prune-loop check
// granularity rather than by arithmetic. It counts in late the calls that
// start after watch is done: the work an optimization still does once it has
// been told to stop.
type slowModel struct {
	inner linModel
	d     time.Duration
	watch context.Context
	late  *atomic.Int64
}

func (m slowModel) Predict(f []float64) float64 {
	if m.watch.Err() != nil {
		m.late.Add(1)
	}
	time.Sleep(m.d)
	return m.inner.Predict(f)
}

func (m slowModel) PredictBatchDist(X *vecops.Matrix, mean, spread, lo, hi []float64) {
	pointKernel(m.Predict, X, mean, spread, lo, hi)
}

// slowPlanCtx returns a context whose Optimize run takes multiple seconds
// under the given per-predict latency (hundreds of boundary-pruning model
// calls), so mid-run cancellation has a wide window to land in. The model
// counts the calls made after watch is done.
func slowPlanCtx(t *testing.T, watch context.Context) (*core.Context, slowModel) {
	t.Helper()
	l := workload.Pipeline(24, 1e7)
	ctx := newCtx(t, l, 3)
	return ctx, slowModel{inner: newAdditiveLinModel(ctx.Schema, 11), d: 2 * time.Millisecond, watch: watch, late: new(atomic.Int64)}
}

// checkStopsWithinOneBlock is the latency contract of cancellation, stated
// in model calls rather than wall-clock (which a loaded machine stretches):
// the cooperative checks at every heap-pop and before each prune block bound
// the work done after ctx is done to the block in flight — on this serial
// context, fewer than core.PruneBlock model calls.
func checkStopsWithinOneBlock(t *testing.T, m slowModel) {
	t.Helper()
	if late := m.late.Load(); late >= core.PruneBlock {
		t.Errorf("%d model calls started after the context was done, want fewer than one prune block of %d", late, core.PruneBlock)
	}
}

// TestOptimizeCancelReturnsQuickly cancels an optimization mid-enumeration
// and requires ctx.Err() back within one block of model calls.
func TestOptimizeCancelReturnsQuickly(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx, m := slowPlanCtx(t, cctx)
	done := make(chan error, 1)
	go func() {
		_, err := ctx.Optimize(cctx, m)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("optimization finished before cancellation (err=%v); plan too small for this test", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		checkStopsWithinOneBlock(t, m)
	case <-time.After(5 * time.Second):
		t.Fatal("optimization did not return after cancellation")
	}
}

// TestOptimizeHardDeadline gives a multi-second optimization a 50ms context
// deadline and requires context.DeadlineExceeded within one block of model
// calls of it.
func TestOptimizeHardDeadline(t *testing.T) {
	cctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	ctx, m := slowPlanCtx(t, cctx)
	_, err := ctx.Optimize(cctx, m)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	checkStopsWithinOneBlock(t, m)
}

// TestBudgetMaxVectorsDegrades exhausts the vector budget on a plan whose
// full enumeration is far larger and checks the graceful half of the
// contract: no error, Result.Degraded set with the exhausted dimension
// named, and a plan the simulator can actually execute.
func TestBudgetMaxVectorsDegrades(t *testing.T) {
	l := workload.Pipeline(12, 1e7)
	ctx := newCtx(t, l, 3)
	ctx.Budget = core.Budget{MaxVectors: 50}
	m := newAdditiveLinModel(ctx.Schema, 3)
	res, err := ctx.Optimize(context.Background(), m)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !res.Degraded || !res.Stats.Degraded {
		t.Fatalf("Degraded = %v / stats %v, want true after MaxVectors=50", res.Degraded, res.Stats.Degraded)
	}
	if res.Stats.DegradeReason != "max-vectors" {
		t.Errorf("DegradeReason = %q, want max-vectors", res.Stats.DegradeReason)
	}
	if len(res.Execution.Assign) != l.NumOps() {
		t.Fatalf("degraded plan assigns %d ops, want %d", len(res.Execution.Assign), l.NumOps())
	}
	run := simulator.Default().Run(res.Execution)
	if run.Label() == "" {
		t.Error("simulator produced no runtime label for the degraded plan")
	}
}

// TestBudgetDegradedDeterministic: budget degradation on a count dimension
// is a deterministic function of the enumeration, so Workers=1 and
// Workers=8 must produce byte-identical degraded assignments.
func TestBudgetDegradedDeterministic(t *testing.T) {
	l := workload.JoinTree(4, 1e9)
	results := make([]*core.Result, 2)
	for i, workers := range []int{1, 8} {
		ctx := newCtx(t, l, 3)
		ctx.Workers = workers
		ctx.Budget = core.Budget{MaxVectors: 100}
		m := newAdditiveLinModel(ctx.Schema, 7)
		res, err := ctx.Optimize(context.Background(), m)
		if err != nil {
			t.Fatalf("Optimize(workers=%d): %v", workers, err)
		}
		if !res.Degraded {
			t.Fatalf("workers=%d not degraded; budget too loose for this test", workers)
		}
		results[i] = res
	}
	a, b := results[0], results[1]
	if !bytes.Equal(assignBytes(a), assignBytes(b)) {
		t.Errorf("degraded assignments differ: %v vs %v", a.Execution.Assign, b.Execution.Assign)
	}
	if a.Stats.Counters() != b.Stats.Counters() {
		t.Errorf("degraded stats differ:\n serial: %+v\n parallel: %+v", a.Stats.Counters(), b.Stats.Counters())
	}
}

func assignBytes(r *core.Result) []byte {
	out := make([]byte, len(r.Execution.Assign))
	for i, p := range r.Execution.Assign {
		out[i] = byte(p)
	}
	return out
}

// TestBudgetMaxModelCallsDegrades exercises the model-call dimension: the
// cap trips, and the run sends the model fewer rows than an unbudgeted one.
func TestBudgetMaxModelCallsDegrades(t *testing.T) {
	l := workload.Pipeline(12, 1e7)
	ctx := newCtx(t, l, 3)
	m := newAdditiveLinModel(ctx.Schema, 5)
	free, err := ctx.Optimize(context.Background(), m)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	ctx.Budget = core.Budget{MaxModelCalls: 20}
	res, err := ctx.Optimize(context.Background(), m)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !res.Degraded || res.Stats.DegradeReason != "max-model-calls" {
		t.Fatalf("Degraded = %v reason %q, want degraded via max-model-calls", res.Degraded, res.Stats.DegradeReason)
	}
	if res.Stats.ModelRows >= free.Stats.ModelRows {
		t.Errorf("capped run sent %d rows, unbudgeted %d", res.Stats.ModelRows, free.Stats.ModelRows)
	}
	run := simulator.Default().Run(res.Execution)
	if run.Label() == "" {
		t.Error("simulator produced no runtime label for the degraded plan")
	}
}

// TestBudgetSoftDeadlineDegrades: the soft deadline degrades instead of
// cancelling — a multi-second slow-model run with a 30ms soft deadline must
// still return a valid plan, flagged degraded, with no error.
func TestBudgetSoftDeadlineDegrades(t *testing.T) {
	ctx, m := slowPlanCtx(t, context.Background())
	ctx.Budget = core.Budget{SoftDeadline: 30 * time.Millisecond}
	res, err := ctx.Optimize(context.Background(), m)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !res.Degraded || res.Stats.DegradeReason != "soft-deadline" {
		t.Fatalf("Degraded = %v reason %q, want degraded via soft-deadline", res.Degraded, res.Stats.DegradeReason)
	}
	if len(res.Execution.Assign) != ctx.Plan.NumOps() {
		t.Fatalf("degraded plan assigns %d ops, want %d", len(res.Execution.Assign), ctx.Plan.NumOps())
	}
}

// TestOversizedPlanMeetsDeadline is the latency contract end to end: a plan
// whose unpruned enumeration is ~3^20 vectors, a vector budget, and a 50ms
// hard deadline. The call must return within 2x the deadline, either with a
// degraded best-effort plan or with context.DeadlineExceeded.
func TestOversizedPlanMeetsDeadline(t *testing.T) {
	l := workload.Pipeline(20, 1e7)
	ctx := newCtx(t, l, 3)
	ctx.Budget = core.Budget{MaxVectors: 5000, SoftDeadline: 40 * time.Millisecond}
	m := newAdditiveLinModel(ctx.Schema, 9)
	const deadline = 50 * time.Millisecond
	cctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res, err := ctx.OptimizeOpts(cctx, m, core.NoPruner{}, core.OrderPriority)
	elapsed := time.Since(start)
	if elapsed > 2*deadline {
		t.Errorf("returned after %v, want ≤ %v", elapsed, 2*deadline)
	}
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want nil or context.DeadlineExceeded", err)
		}
		return
	}
	if !res.Degraded {
		t.Error("oversized plan completed undegraded; budget not applied")
	}
	if len(res.Execution.Assign) != l.NumOps() {
		t.Fatalf("plan assigns %d ops, want %d", len(res.Execution.Assign), l.NumOps())
	}
}
