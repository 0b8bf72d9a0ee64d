package core_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/vecops"
	"repro/internal/workload"
)

// tracedRun optimizes l over nPlats platforms on workers goroutines with a
// one-shot trace attached and returns the result (whose Trace is the audit
// under test) and the finished trace's snapshot.
func tracedRun(t *testing.T, l *plan.Logical, nPlats, workers int) (*core.Result, obs.TraceSnapshot) {
	t.Helper()
	ctx := newCtx(t, l, nPlats)
	ctx.Workers = workers
	m := newLinModel(ctx.Schema.Len(), 7)
	ctx.Trace = obs.NewTrace("test-run")
	res, err := ctx.Optimize(context.Background(), m)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Trace == nil {
		t.Fatal("traced run returned no RunTrace")
	}
	ctx.Trace.End()
	return res, ctx.Trace.Snapshot()
}

// TestTracedOptimizeSpanCoverage asserts the span tree covers the algebra
// operations plus the scheduler's round/task grouping under one root —
// vectorize/split/enumerate/unvectorize and the round spans hang off the
// root, task spans off rounds, merge/prune spans off tasks.
func TestTracedOptimizeSpanCoverage(t *testing.T) {
	_, snap := tracedRun(t, workload.Pipeline(8, 1e6), 3, 1)

	seen := map[string]int{}
	nameOf := map[int]string{}
	for _, s := range snap.Spans {
		seen[s.Name]++
		nameOf[s.ID] = s.Name
		if s.Name == "optimize" && s.Parent != -1 {
			t.Errorf("optimize span has parent %d", s.Parent)
		}
	}
	for _, want := range []string{"optimize", "vectorize", "enumerate", "split", "round", "task", "merge", "prune", "unvectorize"} {
		if seen[want] == 0 {
			t.Errorf("span %q missing from trace (have %v)", want, seen)
		}
	}
	wantParent := map[string]string{
		"vectorize":   "optimize",
		"split":       "optimize",
		"enumerate":   "optimize",
		"unvectorize": "optimize",
		"round":       "optimize",
		"task":        "round",
		"merge":       "task",
		"prune":       "task",
	}
	for _, s := range snap.Spans {
		if want, ok := wantParent[s.Name]; ok {
			if got := nameOf[s.Parent]; got != want {
				t.Errorf("span %s parented to %q (id %d), want %q", s.Name, got, s.Parent, want)
			}
		}
	}
}

// TestTracedSpanVocabulary pins what a traced run writes where: every fact
// about an enumeration step lives in its PruneRecord, so a span carries its
// duration and only the identifiers that join it to the records, and the
// optimize span carries the run summary and the audit itself. Pipelines, join
// trees and random DAGs, serial and on a pool.
func TestTracedSpanVocabulary(t *testing.T) {
	allowed := map[string][]string{
		"optimize":    {"ops", "searchSpace", "vectorsCreated", "pruned", "modelRows", "memoHits", "rounds", "tasks", "steals", "maxQueueDepth", "degraded", "degradeReason"},
		"vectorize":   nil,
		"split":       nil,
		"enumerate":   nil,
		"round":       {"round"},
		"task":        {"worker", "stolen"},
		"merge":       {"step", "left", "right"},
		"prune":       {"step"},
		"unvectorize": nil,
	}
	required := map[string][]string{
		"round": {"round"},
		"task":  {"worker"},
		"merge": {"step", "left", "right"},
		"prune": {"step"},
	}
	plans := map[string]*plan.Logical{
		"pipeline": workload.Pipeline(12, 1e8),
		"jointree": workload.JoinTree(4, 1e8),
		"dag":      workload.RandomDAG(16, 1e8, 5),
	}
	for name, l := range plans {
		for _, workers := range []int{1, 4} {
			res, snap := tracedRun(t, l, 3, workers)
			var pruneSteps, mergeSteps []int
			for _, s := range snap.Spans {
				keys, known := allowed[s.Name]
				if !known {
					t.Errorf("%s/w%d: unexpected span %q", name, workers, s.Name)
					continue
				}
				for k := range s.Attrs {
					if !slices.Contains(keys, k) {
						t.Errorf("%s/w%d: %s span carries %q", name, workers, s.Name, k)
					}
				}
				for _, k := range required[s.Name] {
					if _, ok := s.Attrs[k]; !ok {
						t.Errorf("%s/w%d: %s span lacks %q", name, workers, s.Name, k)
					}
				}
				if s.Detail != nil && s.Name != "optimize" {
					t.Errorf("%s/w%d: %s span carries a detail", name, workers, s.Name)
				}
				switch s.Name {
				case "prune":
					pruneSteps = append(pruneSteps, int(s.Attrs["step"].(int64)))
				case "merge":
					mergeSteps = append(mergeSteps, int(s.Attrs["step"].(int64)))
				case "optimize":
					if s.Detail != res.Trace {
						t.Errorf("%s/w%d: optimize span detail is %T, want the run's audit", name, workers, s.Detail)
					}
				}
			}
			var recSteps []int
			for i, rec := range res.Trace.Prunes {
				if rec.Step != i {
					t.Errorf("%s/w%d: record %d is step %d", name, workers, i, rec.Step)
				}
				recSteps = append(recSteps, rec.Step)
			}
			slices.Sort(pruneSteps)
			slices.Sort(mergeSteps)
			if !slices.Equal(pruneSteps, recSteps) || !slices.Equal(mergeSteps, recSteps) {
				t.Errorf("%s/w%d: prune span steps %v, merge span steps %v, audit steps %v",
					name, workers, pruneSteps, mergeSteps, recSteps)
			}
			if want := l.NumOps() - 1; len(recSteps) != want {
				t.Errorf("%s/w%d: %d audit records for %d concatenations", name, workers, len(recSteps), want)
			}
		}
	}
}

// TestSummaryTrace pins what a run records on a trace that is not detailed
// (a tracer's trace whose sample draw missed): its optimize span alone,
// carrying the summary a detailed run's optimize span carries plus the stage
// timings, no audit on the span or on Result.Trace, and the same plan and
// counters as a detailed run (bar the pool's steals and queue depth, which
// vary between any two runs). A degraded run adds its reason; a failed run
// records its error.
func TestSummaryTrace(t *testing.T) {
	stages := []string{"vectorizeMs", "enumerateMs", "mergeMs", "pruneMs", "unvectorizeMs", "inferMs"}
	summary := func(t *testing.T, l *plan.Logical, workers int, budget core.Budget, ctxRun context.Context) (*core.Result, obs.TraceSnapshot, error) {
		ctx := newCtx(t, l, 3)
		ctx.Workers, ctx.Budget = workers, budget
		ctx.Trace = obs.NewTracer(1, 0, 0).Start("summary")
		res, err := ctx.Optimize(ctxRun, newLinModel(ctx.Schema.Len(), 7))
		ctx.Trace.End()
		return res, ctx.Trace.Snapshot(), err
	}
	plans := map[string]*plan.Logical{
		"pipeline": workload.Pipeline(12, 1e8),
		"jointree": workload.JoinTree(4, 1e8),
		"dag":      workload.RandomDAG(16, 1e8, 5),
	}
	for name, l := range plans {
		for _, workers := range []int{1, 4} {
			detailed, dsnap := tracedRun(t, l, 3, workers)
			res, snap, err := summary(t, l, workers, core.Budget{}, context.Background())
			if err != nil {
				t.Fatalf("%s/w%d: %v", name, workers, err)
			}
			if res.Trace != nil {
				t.Errorf("%s/w%d: a summary run returned an audit", name, workers)
			}
			if len(snap.Spans) != 1 || snap.Spans[0].Name != "optimize" || snap.Spans[0].Detail != nil {
				t.Fatalf("%s/w%d: summary trace = %+v, want one optimize span without a detail", name, workers, snap.Spans)
			}
			if !slices.Equal(res.Execution.Assign, detailed.Execution.Assign) || res.Predicted != detailed.Predicted ||
				res.Stats.Counters() != detailed.Stats.Counters() {
				t.Errorf("%s/w%d: the summary run's plan or counters differ from the detailed run's", name, workers)
			}
			attrs, want := snap.Spans[0].Attrs, dsnap.Spans[0].Attrs
			if len(attrs) != len(want)+len(stages) {
				t.Errorf("%s/w%d: summary attributes %v, want the detailed run's %v and the stages", name, workers, attrs, want)
			}
			for k, v := range want {
				// Steals and queue depth vary between runs of a pool.
				if _, ok := attrs[k]; !ok || attrs[k] != v && k != "steals" && k != "maxQueueDepth" {
					t.Errorf("%s/w%d: summary %s = %v, detailed %v", name, workers, k, attrs[k], v)
				}
			}
			for _, k := range stages {
				if ms, ok := attrs[k].(float64); !ok || ms < 0 {
					t.Errorf("%s/w%d: stage timing %s = %v", name, workers, k, attrs[k])
				}
			}
		}
	}

	l := workload.Pipeline(12, 1e8)
	res, snap, err := summary(t, l, 1, core.Budget{ForceDegraded: true}, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a := snap.Spans[0].Attrs; len(snap.Spans) != 1 || a["degraded"] != true || a["degradeReason"] != res.Stats.DegradeReason {
		t.Errorf("degraded summary trace = %+v", snap.Spans)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, snap, err = summary(t, l, 1, core.Budget{}, canceled); err == nil || snap.Error != err.Error() || len(snap.Spans) != 1 {
		t.Errorf("failed summary run: err %v, trace error %q, %d spans", err, snap.Error, len(snap.Spans))
	}
}

// TestOpContribsMatchSubplanVectors checks the per-operator contributions,
// scored as one batch, bit for bit against the model's score of
// VectorizeSubplan's one-operator subplan alone, for every operator of a
// pipeline longer than a kernel block, a join tree and a random DAG: under a
// model without Specialize (rows expanded a kernel block at a time), the
// served shape (its specialisation reads compact rows) and the same model
// behind a wrapper without Specialize.
func TestOpContribsMatchSubplanVectors(t *testing.T) {
	fitted := fittedEnsemble(t, 3)
	for name, l := range map[string]*plan.Logical{
		"pipeline": workload.Pipeline(40, 1e8),
		"jointree": workload.JoinTree(3, 1e8),
		"dag":      workload.RandomDAG(14, 1e8, 9),
	} {
		for mname, m := range map[string]core.CostModel{
			"linear":                 newLinModel(core.MustSchema(platform.Subset(3)).Len(), 11),
			"ensemble":               fitted,
			"ensemble/unspecialized": unspecialized{fitted},
		} {
			ctx := newCtx(t, l, 3)
			ctx.Trace = obs.NewTrace(name)
			res, err := ctx.Optimize(context.Background(), m)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mname, err)
			}
			if len(res.Trace.OpContribs) != l.NumOps() {
				t.Fatalf("%s/%s: %d contributions for %d operators", name, mname, len(res.Trace.OpContribs), l.NumOps())
			}
			cost := make([]float64, 1)
			for _, oc := range res.Trace.OpContribs {
				id := plan.OpID(oc.Op)
				ref := ctx.VectorizeSubplan(map[plan.OpID]uint8{id: res.Vector.Assign[id]})
				m.PredictBatchDist(&vecops.Matrix{Data: ref.F, Rows: 1, Cols: len(ref.F)}, cost, nil, nil, nil)
				if math.Float64bits(oc.Cost) != math.Float64bits(cost[0]) {
					t.Errorf("%s/%s: op %d contributes %v, its subplan vector scores %v", name, mname, oc.Op, oc.Cost, cost[0])
				}
			}
		}
	}
}

// TestPruneAuditMatchesStats cross-checks the typed audit trail against the
// run's Stats: on a non-degraded run every discarded vector is accounted for
// by exactly one prune record, and the per-record inference tallies sum to
// the run totals.
func TestPruneAuditMatchesStats(t *testing.T) {
	res, _ := tracedRun(t, workload.Pipeline(9, 1e6), 3, 1)
	if res.Degraded {
		t.Fatal("unbudgeted run degraded")
	}
	pruned, rows, hits := 0, 0, 0
	for _, rec := range res.Trace.Prunes {
		if rec.VectorsOut > rec.VectorsIn {
			t.Errorf("step %d: vectors %d -> %d", rec.Step, rec.VectorsIn, rec.VectorsOut)
		}
		if rec.BestCost > rec.WorstCost {
			t.Errorf("step %d: best %g > worst %g", rec.Step, rec.BestCost, rec.WorstCost)
		}
		if bp := rec.BestPruned; bp != nil {
			if bp.Margin < 0 {
				t.Errorf("step %d: negative losing margin %g", rec.Step, bp.Margin)
			}
			if len(bp.BoundaryAssign) != len(rec.Boundary) || len(bp.SurvivorAssign) != len(rec.Boundary) {
				t.Errorf("step %d: boundary assign lengths %d/%d vs %d boundary ops",
					rec.Step, len(bp.BoundaryAssign), len(bp.SurvivorAssign), len(rec.Boundary))
			}
		}
		pruned += rec.VectorsIn - rec.VectorsOut
		rows += rec.ModelRows
		hits += rec.MemoHits
	}
	if pruned != res.Stats.Pruned {
		t.Errorf("audit accounts for %d pruned vectors, Stats.Pruned = %d", pruned, res.Stats.Pruned)
	}
	// getOptimal's final scoring runs outside any prune record, so the audit
	// totals are bounded by (not equal to) the run totals.
	if rows > res.Stats.ModelRows {
		t.Errorf("audit model rows %d exceed Stats.ModelRows %d", rows, res.Stats.ModelRows)
	}
	if hits > res.Stats.MemoHits {
		t.Errorf("audit memo hits %d exceed Stats.MemoHits %d", hits, res.Stats.MemoHits)
	}
}

// TestUntracedRunStaysClean pins the default: without Context.Trace the
// result must carry no trace and Explain must refuse.
func TestUntracedRunStaysClean(t *testing.T) {
	ctx := newCtx(t, workload.Pipeline(6, 1e6), 2)
	m := newLinModel(ctx.Schema.Len(), 1)
	res, err := ctx.Optimize(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("untraced run recorded a trace")
	}
	if _, err := res.Explain(); err == nil {
		t.Fatal("Explain succeeded without a trace")
	}
}

// TestTracingDoesNotChangeTheAnswer runs the same optimization with and
// without a trace: instrumentation must be observation-only.
func TestTracingDoesNotChangeTheAnswer(t *testing.T) {
	l := workload.Pipeline(8, 1e6)
	plain := newCtx(t, l, 3)
	traced := newCtx(t, l, 3)
	traced.Trace = obs.NewTrace("x")
	m := newLinModel(plain.Schema.Len(), 3)
	r1, err := plain.Optimize(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := traced.Optimize(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Predicted != r2.Predicted {
		t.Errorf("predicted cost changed under tracing: %g vs %g", r1.Predicted, r2.Predicted)
	}
	for i := range r1.Execution.Assign {
		if r1.Execution.Assign[i] != r2.Execution.Assign[i] {
			t.Fatalf("assignment changed under tracing at op %d", i)
		}
	}
	if r1.Stats.Counters() != r2.Stats.Counters() {
		t.Errorf("stats changed under tracing: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

// TestExplainReport checks the derived explanation names the winning
// platform of every operator (matching the execution plan exactly), the
// runner-up plan, and only boundaries that discarded something.
func TestExplainReport(t *testing.T) {
	res, _ := tracedRun(t, workload.Pipeline(8, 1e6), 3, 1)
	ex, err := res.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Predicted != res.Predicted {
		t.Errorf("explanation predicts %g, result %g", ex.Predicted, res.Predicted)
	}
	if len(ex.Operators) != len(res.Execution.Assign) {
		t.Fatalf("%d operator choices for %d operators", len(ex.Operators), len(res.Execution.Assign))
	}
	for _, oc := range ex.Operators {
		if want := res.Execution.Assign[oc.Op].String(); oc.Platform != want {
			t.Errorf("op %d: explanation says %s, plan says %s", oc.Op, oc.Platform, want)
		}
		if oc.Cost < 0 {
			t.Errorf("op %d: negative contribution %g", oc.Op, oc.Cost)
		}
	}
	if ex.Final == nil {
		t.Fatal("no final selection in explanation")
	}
	if ex.Final.BestCost != res.Predicted {
		t.Errorf("final best cost %g != predicted %g", ex.Final.BestCost, res.Predicted)
	}
	if ru := ex.Final.RunnerUp; ru != nil {
		if ru.Margin < 0 {
			t.Errorf("runner-up margin %g < 0", ru.Margin)
		}
		if len(ru.Assign) != len(res.Execution.Assign) {
			t.Errorf("runner-up names %d assignments, want %d", len(ru.Assign), len(res.Execution.Assign))
		}
	}
	for _, rec := range ex.Boundaries {
		if rec.BestPruned == nil {
			t.Error("explanation includes a boundary that discarded nothing")
		}
	}
	if out := ex.String(); len(out) == 0 {
		t.Error("empty text report")
	}
}
