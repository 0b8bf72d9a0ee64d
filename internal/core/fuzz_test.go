package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mlmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/vecops"
	"repro/internal/workload"
)

// FuzzEnumerate drives the full optimization — random DAG shapes, platform
// counts, worker counts and (tiny) budgets — and checks the invariants that
// must hold on every run, however degraded:
//
//   - the optimizer returns a plan, never panics and never errors without
//     cancellation;
//   - every pruning-audit record shrinks or preserves the enumeration
//     (VectorsOut ≤ VectorsIn);
//   - the selected plan is executable: one assignment per operator, each
//     assignment drawn from that operator's admissible platforms, and a
//     conversion on exactly the edges whose endpoints changed platform;
//   - scoring the run's rows in place changes nothing: for the latency
//     experiments' scorer and for a small fitted model of the served shape
//     (an Ensemble of LogTarget(GBM), whose forests gather the cells their
//     splits read), the model's own specialisation to the plan's live
//     columns and mlmodel.Specialize's expanding fallback for the same model
//     behind a wrapper without Specialize give bit-identical plans,
//     Predicted, Counters() and audit JSON;
//   - the winner's Result.Vector, expanded from the run's rows, is the plan
//     vector VectorizeExecution builds for its assignment (within
//     firstDiff's tolerance): the compact-vs-expanded comparison cannot see a
//     cell the run's rows drop, since both sides are built from them.
//
// Tiny budgets are the interesting corner: they flip the run into degraded
// beam mode mid-enumeration, which must truncate — not corrupt — the result.
func FuzzEnumerate(f *testing.F) {
	f.Add(int64(1), uint16(8), uint16(3), uint16(2), uint16(0), uint16(0))
	f.Add(int64(42), uint16(14), uint16(2), uint16(1), uint16(120), uint16(0))
	f.Add(int64(7), uint16(11), uint16(4), uint16(8), uint16(0), uint16(64))
	f.Add(int64(-3), uint16(19), uint16(3), uint16(4), uint16(9), uint16(9))
	f.Fuzz(func(t *testing.T, seed int64, nOpsRaw, nPlatsRaw, workersRaw, maxVec, maxMC uint16) {
		nOps := int(nOpsRaw)%16 + 4
		nPlats := int(nPlatsRaw)%3 + 2
		workers := int(workersRaw)%8 + 1
		l := workload.RandomDAG(nOps, 1e7, seed)
		budget := core.Budget{MaxVectors: int(maxVec % 300), MaxModelCalls: int(maxMC % 1024)}
		latency := experiments.NewHarness().LatencyModel(platform.Subset(nPlats))
		run := func(m core.CostModel) (*core.Result, string) {
			ctx := newCtx(t, l, nPlats)
			ctx.Workers = workers
			ctx.Budget = budget
			ctx.Trace = obs.NewTrace("fuzz")
			res, err := ctx.Optimize(context.Background(), m)
			if err != nil {
				t.Fatalf("Optimize failed (nOps=%d nPlats=%d workers=%d budget=%+v): %v",
					nOps, nPlats, workers, budget, err)
			}
			audit, err := json.Marshal(res.Trace)
			if err != nil {
				t.Fatalf("marshal audit: %v", err)
			}
			return res, string(audit)
		}
		var res *core.Result
		ctx := newCtx(t, l, nPlats)
		for _, m := range []core.CostModel{latency, fittedEnsemble(t, nPlats)} {
			got, audit := run(m)
			wide, wideAudit := run(unspecialized{m})
			if !slices.Equal(got.Execution.Assign, wide.Execution.Assign) ||
				math.Float64bits(got.Predicted) != math.Float64bits(wide.Predicted) ||
				got.Stats.Counters() != wide.Stats.Counters() || audit != wideAudit {
				t.Errorf("%s: compact and expanded rows disagree: predicted %v / %v, counters %+v / %+v",
					mlmodel.FamilyName(m), got.Predicted, wide.Predicted, got.Stats.Counters(), wide.Stats.Counters())
			}
			want := ctx.VectorizeExecution(got.Vector.Assign).F
			if c := firstDiff(got.Vector.F, want); c >= 0 {
				t.Errorf("%s: the winner's cell %d reads %v, its plan vector %v", mlmodel.FamilyName(m), c, got.Vector.F[c], want[c])
			}
			if res == nil {
				res = got
			}
		}
		for _, rec := range res.Trace.Prunes {
			if rec.VectorsOut > rec.VectorsIn {
				t.Errorf("step %d: prune grew the enumeration %d -> %d", rec.Step, rec.VectorsIn, rec.VectorsOut)
			}
		}
		if got := len(res.Execution.Assign); got != l.NumOps() {
			t.Fatalf("plan assigns %d operators, logical plan has %d", got, l.NumOps())
		}
		for i, p := range res.Execution.Assign {
			ok := false
			for _, alt := range ctx.Alternatives(plan.OpID(i)) {
				if ctx.Schema.Platforms[alt] == p {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("op %d assigned inadmissible platform %s", i, p)
			}
		}
		switches := 0
		for _, e := range l.Edges() {
			if res.Execution.Assign[e.From] != res.Execution.Assign[e.To] {
				switches++
			}
		}
		if switches != len(res.Execution.Conversions) {
			t.Errorf("%d platform switches but %d conversions", switches, len(res.Execution.Conversions))
		}
	})
}

// unspecialized hides every method of the model but the two of CostModel, so
// the run scores it through mlmodel.Specialize's expanding fallback.
type unspecialized struct{ core.CostModel }

// additiveDistModel is the additive oracle with an additive uncertainty: the
// spread is a second nonnegative linear function of the same cells, so every
// selection score mean + λ·spread is itself additive across merges and
// Lemma 1 applies to it for any λ.
type additiveDistModel struct{ mean, spread linModel }

func newAdditiveDistModel(s *core.Schema, seed int64) additiveDistModel {
	m := additiveDistModel{newAdditiveLinModel(s, seed), newAdditiveLinModel(s, seed+1)}
	for i := range m.spread.w {
		m.spread.w[i] *= 0.05
	}
	return m
}

func (m additiveDistModel) Predict(f []float64) float64 { return m.mean.Predict(f) }

func (m additiveDistModel) PredictBatchDist(X *vecops.Matrix, mean, spread, lo, hi []float64) {
	for i := 0; i < X.Rows; i++ {
		mu, s := m.mean.Predict(X.Row(i)), m.spread.Predict(X.Row(i))
		mean[i] = mu
		if spread != nil {
			spread[i], lo[i], hi[i] = s, mu-1.645*s, mu+1.645*s
		}
	}
}

// survivorLog wraps a pruner and records, per pruned scope, which
// assignments survived. Tasks prune concurrently, hence the lock.
type survivorLog struct {
	inner   core.Pruner
	mu      sync.Mutex
	byScope map[string]map[string]bool
}

func (l *survivorLog) Prune(ctx context.Context, c *core.Context, e *core.Enumeration, st *core.Stats) {
	l.inner.Prune(ctx, c, e, st)
	kept := make(map[string]bool, len(e.Vectors))
	for _, v := range e.Vectors {
		kept[string(v.Assign)] = true
	}
	l.mu.Lock()
	l.byScope[fmt.Sprint(e.Scope.IDs())] = kept
	l.mu.Unlock()
}

// FuzzPruneLossless is Lemma 1 as a fuzz target, for the one prune routine
// under every setting it serves: on random small DAGs with an additive
// oracle, pruned enumeration — keeping one vector per footprint or the
// near-ties too, any λ, any traversal order, any
// worker count — selects a plan scoring exactly what exhaustive enumeration
// finds. And keeping near-ties only ever adds: for every scope both runs
// pruned, the KeepOverlap survivors include every keep-one survivor (each
// group's winner is the group's true optimum, whatever else rides along).
func FuzzPruneLossless(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(59), uint8(9), uint8(1), uint8(3), uint8(2), uint8(0))
	f.Add(int64(-8), uint8(7), uint8(1), uint8(7), uint8(3), uint8(3))
	f.Add(int64(307), uint8(8), uint8(0), uint8(1), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nOpsRaw, nPlatsRaw, workersRaw, lambdaRaw, orderRaw uint8) {
		nOps := int(nOpsRaw)%6 + 4
		nPlats := int(nPlatsRaw)%2 + 2
		workers := int(workersRaw)%8 + 1
		// λ ≤ 1.5 keeps a plan's score inside its own 1.645σ interval.
		lambda := float64(lambdaRaw%4) * 0.5
		order := core.OrderPolicy(orderRaw % 3)
		l := workload.RandomDAG(nOps, 1e7, seed)
		newContext := func(keepOverlap bool) *core.Context {
			ctx := newCtx(t, l, nPlats)
			ctx.Workers = workers
			ctx.Risk = core.Risk{Lambda: lambda, KeepOverlap: keepOverlap}
			return ctx
		}
		m := newAdditiveDistModel(newContext(false).Schema, seed+11)
		full, err := newContext(false).OptimizeExhaustive(context.Background(), m, 0)
		if err != nil {
			t.Fatalf("OptimizeExhaustive: %v", err)
		}
		var logs [2]*survivorLog
		for i, keepOverlap := range []bool{false, true} {
			logs[i] = &survivorLog{inner: core.BoundaryPruner{}, byScope: map[string]map[string]bool{}}
			res, err := newContext(keepOverlap).OptimizeOpts(context.Background(), m, logs[i], order)
			if err != nil {
				t.Fatalf("OptimizeOpts (keepOverlap=%v): %v", keepOverlap, err)
			}
			if diff := math.Abs(res.Predicted - full.Predicted); diff > 1e-9*math.Max(1, math.Abs(full.Predicted)) {
				t.Errorf("keepOverlap=%v λ=%g order=%d workers=%d: pruned optimum %.17g, exhaustive %.17g",
					keepOverlap, lambda, order, workers, res.Predicted, full.Predicted)
			}
		}
		for scope, point := range logs[0].byScope {
			overlap, ok := logs[1].byScope[scope]
			if !ok {
				continue // near-ties changed the enumeration sizes, and with them the priority order
			}
			for assign := range point {
				if !overlap[assign] {
					t.Errorf("scope %s: keep-one survivor %v is missing from the KeepOverlap run", scope, []byte(assign))
				}
			}
		}
	})
}
