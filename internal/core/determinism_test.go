package core_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mlmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/workload"
)

// This file is the parallel-enumeration determinism property suite: for
// random DAGs across the paper's size range, every trained model family and
// Workers ∈ {1,2,4,8}, the optimizer must produce byte-identical plans,
// schedule-invariant counters and an identical pruning audit trail. The
// scheduler's contract is that worker count is a pure throughput knob; any
// divergence here means a data race or an interleaving-dependent decision
// leaked into the result.

// fitFamilies trains one small model of every family this repo implements on
// a seeded synthetic dataset of the given feature width. The models are
// deliberately tiny — the suite exercises the scheduler, not model quality —
// but they are real fitted models, so prune decisions flow through the same
// tree/ensemble/batch inference paths production uses.
func fitFamilies(t *testing.T, width int, seed int64) map[string]core.CostModel {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := &mlmodel.Dataset{}
	w := make([]float64, width)
	for i := range w {
		w[i] = rng.Float64()
	}
	for r := 0; r < 160; r++ {
		x := make([]float64, width)
		y := 0.0
		for i := range x {
			x[i] = rng.Float64() * 10
			y += w[i] * x[i]
		}
		ds.Append(x, y+rng.NormFloat64())
	}
	tree, err := mlmodel.FitTree(ds, mlmodel.TreeConfig{MaxDepth: 5, Seed: seed})
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	forest, err := mlmodel.FitForest(ds, mlmodel.ForestConfig{Trees: 5, MaxDepth: 6, Seed: seed})
	if err != nil {
		t.Fatalf("FitForest: %v", err)
	}
	gbm, err := mlmodel.FitGBM(ds, mlmodel.GBMConfig{Trees: 25, MaxDepth: 3, LR: 0.2, MinLeaf: 2, Seed: seed})
	if err != nil {
		t.Fatalf("FitGBM: %v", err)
	}
	lin, err := mlmodel.FitLinear(ds)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	mlp, err := mlmodel.FitMLP(ds, mlmodel.MLPConfig{Hidden: 8, Epochs: 15, Seed: seed})
	if err != nil {
		t.Fatalf("FitMLP: %v", err)
	}
	return map[string]core.CostModel{
		"tree":     tree,
		"forest":   forest,
		"gbm":      gbm,
		"linear":   lin,
		"mlp":      mlp,
		"ensemble": mlmodel.Ensemble{Models: []mlmodel.Model{tree, lin, gbm}},
	}
}

// detRun is the comparable fingerprint of one traced optimization.
type detRun struct {
	assign    []byte
	predicted float64
	counters  core.Stats
	prunes    string // JSON of the audit records, the full prune-decision log
}

func runDeterministic(t *testing.T, l *plan.Logical, m core.CostModel, workers int) detRun {
	t.Helper()
	ctx := newCtx(t, l, 3)
	ctx.Workers = workers
	ctx.Trace = obs.NewTrace("determinism")
	res, err := ctx.Optimize(context.Background(), m)
	if err != nil {
		t.Fatalf("Optimize (workers=%d): %v", workers, err)
	}
	assign := make([]byte, len(res.Execution.Assign))
	for i, p := range res.Execution.Assign {
		assign[i] = byte(p)
	}
	raw, err := json.Marshal(res.Trace.Prunes)
	if err != nil {
		t.Fatalf("marshal audit: %v", err)
	}
	return detRun{
		assign:    assign,
		predicted: res.Predicted,
		counters:  res.Stats.Counters(),
		prunes:    string(raw),
	}
}

// TestParallelDeterminismProperty is the suite's main property: for random
// DAGs of 20-60 operators, every model family, and Workers ∈ {1,2,4,8}, the
// final plan bytes, Stats.Counters() and the PruneRecord sequence are
// identical to the serial run.
func TestParallelDeterminismProperty(t *testing.T) {
	cases := []struct {
		name string
		nOps int
		seed int64
	}{
		{"dag20", 20, 101},
		{"dag33", 33, 211},
		{"dag47", 47, 307},
		{"dag60", 60, 401},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, cs := range cases {
		cs := cs
		t.Run(cs.name, func(t *testing.T) {
			l := workload.RandomDAG(cs.nOps, 1e8, cs.seed)
			probe := newCtx(t, l, 3)
			families := fitFamilies(t, probe.Schema.Len(), cs.seed+7)
			for _, fam := range []string{"tree", "forest", "gbm", "linear", "mlp", "ensemble"} {
				fam := fam
				m := families[fam]
				t.Run(fam, func(t *testing.T) {
					t.Parallel()
					serial := runDeterministic(t, l, m, 1)
					for _, workers := range []int{2, 4, 8} {
						par := runDeterministic(t, l, m, workers)
						if string(par.assign) != string(serial.assign) {
							t.Errorf("workers=%d: plan bytes diverge\nserial: %v\npar:    %v", workers, serial.assign, par.assign)
						}
						if par.predicted != serial.predicted {
							t.Errorf("workers=%d: predicted cost %g != %g", workers, par.predicted, serial.predicted)
						}
						if par.counters != serial.counters {
							t.Errorf("workers=%d: counters diverge\nserial: %+v\npar:    %+v", workers, serial.counters, par.counters)
						}
						if par.prunes != serial.prunes {
							t.Errorf("workers=%d: pruning audit trail diverges", workers)
						}
					}
				})
			}
		})
	}
}

// TestParallelDeterminismUnderBudget extends the property to degraded runs: a
// count budget must trip at the same concatenation whatever the worker count,
// because tasks probe the caps against the round barrier's frozen counters
// rather than a live shared total.
func TestParallelDeterminismUnderBudget(t *testing.T) {
	l := workload.RandomDAG(30, 1e8, 77)
	probe := newCtx(t, l, 3)
	families := fitFamilies(t, probe.Schema.Len(), 79)
	m := families["forest"]
	run := func(workers int) detRun {
		t.Helper()
		ctx := newCtx(t, l, 3)
		ctx.Workers = workers
		ctx.Budget = core.Budget{MaxVectors: 600}
		ctx.Trace = obs.NewTrace("determinism-budget")
		res, err := ctx.Optimize(context.Background(), m)
		if err != nil {
			t.Fatalf("Optimize (workers=%d): %v", workers, err)
		}
		if !res.Degraded {
			t.Fatalf("workers=%d: budget of 600 vectors did not degrade a 30-op DAG", workers)
		}
		assign := make([]byte, len(res.Execution.Assign))
		for i, p := range res.Execution.Assign {
			assign[i] = byte(p)
		}
		raw, err := json.Marshal(res.Trace.Prunes)
		if err != nil {
			t.Fatalf("marshal audit: %v", err)
		}
		return detRun{assign: assign, predicted: res.Predicted, counters: res.Stats.Counters(), prunes: string(raw)}
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 8} {
		par := run(workers)
		if string(par.assign) != string(serial.assign) || par.predicted != serial.predicted {
			t.Errorf("workers=%d: degraded plan diverges from serial", workers)
		}
		if par.counters != serial.counters {
			t.Errorf("workers=%d: degraded counters diverge\nserial: %+v\npar:    %+v", workers, serial.counters, par.counters)
		}
		if par.prunes != serial.prunes {
			t.Errorf("workers=%d: degraded audit trail diverges", workers)
		}
	}
}
