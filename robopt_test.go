package robopt

import (
	"sync"
	"testing"

	"repro/internal/workload"
)

// trainOnce shares one quick-trained optimizer across the facade tests.
var (
	facadeOnce sync.Once
	facadeOpt  *Optimizer
	facadeErr  error
)

func quickOptimizer(t *testing.T) *Optimizer {
	t.Helper()
	facadeOnce.Do(func() {
		facadeOpt, facadeErr = Train(QuickTraining())
	})
	if facadeErr != nil {
		t.Fatalf("Train: %v", facadeErr)
	}
	return facadeOpt
}

func buildWordCount(t *testing.T) *Plan {
	t.Helper()
	b := NewPlanBuilder(120)
	src := b.Source(TextFileSource, "corpus", 1e7)
	words := b.Add(FlatMap, "split", Linear, 9, src)
	pairs := b.Add(Map, "pair", Logarithmic, 1, words)
	counts := b.Add(ReduceBy, "sum", Linear, 0.05, pairs)
	b.Add(CollectionSink, "collect", Logarithmic, 1, counts)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestTrainAndOptimize(t *testing.T) {
	opt := quickOptimizer(t)
	p := buildWordCount(t)
	res, err := opt.Optimize(p)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Execution == nil {
		t.Fatal("nil execution plan")
	}
	if err := res.Execution.Validate(DefaultAvailability()); err != nil {
		t.Fatalf("invalid plan: %v", err)
	}
	if res.PredictedRuntime < 0 {
		t.Errorf("negative prediction %g", res.PredictedRuntime)
	}
	if res.Stats.VectorsCreated == 0 {
		t.Error("no enumeration work recorded")
	}
	// The chosen plan must actually run on the simulated cluster.
	run := DefaultCluster().Run(res.Execution)
	if run.Failed() {
		t.Errorf("chosen plan failed: %s", run.Label())
	}
}

func TestOptimizeSinglePlatform(t *testing.T) {
	opt := quickOptimizer(t)
	p := buildWordCount(t)
	res, err := opt.OptimizeSinglePlatform(p)
	if err != nil {
		t.Fatalf("OptimizeSinglePlatform: %v", err)
	}
	plats := res.Execution.PlatformsUsed()
	if len(plats) != 1 {
		t.Fatalf("single-platform mode used %v", plats)
	}
	if len(res.Execution.Conversions) != 0 {
		t.Errorf("single-platform plan has %d conversions", len(res.Execution.Conversions))
	}
}

func TestPredictRuntime(t *testing.T) {
	opt := quickOptimizer(t)
	p := buildWordCount(t)
	assign := make([]Platform, p.NumOps())
	for i := range assign {
		assign[i] = Spark
	}
	v, err := opt.PredictRuntime(p, assign)
	if err != nil {
		t.Fatalf("PredictRuntime: %v", err)
	}
	if v < 0 {
		t.Errorf("negative prediction %g", v)
	}
	if _, err := opt.PredictRuntime(p, assign[:2]); err == nil {
		t.Error("accepted a short assignment")
	}
}

func TestOptimizerPrefersCheapPlans(t *testing.T) {
	// The chosen plan should be within a reasonable factor of the best
	// single-platform execution — the quick model is coarse, but it must
	// not pick pathological plans for a simple pipeline.
	opt := quickOptimizer(t)
	cluster := DefaultCluster()
	avail := DefaultAvailability()
	p := workload.WordCount(3e9)
	res, err := opt.Optimize(p)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	chosen := cluster.Run(res.Execution)
	best := 1e18
	for _, pl := range []Platform{Java, Spark, Flink} {
		r, err := cluster.RunAllOn(p, pl, avail)
		if err != nil {
			continue
		}
		if !r.Failed() && r.Runtime < best {
			best = r.Runtime
		}
	}
	if chosen.Failed() {
		t.Fatalf("chosen plan failed: %s", chosen.Label())
	}
	if chosen.Runtime > best*20 {
		t.Errorf("chosen plan %.1fs is pathological vs best single-platform %.1fs", chosen.Runtime, best)
	}
}

func TestNewOptimizerWithModel(t *testing.T) {
	model := constModel(7)
	opt := NewOptimizerWithModel(model, AllPlatforms(), DefaultAvailability())
	p := buildWordCount(t)
	res, err := opt.Optimize(p)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.PredictedRuntime != 7 {
		t.Errorf("prediction = %g, want 7", res.PredictedRuntime)
	}
}

type constModel float64

func (c constModel) Predict([]float64) float64 { return float64(c) }

func (c constModel) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	for i := 0; i < X.Rows; i++ {
		mean[i] = float64(c)
		if spread != nil {
			spread[i], lo[i], hi[i] = 0, mean[i], mean[i]
		}
	}
}
