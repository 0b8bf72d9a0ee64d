package baselines_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/simulator"
	"repro/internal/vecops"
	"repro/internal/workload"
)

// additiveOracle scores subplans with a simple additive function of
// operator platform choices plus conversion counts, so the exhaustive
// optimum is computable by brute force.
type additiveOracle struct {
	l *plan.Logical
	// perPlat[p] is the per-operator cost on platform p.
	perPlat [platform.NumPlatforms]float64
	conv    float64
}

func (o additiveOracle) Estimate(sp *baselines.SubPlan) float64 {
	s := 0.0
	for _, p := range sp.Ops {
		s += o.perPlat[p]
	}
	return s + float64(len(sp.Convs))*o.conv
}

func (o additiveOracle) estimateExecution(x *plan.Execution) float64 {
	s := 0.0
	for _, p := range x.Assign {
		s += o.perPlat[p]
	}
	return s + float64(len(x.Conversions))*o.conv
}

func TestObjectEnumerationFindsExhaustiveOptimum(t *testing.T) {
	l := workload.RunningExample()
	plats := platform.Subset(2)
	avail := platform.UniformAvailability(2)
	oracle := additiveOracle{l: l, conv: 0.5}
	oracle.perPlat[platform.Java] = 1.0
	oracle.perPlat[platform.Spark] = 1.2

	opt := &baselines.Optimizer{Plan: l, Avail: avail, Plats: plats, Oracle: oracle}
	res, err := opt.Optimize()
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}

	// Brute force the 2^9 assignments.
	best := math.Inf(1)
	n := l.NumOps()
	for mask := 0; mask < 1<<n; mask++ {
		assign := make([]platform.ID, n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				assign[i] = platform.Spark
			} else {
				assign[i] = platform.Java
			}
		}
		x, err := plan.NewExecution(l, assign)
		if err != nil {
			t.Fatalf("NewExecution: %v", err)
		}
		if c := oracle.estimateExecution(x); c < best {
			best = c
		}
	}
	if math.Abs(res.Predicted-best) > 1e-9 {
		t.Fatalf("object enumeration optimum %g != exhaustive %g", res.Predicted, best)
	}
	if res.Stats.SubplansCreated == 0 || res.Stats.OracleCalls == 0 {
		t.Errorf("stats unpopulated: %+v", res.Stats)
	}
}

// TestObjectAndVectorEnumerationsAgree: RHEEMix's object-based search and
// Robopt's vector-based search must find equally cheap plans when driven by
// the same (linear) oracle — the representations differ, not the algorithm.
func TestObjectAndVectorEnumerationsAgree(t *testing.T) {
	c := simulator.Default()
	cm := costmodel.WellTuned(c, 100)
	for _, build := range []func() *plan.Logical{
		workload.RunningExample,
		func() *plan.Logical { return workload.Pipeline(8, 1e8) },
		func() *plan.Logical { return workload.JoinTree(1, 1e8) },
	} {
		l := build()
		plats := platform.Subset(3)
		avail := platform.UniformAvailability(3)

		obj := &baselines.Optimizer{Plan: l, Avail: avail, Plats: plats,
			Oracle: baselines.CostOracle{Plan: l, Model: cm}}
		objRes, err := obj.Optimize()
		if err != nil {
			t.Fatalf("object Optimize: %v", err)
		}
		objCost := cm.EstimateExecution(objRes.Execution)

		// Vector search with the cost model as oracle requires an
		// adapter: score each full plan via the cost model by brute
		// force over the same search (use exhaustive for these small
		// plans to get the true optimum).
		bestCost := math.Inf(1)
		ctx, err := core.NewContext(l, plats, avail)
		if err != nil {
			t.Fatalf("NewContext: %v", err)
		}
		e, err := ctx.Enumerate(context.Background(), ctx.Vectorize(), 0, nil)
		if err != nil {
			t.Fatalf("Enumerate: %v", err)
		}
		for _, v := range e.Vectors {
			x, err := ctx.Unvectorize(v)
			if err != nil {
				t.Fatalf("Unvectorize: %v", err)
			}
			if c := cm.EstimateExecution(x); c < bestCost {
				bestCost = c
			}
		}
		if objCost > bestCost*1.000001 {
			t.Errorf("%d-op plan: object search found %g, true optimum %g", l.NumOps(), objCost, bestCost)
		}
	}
}

func TestMLOracleMatchesDirectPrediction(t *testing.T) {
	l := workload.RunningExample()
	plats := platform.Subset(2)
	avail := platform.UniformAvailability(2)
	ctx, err := core.NewContext(l, plats, avail)
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	model := predictFunc(func(f []float64) float64 {
		s := 0.0
		for _, v := range f {
			s += v
		}
		return s
	})
	oracle := baselines.MLOracle{Ctx: ctx, Model: model}

	sp := &baselines.SubPlan{Ops: map[plan.OpID]platform.ID{0: platform.Spark, 1: platform.Java}}
	got := oracle.Estimate(sp)
	want := model.Predict(ctx.VectorizeSubplan(map[plan.OpID]uint8{
		0: uint8(ctx.Schema.PlatIndex(platform.Spark)),
		1: uint8(ctx.Schema.PlatIndex(platform.Java)),
	}).F)
	if got != want {
		t.Fatalf("MLOracle = %g, direct = %g", got, want)
	}
}

type predictFunc func([]float64) float64

func (f predictFunc) Predict(x []float64) float64 { return f(x) }

func (f predictFunc) PredictBatchDist(X *vecops.Matrix, mean, spread, lo, hi []float64) {
	for i := 0; i < X.Rows; i++ {
		mean[i] = f(X.Row(i))
		if spread != nil {
			spread[i], lo[i], hi[i] = 0, mean[i], mean[i]
		}
	}
}

func TestCostOracleCountsStartupOncePerPlatform(t *testing.T) {
	c := simulator.Default()
	cm := costmodel.WellTuned(c, 100)
	l := workload.Pipeline(5, 1e6)
	oracle := baselines.CostOracle{Plan: l, Model: cm}
	one := oracle.Estimate(&baselines.SubPlan{Ops: map[plan.OpID]platform.ID{1: platform.Spark}})
	two := oracle.Estimate(&baselines.SubPlan{Ops: map[plan.OpID]platform.ID{1: platform.Spark, 2: platform.Spark}})
	// Adding a second Spark operator must not re-add Spark's startup.
	opCost := cm.OpCost(platform.Spark, l.Op(2).Kind, l.Op(2).UDF, l.Op(2).InputCard, l.Op(2).OutputCard)
	if math.Abs(two-one-opCost) > 1e-9*two {
		t.Errorf("startup double-charged: one=%g two=%g opCost=%g", one, two, opCost)
	}
}

func TestOptimizerRejectsImpossiblePlan(t *testing.T) {
	l := workload.WordCount(1 * workload.MB)
	opt := &baselines.Optimizer{
		Plan:  l,
		Avail: platform.NewAvailability(), // nothing registered
		Plats: platform.Subset(2),
		Oracle: baselines.CostOracle{
			Plan:  l,
			Model: costmodel.WellTuned(simulator.Default(), 100),
		},
	}
	if _, err := opt.Optimize(); err == nil {
		t.Fatal("Optimize accepted a plan with no available operators")
	}
}
