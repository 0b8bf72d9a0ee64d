package core

// Ablation micro-benchmarks for the design choices DESIGN.md calls out:
// the packed-uint64 pruning footprint vs the string fallback, and the
// unrolled vector kernels vs a naive loop, plus the merge and prune hot
// paths themselves.

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mlmodel"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/vecops"
	"repro/internal/workload"
)

func benchContext(b *testing.B, nOps, nPlats int) *Context {
	b.Helper()
	pb := plan.NewBuilder(100)
	cur := pb.Source(platform.TextFileSource, "src", 1e7)
	for i := 0; i < nOps-2; i++ {
		cur = pb.Add(platform.Map, "m", platform.Linear, 0.9, cur)
	}
	pb.Add(platform.CollectionSink, "sink", platform.Logarithmic, 1, cur)
	l, err := pb.Build()
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := NewContext(l, platform.Subset(nPlats), platform.UniformAvailability(nPlats))
	if err != nil {
		b.Fatal(err)
	}
	return ctx
}

// BenchmarkAblationFootprint compares the packed-uint64 footprint key with
// the string fallback on identical assignments.
func BenchmarkAblationFootprint(b *testing.B) {
	assign := make([]uint8, 64)
	for i := range assign {
		assign[i] = uint8(i % 5)
	}
	narrow := make([]plan.OpID, 12)
	for i := range narrow {
		narrow[i] = plan.OpID(i * 3)
	}
	wide := make([]plan.OpID, 24)
	for i := range wide {
		wide[i] = plan.OpID(i * 2)
	}
	b.Run("PackedUint64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, packed := footprintKey(assign, narrow); !packed {
				b.Fatal("expected packed key")
			}
		}
	})
	b.Run("StringFallback", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, packed := footprintKey(assign, wide); packed {
				b.Fatal("expected string key")
			}
		}
	})
}

// BenchmarkAblationVecops compares the unrolled add kernel against a naive
// loop at plan-vector width.
func BenchmarkAblationVecops(b *testing.B) {
	s := MustSchema(platform.All())
	x := make([]float64, s.Len())
	y := make([]float64, s.Len())
	dst := make([]float64, s.Len())
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) * 2
	}
	b.Run("Unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vecops.Add(dst, x, y)
		}
	})
	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vecops.AddNaive(dst, x, y)
		}
	})
}

// BenchmarkMerge measures the plan-vector merge operation — the inner loop
// of the entire enumeration.
func BenchmarkMerge(b *testing.B) {
	ctx := benchContext(b, 20, 5)
	ctx.beginRun(0)
	a := ctx.enumerateSingleton(3, nil)
	c := ctx.enumerateSingleton(4, nil)
	info := ctx.MergeInfo(a, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Merge(a.Vectors[0], c.Vectors[0], info, nil)
	}
}

// BenchmarkVectorizeSubplan measures the per-call plan-to-vector
// transformation the Rheem-ML baseline pays on every model invocation.
func BenchmarkVectorizeSubplan(b *testing.B) {
	ctx := benchContext(b, 20, 5)
	assign := map[plan.OpID]uint8{}
	for i := 0; i < 10; i++ {
		assign[plan.OpID(i)] = uint8(i % 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.VectorizeSubplan(assign)
	}
}

// BenchmarkPrune measures boundary pruning over a realistic enumeration.
func BenchmarkPrune(b *testing.B) {
	ctx := benchContext(b, 8, 3)
	model := weightModel{}
	e, err := ctx.Enumerate(context.Background(), plan.FullBitset(ctx.Plan.NumOps()), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	orig := make([]*Vector, len(e.Vectors))
	copy(orig, e.Vectors)
	mat := e.mat
	ctx.bind(model)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Restore the enumeration as Enumerate laid it out, unscored:
		// measure inference, not hits on the previous iteration's scores.
		e.Vectors, e.mat = append(e.Vectors[:0], orig...), mat
		for _, v := range e.Vectors {
			v.scored = false
		}
		BoundaryPruner{}.Prune(context.Background(), ctx, e, nil)
	}
}

// BenchmarkAblationBatch compares one merge+prune step of the enumeration on
// the pre-batching scalar path (per-pair allocating Merge, one model call
// per vector) against the batch path (merge into the worker scratch, one
// kernel call over the product's feature matrix) at the scale of Figure
// 9a's 40-operator pipeline.
func BenchmarkAblationBatch(b *testing.B) {
	ctx := benchContext(b, 40, 2)
	model := weightModel{}
	// Pre-build the step's inputs: an 11-operator prefix enumeration
	// (2^11 vectors) about to be merged with the next singleton —
	// 4096 merge pairs scored by one prune.
	prefix := plan.NewBitset(40)
	for id := plan.OpID(0); id < 11; id++ {
		prefix.Set(id)
	}
	left, err := ctx.Enumerate(context.Background(), prefix, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	right := ctx.enumerateSingleton(plan.OpID(11), nil)
	pairs, nr := len(left.Vectors)*len(right.Vectors), len(right.Vectors)
	info := ctx.MergeInfo(left, right)
	scope := left.Scope.Union(right.Scope)
	boundary := ctx.boundaryOf(scope, nil)
	ctx.bind(model)

	b.Run("ScalarPredict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			merged := &Enumeration{Scope: scope, Boundary: boundary,
				Vectors: make([]*Vector, 0, pairs)}
			for j := 0; j < pairs; j++ {
				merged.Vectors = append(merged.Vectors, ctx.Merge(left.Vectors[j/nr], right.Vectors[j%nr], info, nil))
			}
			for _, v := range merged.Vectors {
				v.Cost, v.scored = model.Predict(v.F), true
			}
			ctx.pruneGroups(context.Background(), merged, nil)
		}
	})
	b.Run("PredictBatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			merged := ctx.scratch.product(ctx.store, scope, pairs)
			merged.Boundary = boundary
			for j, v := range merged.Vectors {
				ctx.mergeInto(v, left.Vectors[j/nr], right.Vectors[j%nr], info, nil)
			}
			BoundaryPruner{}.Prune(context.Background(), ctx, merged, nil)
		}
	})
}

// BenchmarkParallelEnumeration compares the serial and parallel enumeration
// paths on a large pipeline — the parallelism opportunity the paper's
// algebraic operations are designed to expose.
func BenchmarkParallelEnumeration(b *testing.B) {
	for _, workers := range []int{1, 8} {
		ctx := benchContext(b, 60, 5)
		ctx.Workers = workers
		m := weightModel{}
		name := "serial"
		if workers > 1 {
			name = "workers=8"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ctx.Optimize(context.Background(), m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelEnumerate measures the full optimization with the worker
// pool sized to GOMAXPROCS, so one `go test -cpu 1,2,4,8` run sweeps the
// scaling curve (CI's -cpu matrix leg does exactly that; the benchmark
// ledger's core.parallel_speedup_x tracks the ratio). Two shapes at Figure 9a's 40-operator scale: a
// pipeline, whose rounds fan many independent boundary tasks across the
// pool, and a multi-branch DAG, where the boundary-tie guard serializes the
// hole-closing join merges and stresses work stealing instead. A third case
// is the benchmark's paper-fig9 setting, serial whatever GOMAXPROCS is: the
// 80-operator pipeline on two platforms, where the time goes to the
// concatenations' arithmetic and bookkeeping rather than to the pool. A
// fourth is Figure 9c's k = 5 cell, also serial: the 20-operator pipeline on
// five platforms.
func BenchmarkParallelEnumerate(b *testing.B) {
	m := weightModel{}
	b.Run("pipeline40x2", func(b *testing.B) {
		ctx := benchContext(b, 40, 2)
		ctx.Workers = runtime.GOMAXPROCS(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Optimize(context.Background(), m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipeline80x2serial", func(b *testing.B) {
		ctx, err := NewContext(workload.Pipeline(80, 1e9), platform.Subset(2), platform.DefaultAvailability())
		if err != nil {
			b.Fatal(err)
		}
		ctx.Workers = 1
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Optimize(context.Background(), m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipeline20x5serial", func(b *testing.B) {
		ctx, err := NewContext(workload.Pipeline(20, 1e9), platform.Subset(5), platform.UniformAvailability(5))
		if err != nil {
			b.Fatal(err)
		}
		ctx.Workers = 1
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Optimize(context.Background(), m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dag40x3", func(b *testing.B) {
		l := workload.RandomDAG(40, 1e7, 4)
		ctx, err := NewContext(l, platform.Subset(3), platform.UniformAvailability(3))
		if err != nil {
			b.Fatal(err)
		}
		ctx.Workers = runtime.GOMAXPROCS(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Optimize(context.Background(), m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOptimizeMix is the benchmark's paper-fig9 mix in one loop: a
// serial cold optimization (NewContext and Optimize) of Pipeline(20), (40)
// or (80) over two platforms per iteration, in the order the benchmark
// shuffles them into with seed 1. Runs take over each other's memory as they
// do there, so the reported allocations per run are what the ledger's
// allocs_per_op reads, less its harness.
func BenchmarkOptimizeMix(b *testing.B) {
	sizes := []int{20, 40, 80}
	plats := platform.Subset(2)
	avail := platform.DefaultAvailability().Restrict(plats)
	var plans []*plan.Logical
	for _, n := range sizes {
		plans = append(plans, workload.Pipeline(n, 1e9))
	}
	order := make([]int, 120)
	for i := range order {
		order[i] = i % len(sizes)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	m := weightModel{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx, err := NewContext(plans[order[i%len(order)]], plats, avail)
		if err != nil {
			b.Fatal(err)
		}
		ctx.Workers = 1
		if _, err := ctx.Optimize(context.Background(), m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRiskPrune measures what keeping near-ties costs at Figure 9a's
// 40-operator scale: the same pipeline, scored by the same distributional
// batch, optimized with zero Risk (one survivor per pruning group) and with
// λ=0.5 plus overlap pruning (up to four per group, so later enumerations
// are larger). The benchmark ledger tracks the same pair as
// core.optimize_ms and core.risk_optimize_ms.
func BenchmarkRiskPrune(b *testing.B) {
	m := distWeightModel{}
	b.Run("PointScoring", func(b *testing.B) {
		ctx := benchContext(b, 40, 2)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Optimize(context.Background(), m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DistScoring", func(b *testing.B) {
		ctx := benchContext(b, 40, 2)
		ctx.Risk = Risk{Lambda: 0.5, KeepOverlap: true}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Optimize(context.Background(), m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// weightModel scores a row as the sum of its cells, the cell of Schema
// column col weighted by col mod 7. A zero weightModel scores Schema-width
// rows. Specialize gives it the weights of a run's live columns, so the
// benchmarks score the run's rows in place, bit-identical to the zero model
// on the expanded row (the other cells are 0), and time merging and pruning
// rather than the expansion to Schema width.
type weightModel struct{ w []float64 }

func (m weightModel) Predict(f []float64) float64 {
	s := 0.0
	if m.w != nil {
		for i, v := range f {
			s += v * m.w[i]
		}
		return s
	}
	for i, v := range f {
		s += v * float64(i%7)
	}
	return s
}

// PredictBatchDist scores each row with the same arithmetic as Predict, with
// zero spread: a point-only model for the benchmarks above.
func (m weightModel) PredictBatchDist(X *vecops.Matrix, mean, spread, lo, hi []float64) {
	for i := 0; i < X.Rows; i++ {
		mean[i] = m.Predict(X.Row(i))
		if spread != nil {
			spread[i], lo[i], hi[i] = 0, mean[i], mean[i]
		}
	}
}

func (m weightModel) Specialize(cols []int) mlmodel.Model {
	w := make([]float64, len(cols))
	for i, col := range cols {
		w[i] = float64(col % 7)
	}
	return weightModel{w}
}

// distWeightModel extends weightModel with a cheap synthetic uncertainty so
// BenchmarkRiskPrune exercises the full four-column distributional path. It
// specialises to itself, so the spread survives the run's binding.
type distWeightModel struct{ weightModel }

func (m distWeightModel) Specialize(cols []int) mlmodel.Model {
	return distWeightModel{m.weightModel.Specialize(cols).(weightModel)}
}

func (m distWeightModel) PredictBatchDist(X *vecops.Matrix, mean, spread, lo, hi []float64) {
	m.weightModel.PredictBatchDist(X, mean, nil, nil, nil)
	for i := 0; spread != nil && i < X.Rows; i++ {
		s := 0.01 * mean[i]
		if s < 0 {
			s = -s
		}
		spread[i] = s
		lo[i] = mean[i] - 1.645*s
		hi[i] = mean[i] + 1.645*s
	}
}
