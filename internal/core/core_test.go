package core_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/vecops"
	"repro/internal/workload"
)

// linModel is an additive cost oracle: a fixed positive linear function of
// the feature vector. Linear oracles over the *additive* cells make the
// boundary pruning exactly lossless (cost differences between
// same-footprint vectors are invariant under any completion), so exhaustive
// and pruned optima must coincide. The max-merged cells (per-platform peak
// bytes, dataset tuple size) are excluded: a cost depending on them is not
// decomposable, and pruning against it is heuristic — exactly as it is for
// the paper's ML model.
type linModel struct{ w []float64 }

func newLinModel(n int, seed int64) linModel {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64()
	}
	return linModel{w}
}

// newAdditiveLinModel zeroes the weights of max-merged cells so the oracle
// is strictly additive across merges.
func newAdditiveLinModel(s *core.Schema, seed int64) linModel {
	m := newLinModel(s.Len(), seed)
	for pi := 0; pi < len(s.Platforms); pi++ {
		m.w[s.MaxBytesCell(pi)] = 0
	}
	m.w[s.DatasetCell()] = 0
	return m
}

func (m linModel) Predict(f []float64) float64 {
	s := 0.0
	for i, v := range f {
		s += m.w[i] * v
	}
	return s
}

// PredictBatchDist is the point-only kernel, written on the concrete type so
// TestOptimizeAllocCeiling counts the enumeration's allocations, not a
// fake's (the method value does not escape pointKernel).
func (m linModel) PredictBatchDist(X *vecops.Matrix, mean, spread, lo, hi []float64) {
	pointKernel(m.Predict, X, mean, spread, lo, hi)
}

// pointKernel is the kernel of a point-only fake: predict per row, and zero
// spread with lo = hi = mean when asked.
func pointKernel(predict func([]float64) float64, X *vecops.Matrix, mean, spread, lo, hi []float64) {
	for i := 0; i < X.Rows; i++ {
		mean[i] = predict(X.Row(i))
		if spread != nil {
			spread[i], lo[i], hi[i] = 0, mean[i], mean[i]
		}
	}
}

// newCtx builds the suite's contexts with the store's poison hook armed: a
// vector read after its row was freed, or a scratch cell a merge left stale,
// is a NaN cost or an out-of-range platform in whatever the test checks.
func newCtx(t testing.TB, l *plan.Logical, nPlats int) *core.Context {
	t.Helper()
	ctx, err := core.NewContext(l, platform.Subset(nPlats), platform.UniformAvailability(nPlats))
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	ctx.PoisonFreed()
	return ctx
}

func TestSchemaLayout(t *testing.T) {
	s := core.MustSchema(platform.Subset(3))
	seen := map[int]string{}
	record := func(idx int, name string) {
		if prev, ok := seen[idx]; ok {
			t.Fatalf("cell %d used by both %s and %s", idx, prev, name)
		}
		if idx < 0 || idx >= s.Len() {
			t.Fatalf("cell %d (%s) out of range [0,%d)", idx, name, s.Len())
		}
		seen[idx] = name
	}
	record(core.TopoPipeline, "pipeline")
	record(core.TopoJuncture, "juncture")
	record(core.TopoReplicate, "replicate")
	record(core.TopoLoop, "loop")
	for _, k := range s.Kinds {
		record(s.OpTotalCell(k), "total")
		for pi := 0; pi < len(s.Platforms); pi++ {
			record(s.OpPlatformCell(k, pi), "perPlat")
		}
		for topo := 0; topo < 4; topo++ {
			record(s.OpInTopologyCell(k, topo), "inTopo")
		}
		record(s.OpUDFCell(k), "udf")
		record(s.OpInCardCell(k), "inCard")
		record(s.OpOutCardCell(k), "outCard")
		for pi := 0; pi < len(s.Platforms); pi++ {
			record(s.OpPlatInCardCell(k, pi), "platInCard")
			record(s.OpPlatOutCardCell(k, pi), "platOutCard")
		}
	}
	for pi := 0; pi < len(s.Platforms); pi++ {
		record(s.MovePlatformCell(pi), "move")
	}
	record(s.MoveInCardCell(), "moveIn")
	record(s.MoveOutCardCell(), "moveOut")
	for pi := 0; pi < len(s.Platforms); pi++ {
		record(s.LoadCell(pi), "load")
		record(s.ShuffleLoadCell(pi), "shuffleLoad")
		record(s.PlatOpsCell(pi), "platOps")
		record(s.IOBytesCell(pi), "ioBytes")
		record(s.MaxBytesCell(pi), "maxBytes")
	}
	record(s.DatasetCell(), "dataset")
	if len(seen) != s.Len() {
		t.Fatalf("schema has %d cells but only %d are addressable", s.Len(), len(seen))
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := core.NewSchema(nil); err == nil {
		t.Error("NewSchema accepted an empty platform list")
	}
	if _, err := core.NewSchema([]platform.ID{platform.Java, platform.Java}); err == nil {
		t.Error("NewSchema accepted duplicate platforms")
	}
	if _, err := core.NewSchema([]platform.ID{platform.ID(99)}); err == nil {
		t.Error("NewSchema accepted an invalid platform")
	}
}

func TestVectorizeTopologyMatchesAnalyze(t *testing.T) {
	for _, l := range []*plan.Logical{
		workload.RunningExample(),
		workload.Pipeline(12, 1e8),
		workload.JoinTree(3, 1e8),
		workload.Kmeans(1e8, workload.DefaultKmeans),
	} {
		ctx := newCtx(t, l, 2)
		f := ctx.VectorizeExecution(make([]uint8, l.NumOps())).F
		topo := l.AnalyzeTopology()
		if got := f[core.TopoPipeline]; got != float64(topo.Pipelines) {
			t.Errorf("%d-op plan: pipeline cell = %g, want %d", l.NumOps(), got, topo.Pipelines)
		}
		if got := f[core.TopoJuncture]; got != float64(topo.Junctures) {
			t.Errorf("juncture cell = %g, want %d", got, topo.Junctures)
		}
		if got := f[core.TopoLoop]; got != float64(topo.Loops) {
			t.Errorf("loop cell = %g, want %d", got, topo.Loops)
		}
	}
}

func TestEnumerateCountsAreExhaustive(t *testing.T) {
	l := workload.Pipeline(5, 1e6)
	for k := 2; k <= 4; k++ {
		ctx := newCtx(t, l, k)
		e, err := ctx.Enumerate(context.Background(), plan.FullBitset(l.NumOps()), 0, nil)
		if err != nil {
			t.Fatalf("Enumerate: %v", err)
		}
		want := math.Pow(float64(k), float64(l.NumOps()))
		if float64(len(e.Vectors)) != want {
			t.Errorf("k=%d: enumerated %d plans, want %g", k, len(e.Vectors), want)
		}
		if got := ctx.SearchSpaceSize(); got != want {
			t.Errorf("SearchSpaceSize = %g, want %g", got, want)
		}
	}
}

func TestEnumerateRespectsCap(t *testing.T) {
	l := workload.Pipeline(10, 1e6)
	ctx := newCtx(t, l, 3)
	if _, err := ctx.Enumerate(context.Background(), plan.FullBitset(l.NumOps()), 100, nil); err == nil {
		t.Fatal("Enumerate ignored maxVectors")
	}
}

// TestMergeCommutative: merge(a,b) and merge(b,a) produce identical vectors.
func TestMergeCommutative(t *testing.T) {
	l := workload.RunningExample()
	ctx := newCtx(t, l, 3)
	var st core.Stats
	full, err := ctx.EnumerateFull(context.Background(), core.NoPruner{}, core.OrderPriority, &st)
	if err != nil {
		t.Fatalf("EnumerateFull: %v", err)
	}
	_ = full
	// Rebuild two adjacent singleton enumerations and merge both ways.
	a, errA := ctx.Enumerate(context.Background(), singletonScope(l, 0), 0, nil)
	b, errB := ctx.Enumerate(context.Background(), singletonScope(l, 1), 0, nil)
	if errA != nil || errB != nil {
		t.Fatalf("singleton enumerate: %v %v", errA, errB)
	}
	// A MergeCtx lives in the worker scratch until the next MergeInfo.
	for _, va := range a.Vectors {
		for _, vb := range b.Vectors {
			m1 := ctx.Merge(va, vb, ctx.MergeInfo(a, b), nil)
			m2 := ctx.Merge(vb, va, ctx.MergeInfo(b, a), nil)
			if !floatsEqual(m1.F, m2.F) {
				t.Fatalf("merge not commutative:\n%v\n%v", m1, m2)
			}
			for i := range m1.Assign {
				if m1.Assign[i] != m2.Assign[i] {
					t.Fatalf("assignment differs at op %d", i)
				}
			}
		}
	}
}

func singletonScope(l *plan.Logical, id plan.OpID) plan.Bitset {
	sc := plan.NewBitset(l.NumOps())
	sc.Set(id)
	return sc
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMergeTreeIndependence: merging singleton vectors in any random binary
// tree order yields exactly the same vector as the one-pass
// VectorizeExecution — the associativity the paper's merge semantics
// require. The run's rows hold only the plan's live columns, so the plans
// include one of three operator kinds, whose blocks are few and far apart.
func TestMergeTreeIndependence(t *testing.T) {
	few := plan.NewBuilder(100)
	head := few.Source(platform.TextFileSource, "src", 1e5)
	for i := 0; i < 6; i++ {
		head = few.Add(platform.Map, "map", platform.Linear, 0.9, head)
	}
	few.Add(platform.CollectionSink, "sink", platform.Logarithmic, 1, head)
	plans := []*plan.Logical{
		workload.RunningExample(),
		workload.Pipeline(9, 1e7),
		workload.JoinTree(2, 1e7),
		workload.Kmeans(1e7, workload.DefaultKmeans),
		workload.RandomDAG(12, 1e7, 7),
		few.MustBuild(),
	}
	rng := rand.New(rand.NewSource(42))
	for pi, l := range plans {
		ctx := newCtx(t, l, 3)
		for trial := 0; trial < 20; trial++ {
			assign := make([]uint8, l.NumOps())
			for i := range assign {
				alts := ctx.Alternatives(plan.OpID(i))
				assign[i] = alts[rng.Intn(len(alts))]
			}
			want := ctx.VectorizeExecution(assign)

			// Build singleton enumerations restricted to the chosen
			// platform, then merge in a random order.
			type item struct {
				e *core.Enumeration
				v *core.Vector
			}
			var items []item
			for i := 0; i < l.NumOps(); i++ {
				e, err := ctx.Enumerate(context.Background(), singletonScope(l, plan.OpID(i)), 0, nil)
				if err != nil {
					t.Fatalf("enumerate: %v", err)
				}
				var chosen *core.Vector
				for _, v := range e.Vectors {
					if v.Assign[i] == assign[i] {
						chosen = v
					}
				}
				e.Vectors = []*core.Vector{chosen}
				items = append(items, item{e, chosen})
			}
			for len(items) > 1 {
				i := rng.Intn(len(items))
				j := rng.Intn(len(items))
				if i == j {
					continue
				}
				info := ctx.MergeInfo(items[i].e, items[j].e)
				merged := ctx.Merge(items[i].v, items[j].v, info, nil)
				e := &core.Enumeration{
					Scope:    items[i].e.Scope.Union(items[j].e.Scope),
					Boundary: info.Boundary(),
					Vectors:  []*core.Vector{merged},
				}
				items[i] = item{e, merged}
				items = append(items[:j], items[j+1:]...)
			}
			got := ctx.Wide(items[0].v)
			// Cardinality sums accumulate in different orders across
			// merge trees, so compare with float tolerance.
			for c := range got {
				diff := math.Abs(got[c] - want.F[c])
				if diff > 1e-9*math.Abs(want.F[c])+1e-12 {
					t.Fatalf("plan %d trial %d: cell %d = %g, want %g", pi, trial, c, got[c], want.F[c])
				}
			}
		}
	}
}

// TestBoundaryPruningLossless: with an additive oracle, the priority-based
// enumeration with boundary pruning finds a plan with exactly the same cost
// as the exhaustive optimum (Definition 2's guarantee).
func TestBoundaryPruningLossless(t *testing.T) {
	// Plans stay small (≤10 operators) because the reference optimum is the
	// k^n exhaustive enumeration.
	plans := []*plan.Logical{
		workload.RunningExample(),
		workload.Pipeline(7, 1e7),
		workload.JoinTree(1, 1e7),
		workload.RandomDAG(10, 1e7, 3),
		workload.Kmeans(1e7, workload.DefaultKmeans),
	}
	for pi, l := range plans {
		for k := 2; k <= 3; k++ {
			ctx := newCtx(t, l, k)
			for seed := int64(0); seed < 5; seed++ {
				m := newAdditiveLinModel(ctx.Schema, seed*31+int64(pi))
				pruned, err := ctx.Optimize(context.Background(), m)
				if err != nil {
					t.Fatalf("Optimize: %v", err)
				}
				exh, err := ctx.OptimizeExhaustive(context.Background(), m, 0)
				if err != nil {
					t.Fatalf("OptimizeExhaustive: %v", err)
				}
				if math.Abs(pruned.Predicted-exh.Predicted) > 1e-9*math.Abs(exh.Predicted)+1e-12 {
					t.Errorf("plan %d k=%d seed %d: pruned optimum %.9g != exhaustive %.9g",
						pi, k, seed, pruned.Predicted, exh.Predicted)
				}
				if pruned.Stats.VectorsCreated >= exh.Stats.VectorsCreated && l.NumOps() > 7 {
					t.Errorf("pruning did not reduce work: %d vs %d",
						pruned.Stats.VectorsCreated, exh.Stats.VectorsCreated)
				}
			}
		}
	}
}

// TestAllOrdersFindOptimal: the traversal order changes the work, never the
// answer (pruning stays lossless under any order).
func TestAllOrdersFindOptimal(t *testing.T) {
	l := workload.JoinTree(3, 1e7)
	ctx := newCtx(t, l, 3)
	m := newAdditiveLinModel(ctx.Schema, 99)
	var costs []float64
	for _, order := range []core.OrderPolicy{core.OrderPriority, core.OrderTopDown, core.OrderBottomUp} {
		res, err := ctx.OptimizeOpts(context.Background(), m, core.BoundaryPruner{}, order)
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		costs = append(costs, res.Predicted)
	}
	for i := 1; i < len(costs); i++ {
		if math.Abs(costs[i]-costs[0]) > 1e-9*costs[0] {
			t.Fatalf("orders disagree on the optimum: %v", costs)
		}
	}
}

// TestLemma1PipelineQuadratic: with boundary pruning, pipeline enumerations
// stay quadratic in the number of platforms (Lemma 1): every pruned
// enumeration holds at most k² vectors and total work is polynomial, in
// contrast to the k^n exhaustive space.
func TestLemma1PipelineQuadratic(t *testing.T) {
	for _, n := range []int{5, 10, 20} {
		for k := 2; k <= 5; k++ {
			l := workload.Pipeline(n, 1e7)
			ctx := newCtx(t, l, k)
			m := newLinModel(ctx.Schema.Len(), int64(n*k))
			res, err := ctx.Optimize(context.Background(), m)
			if err != nil {
				t.Fatalf("Optimize: %v", err)
			}
			if res.Stats.PeakEnumSize > k*k*k*k {
				t.Errorf("n=%d k=%d: peak enumeration %d exceeds k⁴=%d",
					n, k, res.Stats.PeakEnumSize, k*k*k*k)
			}
			bound := n * k * k * k * k // loose polynomial bound
			if res.Stats.VectorsCreated > bound {
				t.Errorf("n=%d k=%d: created %d vectors, polynomial bound %d",
					n, k, res.Stats.VectorsCreated, bound)
			}
			if exp := math.Pow(float64(k), float64(n)); n >= 10 && float64(res.Stats.VectorsCreated) >= exp {
				t.Errorf("n=%d k=%d: created %d vectors, not below exhaustive %g",
					n, k, res.Stats.VectorsCreated, exp)
			}
		}
	}
}

func TestUnvectorizeProducesValidExecution(t *testing.T) {
	l := workload.RunningExample()
	ctx := newCtx(t, l, 3)
	m := newLinModel(ctx.Schema.Len(), 5)
	res, err := ctx.Optimize(context.Background(), m)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	x := res.Execution
	if err := x.Validate(platform.UniformAvailability(3)); err != nil {
		t.Fatalf("invalid execution: %v", err)
	}
	// Conversions appear exactly on platform-switch edges.
	switches := 0
	for _, e := range l.Edges() {
		if x.Assign[e.From] != x.Assign[e.To] {
			switches++
		}
	}
	if switches != len(x.Conversions) {
		t.Errorf("conversions = %d, switch edges = %d", len(x.Conversions), switches)
	}
}

func TestUnvectorizeRejectsPartial(t *testing.T) {
	l := workload.RunningExample()
	ctx := newCtx(t, l, 2)
	v := &core.Vector{Assign: make([]uint8, l.NumOps())}
	for i := range v.Assign {
		v.Assign[i] = core.Unassigned
	}
	if _, err := ctx.Unvectorize(v); err == nil {
		t.Fatal("Unvectorize accepted a partial vector")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	l := workload.JoinTree(3, 1e8)
	ctx := newCtx(t, l, 3)
	m := newLinModel(ctx.Schema.Len(), 11)
	r1, err1 := ctx.Optimize(context.Background(), m)
	r2, err2 := ctx.Optimize(context.Background(), m)
	if err1 != nil || err2 != nil {
		t.Fatalf("Optimize: %v %v", err1, err2)
	}
	for i := range r1.Execution.Assign {
		if r1.Execution.Assign[i] != r2.Execution.Assign[i] {
			t.Fatalf("non-deterministic assignment at op %d", i)
		}
	}
	if r1.Stats.Counters() != r2.Stats.Counters() {
		t.Fatalf("non-deterministic stats: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

// TestWideBoundaryStringFootprint exercises the >16-boundary-operator path
// of the pruning footprint (string keys instead of packed uint64).
func TestWideBoundaryStringFootprint(t *testing.T) {
	// 17 source+filter branches union-reduced into one sink: the fewest that
	// leave the packed key, and 2^17 vectors to enumerate.
	const branches = 17
	b := plan.NewBuilder(64)
	var heads []plan.OpID
	var sources []plan.OpID
	for i := 0; i < branches; i++ {
		s := b.Source(platform.TextFileSource, "src", 1000)
		sources = append(sources, s)
		heads = append(heads, b.Add(platform.Filter, "f", platform.Logarithmic, 0.5, s))
	}
	for len(heads) > 1 {
		a, bb := heads[0], heads[1]
		heads = heads[2:]
		heads = append(heads, b.Add(platform.Union, "u", platform.Logarithmic, 1, a, bb))
	}
	b.Add(platform.CollectionSink, "sink", platform.Logarithmic, 1, heads[0])
	l, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ctx := newCtx(t, l, 2)
	// Scope = all the sources: every one is a boundary operator.
	sc := plan.NewBitset(l.NumOps())
	for _, s := range sources {
		sc.Set(s)
	}
	e, err := ctx.Enumerate(context.Background(), sc, 0, nil)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if len(e.Boundary) != branches {
		t.Fatalf("boundary = %d ops, want %d", len(e.Boundary), branches)
	}
	before := len(e.Vectors)
	ctx.Bind(newLinModel(ctx.Schema.Len(), 1))
	core.BoundaryPruner{}.Prune(context.Background(), ctx, e, nil)
	// The boundary ops are distinct per vector, so nothing can prune.
	if len(e.Vectors) != before {
		t.Fatalf("pruned an all-boundary enumeration: %d -> %d", before, len(e.Vectors))
	}
}

func TestVectorizeSubplanMatchesExecutionOnFullScope(t *testing.T) {
	l := workload.RunningExample()
	ctx := newCtx(t, l, 3)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		assign := make([]uint8, l.NumOps())
		m := map[plan.OpID]uint8{}
		for i := range assign {
			alts := ctx.Alternatives(plan.OpID(i))
			assign[i] = alts[rng.Intn(len(alts))]
			m[plan.OpID(i)] = assign[i]
		}
		a := ctx.VectorizeExecution(assign)
		b := ctx.VectorizeSubplan(m)
		if !floatsEqual(a.F, b.F) {
			t.Fatalf("trial %d: subplan vectorization diverges from execution vectorization", trial)
		}
	}
}

// TestParallelEnumerationMatchesSerial: enabling workers must not change
// the chosen plan, the predicted cost, or the enumeration statistics.
func TestParallelEnumerationMatchesSerial(t *testing.T) {
	l := workload.Pipeline(30, 1e8)
	m := newLinModel(core.MustSchema(platform.Subset(4)).Len(), 17)

	serialCtx := newCtx(t, l, 4)
	serial, err := serialCtx.Optimize(context.Background(), m)
	if err != nil {
		t.Fatalf("serial Optimize: %v", err)
	}
	parCtx := newCtx(t, l, 4)
	parCtx.Workers = 8
	par, err := parCtx.Optimize(context.Background(), m)
	if err != nil {
		t.Fatalf("parallel Optimize: %v", err)
	}
	if serial.Predicted != par.Predicted {
		t.Fatalf("predicted cost differs: %g vs %g", serial.Predicted, par.Predicted)
	}
	for i := range serial.Execution.Assign {
		if serial.Execution.Assign[i] != par.Execution.Assign[i] {
			t.Fatalf("assignment differs at op %d", i)
		}
	}
	if serial.Stats.Counters() != par.Stats.Counters() {
		t.Fatalf("stats differ: %+v vs %+v", serial.Stats, par.Stats)
	}
}

func TestStatsCountModelCalls(t *testing.T) {
	l := workload.Pipeline(8, 1e7)
	ctx := newCtx(t, l, 2)
	m := newLinModel(ctx.Schema.Len(), 2)
	res, err := ctx.Optimize(context.Background(), m)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Stats.ModelBatches == 0 || res.Stats.ModelRows == 0 || res.Stats.Merges == 0 || res.Stats.Pruned == 0 {
		t.Fatalf("stats look unpopulated: %+v", res.Stats)
	}
	if res.Stats.ModelRows < res.Stats.ModelBatches {
		t.Fatalf("ModelRows %d < ModelBatches %d", res.Stats.ModelRows, res.Stats.ModelBatches)
	}
	// The final getOptimal is handed vectors the last prune already
	// scored: at least the surviving one must count as a hit, not go to
	// the model again.
	if res.Stats.MemoHits == 0 {
		t.Fatalf("no scored vector was recognized: %+v", res.Stats)
	}
}
