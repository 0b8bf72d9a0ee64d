// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII). Each experiment is a Harness method returning
// typed rows and a function turning those rows into a Table; All lists them,
// and cmd/benchharness prints each Table as aligned text and as CSV.
package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/mlmodel"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/simulator"
	"repro/internal/tdgen"
)

// Harness owns the shared experiment state: the simulated cluster, the
// calibrated cost models, and the ML models trained per platform universe.
// Everything is deterministic; models are trained once and cached.
type Harness struct {
	Cluster *simulator.Cluster

	// Quick trains tdgen.SizeQuick instead of the paper's setup
	// (tdgen.SizeFull: pipeline/juncture/loop shapes, max 50 operators):
	// less model quality for speed. Unit tests and the benchmark set it.
	Quick bool

	// Workers sizes the enumeration worker pool of every Robopt run the
	// harness performs (core.Context.Workers). 0 or 1 runs serially;
	// results are identical either way, only latencies change.
	Workers int

	mu        sync.Mutex
	wellTuned *costmodel.Model
	simply    *costmodel.Model
	models    map[string]mlmodel.Model
	fig11     struct {
		once   sync.Once
		points []Fig11Point
		err    error
	}
}

// NewHarness returns a harness over the default simulated cluster.
func NewHarness() *Harness {
	return &Harness{Cluster: simulator.Default(), models: map[string]mlmodel.Model{}}
}

// WellTuned returns the calibrated RHEEMix cost model (cached).
func (h *Harness) WellTuned() *costmodel.Model {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.wellTuned == nil {
		h.wellTuned = costmodel.WellTuned(h.Cluster, 100)
	}
	return h.wellTuned
}

// SimplyTuned returns the naively calibrated cost model (cached).
func (h *Harness) SimplyTuned() *costmodel.Model {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.simply == nil {
		h.simply = costmodel.SimplyTuned(h.Cluster, 100)
	}
	return h.simply
}

// recipe is the training recipe of this harness for a platform universe.
func (h *Harness) recipe(plats []platform.ID, avail *platform.Availability) tdgen.Recipe {
	r := tdgen.Recipe{Platforms: plats, Avail: avail, Cluster: h.Cluster}
	if h.Quick {
		r.Size = tdgen.SizeQuick
	}
	return r
}

// GenerateTrainingData returns one TDGen draw of the harness's recipe for the
// given platform universe (Section VII-A: pipeline/juncture/loop shapes, max
// 50 operators, seeded with the evaluation workload's query shapes).
// seedOffset varies the draw; 0 is the dataset ensemble member 0 is fitted
// on, which is what the benchmark fixture reports the size of.
func (h *Harness) GenerateTrainingData(plats []platform.ID, avail *platform.Availability, seedOffset int64) (*mlmodel.Dataset, error) {
	return h.recipe(plats, avail).Dataset(seedOffset)
}

// Model returns the model trained for the given platform universe and
// availability, generating training data with TDGen on first use
// (Section VII-A: "we generated training data with TDGen by giving as input
// three different topology shapes and a maximum number of operators equal
// to 50").
func (h *Harness) Model(plats []platform.ID, avail *platform.Availability) (mlmodel.Model, error) {
	// The cache key deliberately ignores the availability matrix: the
	// plan-vector schema depends only on the platform universe, so one
	// model scores plans under any residency restriction (Figures 12/13
	// restrict TableSource to Postgres but reuse the default model).
	key := fmt.Sprintf("%v", plats)
	h.mu.Lock()
	m, ok := h.models[key]
	h.mu.Unlock()
	if ok {
		return m, nil
	}
	m, _, err := h.recipe(plats, avail).Train()
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.models[key] = m
	h.mu.Unlock()
	return m, nil
}

// latencyModel is a deterministic lightweight linear scorer over plan
// vectors used by the latency experiments.
type latencyModel struct{ w []float64 }

func (m latencyModel) Predict(f []float64) float64 {
	s := 0.0
	for i, v := range f {
		s += m.w[i] * v
	}
	return s
}

// PredictBatchDist scores each row with Predict's arithmetic, so the latency
// experiments exercise the enumeration's batched inference path. Rows are
// independent, so it walks four in lockstep, one accumulator each: every
// row still sums its cells in column order from 0, bit-identical to
// Predict, but the four add chains overlap instead of waiting on one
// another. Rows past the last block of four go through Predict. The model
// is point-only: zero spread, lo = hi = mean.
func (m latencyModel) PredictBatchDist(X *mlmodel.Matrix, mean, spread, lo, hi []float64) {
	c, i := X.Cols, 0
	for ; i+4 <= X.Rows; i += 4 {
		d := X.Data[i*c : (i+4)*c]
		r0, r1, r2, r3 := d[:c], d[c:][:c], d[2*c:][:c], d[3*c:][:c]
		w := m.w[:c]
		var s0, s1, s2, s3 float64
		for j, wj := range w {
			s0 += wj * r0[j]
			s1 += wj * r1[j]
			s2 += wj * r2[j]
			s3 += wj * r3[j]
		}
		mean[i], mean[i+1], mean[i+2], mean[i+3] = s0, s1, s2, s3
	}
	for ; i < X.Rows; i++ {
		mean[i] = m.Predict(X.Row(i))
	}
	if spread != nil {
		for i, v := range mean[:X.Rows] {
			spread[i], lo[i], hi[i] = 0, v, v
		}
	}
}

// Specialize returns the scorer of rows that hold only the columns cols, in
// that order: the weights of those columns. Its sum is Predict's less the
// terms of the other columns, which are exactly 0 on a plan vector (positive
// weights, nonnegative cells), so it is bit-identical to Predict on the row
// expanded with zeros.
func (m latencyModel) Specialize(cols []int) mlmodel.Model {
	w := make([]float64, len(cols))
	for i, col := range cols {
		w[i] = m.w[col]
	}
	return latencyModel{w}
}

// LatencyModel returns the fixed lightweight model used by the latency
// experiments (Figures 1, 9 and 10). In the paper, invoking the ML model
// took only ~10% of optimization time, so those experiments measure the
// enumeration machinery; our boosted ensemble is far heavier per call and
// would mask exactly the costs being compared. All optimizers in a latency
// experiment share this model (RHEEMix keeps its linear cost formulas, as
// in the paper); the plan-quality experiments (Figures 2, 11, 12, 13) use
// the real trained ensemble.
func (h *Harness) LatencyModel(plats []platform.ID) core.CostModel {
	s := core.MustSchema(plats)
	w := make([]float64, s.Len())
	x := uint64(0x9e3779b97f4a7c15)
	for i := range w {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		w[i] = 1e-9 + float64(x%1000)/1000
	}
	return latencyModel{w}
}

// RoboptOptimizeWith runs Robopt's enumeration with an explicit cost model.
func (h *Harness) RoboptOptimizeWith(l *plan.Logical, plats []platform.ID, avail *platform.Availability, m core.CostModel) (*core.Result, error) {
	ctx, err := core.NewContext(l, plats, avail)
	if err != nil {
		return nil, err
	}
	ctx.Workers = h.Workers
	return ctx.Optimize(context.Background(), m)
}

// RheemMLOptimizeWith runs the object-enumeration baseline with an explicit
// model (invoked through the per-call subplan vectorization).
func (h *Harness) RheemMLOptimizeWith(l *plan.Logical, plats []platform.ID, avail *platform.Availability, m core.CostModel) (*baselines.Result, error) {
	ctx, err := core.NewContext(l, plats, avail)
	if err != nil {
		return nil, err
	}
	opt := &baselines.Optimizer{
		Plan:   l,
		Avail:  avail,
		Plats:  plats,
		Oracle: baselines.MLOracle{Ctx: ctx, Model: m},
	}
	return opt.Optimize()
}

// RoboptOptimize runs the full Robopt pipeline on l.
func (h *Harness) RoboptOptimize(l *plan.Logical, plats []platform.ID, avail *platform.Availability) (*core.Result, error) {
	m, err := h.Model(plats, avail)
	if err != nil {
		return nil, err
	}
	return h.RoboptOptimizeWith(l, plats, avail, m)
}

// RheemixOptimize runs the cost-based baseline on l.
func (h *Harness) RheemixOptimize(l *plan.Logical, plats []platform.ID, avail *platform.Availability) (*baselines.Result, error) {
	opt := &baselines.Optimizer{
		Plan:   l,
		Avail:  avail,
		Plats:  plats,
		Oracle: baselines.CostOracle{Plan: l, Model: h.WellTuned()},
	}
	return opt.Optimize()
}

// costSingleScore returns a scorer that rates all-on-p plans with a linear
// cost model.
func costSingleScore(m *costmodel.Model) func(*plan.Execution) (float64, error) {
	return func(x *plan.Execution) (float64, error) {
		return m.EstimateExecution(x), nil
	}
}

// timeIt returns the median wall-clock duration of reps runs of f in
// milliseconds, after one warmup run.
func timeIt(reps int, f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start))
	}
	slices.Sort(times)
	return float64(times[len(times)/2].Microseconds()) / 1000, nil
}
