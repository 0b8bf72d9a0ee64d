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
	"repro/internal/workload"
)

// Harness owns the shared experiment state: the simulated cluster, the
// calibrated cost models, and the ML models trained per platform universe.
// Everything is deterministic; models are trained once and cached.
type Harness struct {
	Cluster *simulator.Cluster

	// Quick trades model quality for speed (smaller training set and
	// forest); used by unit tests. The default replicates the paper's
	// setup: pipeline/juncture/loop shapes, max 50 operators.
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

// GenerateTrainingData runs one TDGen draw for the given platform universe
// and returns the labelled dataset (Section VII-A: pipeline/juncture/loop
// shapes, max 50 operators, seeded with the evaluation workload's query
// shapes). seedOffset varies the draw: independent offsets give the
// independently generated member datasets the ensemble averages over. The
// standalone entry point exists so other layers — the CLI's train-from-CSV
// path, the serving stack's retraining loop — can obtain (or extend) the
// exact dataset the harness trains on.
func (h *Harness) GenerateTrainingData(plats []platform.ID, avail *platform.Availability, seedOffset int64) (*mlmodel.Dataset, error) {
	cfg := tdgen.Config{
		Shapes:            []tdgen.Shape{tdgen.ShapePipeline, tdgen.ShapeJuncture, tdgen.ShapeLoop},
		MinOps:            4,
		MaxOps:            50,
		TemplatesPerShape: 24,
		PlansPerTemplate:  14,
		Profiles:          10,
		Platforms:         plats,
		Avail:             avail,
		CardMax:           1e10,
		Seed:              2020 + seedOffset,
	}
	// Generation option (i): seed TDGen with the evaluation workload's
	// query shapes so generated plans resemble it (Section VI: "training
	// data that resembles their query workload"). Sizes are drawn from
	// each query's Table II range, not from the evaluation grid.
	for _, q := range workload.Catalog() {
		cfg.SeedQueries = append(cfg.SeedQueries, tdgen.SeedQuery{
			Name:     q.Name,
			MinBytes: q.MinBytes,
			MaxBytes: q.MaxBytes,
			Build:    q.Build,
		})
	}
	if h.Quick {
		cfg.TemplatesPerShape = 10
		cfg.PlansPerTemplate = 8
		cfg.Profiles = 8
		cfg.MaxOps = 30
	}
	ds, _, err := tdgen.New(cfg, h.Cluster).Generate()
	if err != nil {
		return nil, fmt.Errorf("experiments: training data generation: %w", err)
	}
	return ds, nil
}

// TrainOnDataset fits one model member on an explicit dataset with the
// harness's reference configuration: gradient-boosted trees on log targets
// (see DESIGN.md; the paper's "one can plug any regression algorithm" is the
// extension point used here). It is the training path shared by
// Harness.Model, the CLI's train-from-CSV mode, and the serving stack's
// execution-feedback retrainer — all three fit the same family the same way,
// only the dataset differs.
func TrainOnDataset(ds *mlmodel.Dataset, quick bool, seed int64) (mlmodel.Model, error) {
	gbm := mlmodel.GBMConfig{Trees: 300, MaxDepth: 6, LR: 0.1, MinLeaf: 5, Seed: seed, Parallel: true}
	if quick {
		gbm.Trees = 150
		gbm.MaxDepth = 5
	}
	trainer := mlmodel.LogTargetTrainer{Inner: mlmodel.GBMTrainer{Config: gbm}}
	m, err := trainer.Fit(ds)
	if err != nil {
		return nil, fmt.Errorf("experiments: model training: %w", err)
	}
	return m, nil
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
	if m, ok := h.models[key]; ok {
		h.mu.Unlock()
		return m, nil
	}
	h.mu.Unlock()

	// Ensemble over independently generated training sets: TDGen's draws
	// are a real source of run-to-run variance, and the optimizer's
	// argmin over thousands of candidates amplifies single-model noise.
	members := 3
	if h.Quick {
		members = 2
	}
	ensemble := mlmodel.Ensemble{}
	for i := 0; i < members; i++ {
		ds, err := h.GenerateTrainingData(plats, avail, int64(i)*101)
		if err != nil {
			return nil, err
		}
		m, err := TrainOnDataset(ds, h.Quick, 7+int64(i)*211)
		if err != nil {
			return nil, err
		}
		ensemble.Models = append(ensemble.Models, m)
	}
	h.mu.Lock()
	h.models[key] = ensemble
	h.mu.Unlock()
	return ensemble, nil
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

// PredictBatch scores each row with the same arithmetic as Predict, making
// the latency experiments exercise the enumeration's batched inference path.
func (m latencyModel) PredictBatch(X *mlmodel.Matrix, out []float64) {
	for i := 0; i < X.Rows; i++ {
		out[i] = m.Predict(X.Row(i))
	}
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

// SinglePlatformChoice emulates the paper's single-platform execution mode
// (Section VII-C1): the optimizer must pick one platform for the whole
// query. Each candidate's all-on-p plan is scored by the given scorer; the
// cheapest is chosen.
func SinglePlatformChoice(l *plan.Logical, candidates []platform.ID, avail *platform.Availability,
	score func(*plan.Execution) (float64, error)) (platform.ID, error) {
	best := platform.ID(0)
	bestScore := 0.0
	found := false
	for _, p := range candidates {
		x, err := plan.AllOn(l, p, avail)
		if err != nil {
			continue // p cannot run the whole query
		}
		s, err := score(x)
		if err != nil {
			return 0, err
		}
		if !found || s < bestScore {
			best, bestScore, found = p, s, true
		}
	}
	if !found {
		return 0, fmt.Errorf("experiments: no platform can run the whole query")
	}
	return best, nil
}

// RoboptSingleScore returns a scorer that rates all-on-p plans with the ML
// model over their plan vectors.
func (h *Harness) RoboptSingleScore(l *plan.Logical, plats []platform.ID, avail *platform.Availability) (func(*plan.Execution) (float64, error), error) {
	m, err := h.Model(plats, avail)
	if err != nil {
		return nil, err
	}
	ctx, err := core.NewContext(l, plats, avail)
	if err != nil {
		return nil, err
	}
	return func(x *plan.Execution) (float64, error) { return ctx.PredictAssignment(m, x.Assign) }, nil
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
