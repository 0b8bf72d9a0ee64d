// Package robopt is a Go reproduction of "ML-based Cross-Platform Query
// Optimization" (Kaoudi, Quiané-Ruiz et al., ICDE 2020): a vector-based
// cross-platform query optimizer that replaces the hand-tuned cost model of
// a Rheem-style system with an ML model and runs the entire plan enumeration
// on flat feature vectors.
//
// The package is a facade over the internal implementation:
//
//   - NewPlanBuilder constructs logical (platform-agnostic) query plans.
//   - Train fits the runtime-prediction model from TDGen-generated training
//     data executed on the simulated cross-platform cluster.
//   - Optimizer.Optimize enumerates execution plans with ML-driven boundary
//     pruning in priority order and returns the cheapest plan, including
//     the conversion (data movement) operators between platforms.
//
// A minimal session:
//
//	opt, err := robopt.Train(robopt.QuickTraining())
//	...
//	b := robopt.NewPlanBuilder(100)
//	src := b.Source(robopt.TextFileSource, "data", 1e7)
//	cnt := b.Add(robopt.ReduceBy, "count", robopt.Linear, 0.1, src)
//	b.Add(robopt.CollectionSink, "collect", robopt.Logarithmic, 1, cnt)
//	p, err := b.Build()
//	...
//	res, err := opt.Optimize(p)
//	fmt.Println(res.Execution)
package robopt

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mlmodel"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/simulator"
	"repro/internal/tdgen"
	"repro/internal/workload"
)

// Re-exported core types. Downstream users interact with these through the
// facade; the internal packages are not importable outside this module.
type (
	// Plan is a logical, platform-agnostic query plan.
	Plan = plan.Logical
	// PlanBuilder incrementally constructs a Plan.
	PlanBuilder = plan.Builder
	// Execution is a platform-specific execution plan with conversion
	// operators on every platform switch.
	Execution = plan.Execution
	// Platform identifies a data processing platform.
	Platform = platform.ID
	// OperatorKind is a platform-agnostic logical operator kind.
	OperatorKind = platform.Kind
	// Complexity classifies an operator's UDF CPU cost.
	Complexity = platform.Complexity
	// Availability maps operator kinds to implementing platforms.
	Availability = platform.Availability
	// Stats counts the enumeration work of one optimization.
	Stats = core.Stats
	// Model is a fitted runtime-prediction model. Its one kernel,
	// PredictBatchDist, scores a whole feature matrix with the predictive
	// distribution of every row (the enumeration runs one such batch per
	// prune step); Predict is that kernel on a batch of one.
	Model = mlmodel.Model
	// Matrix is the flat row-major feature matrix a Model's kernel scores.
	Matrix = mlmodel.Matrix
	// Budget bounds the work of one optimization run; exhausted budgets
	// degrade the plan instead of failing (Result.Degraded).
	Budget = core.Budget
	// Cluster is the simulated cross-platform deployment.
	Cluster = simulator.Cluster
	// RunResult is the outcome of simulating an execution plan.
	RunResult = simulator.Result
	// SeedQuery is a user workload query the training data generator can
	// mimic (TDGen generation option (i)): it reads Name, the MinBytes to
	// MaxBytes dataset-size range and Build.
	SeedQuery = workload.Query
	// PlanCache caches optimization results keyed by a canonical
	// structural fingerprint of the plan; see NewPlanCache and
	// Optimizer.Cache.
	PlanCache = plancache.Cache
	// PlanCacheConfig configures a PlanCache (capacity, TTL, sharding,
	// cardinality banding).
	PlanCacheConfig = plancache.Config
	// PlanFingerprint is the canonical structural hash of a plan.
	PlanFingerprint = plancache.Fingerprint
	// CostDist is the model's runtime prediction as a distribution: the
	// point estimate (mean), a dispersion proxy (spread), and a central
	// 90% interval [lo, hi]. Point-only models report zero spread with
	// lo = hi = mean.
	CostDist = core.CostDist
)

// Platforms.
const (
	Java     = platform.Java
	Spark    = platform.Spark
	Flink    = platform.Flink
	Postgres = platform.Postgres
	GraphX   = platform.GraphX
)

// UDF complexity classes.
const (
	Logarithmic    = platform.Logarithmic
	Linear         = platform.Linear
	Quadratic      = platform.Quadratic
	SuperQuadratic = platform.SuperQuadratic
)

// Frequently used operator kinds (the full set lives on OperatorKind).
const (
	TextFileSource   = platform.TextFileSource
	CollectionSource = platform.CollectionSource
	TableSource      = platform.TableSource
	Map              = platform.Map
	FlatMap          = platform.FlatMap
	Filter           = platform.Filter
	Project          = platform.Project
	Sample           = platform.Sample
	Distinct         = platform.Distinct
	Sort             = platform.Sort
	ReduceBy         = platform.ReduceBy
	GroupBy          = platform.GroupBy
	Count            = platform.Count
	Cache            = platform.Cache
	Broadcast        = platform.Broadcast
	Join             = platform.Join
	Union            = platform.Union
	Replicate        = platform.Replicate
	CollectionSink   = platform.CollectionSink
	TextFileSink     = platform.TextFileSink
)

// NewPlanBuilder returns a builder for a logical plan over a dataset with
// the given average tuple size in bytes.
func NewPlanBuilder(avgTupleBytes float64) *PlanBuilder { return plan.NewBuilder(avgTupleBytes) }

// AllPlatforms returns every supported platform.
func AllPlatforms() []Platform { return platform.All() }

// DefaultAvailability returns the realistic execution-operator matrix:
// Java/Spark/Flink implement everything, Postgres the relational subset,
// GraphX the graph subset.
func DefaultAvailability() *Availability { return platform.DefaultAvailability() }

// DefaultCluster returns the reference simulated cluster used for training
// and evaluation.
func DefaultCluster() *Cluster { return simulator.Default() }

// TrainingOptions configures Train: what the model is trained for. How large
// the training run is comes from one table shared with the daemon and the
// evaluation harness (DESIGN.md, "Training sizes"); the zero value trains the
// paper's full size, QuickTraining the two-second one.
type TrainingOptions struct {
	// Platforms is the platform universe (default: all five).
	Platforms []Platform
	// Avail restricts execution operators (default: DefaultAvailability).
	Avail *Availability
	// Cluster executes the training jobs (default: DefaultCluster).
	Cluster *Cluster
	// SeedQueries describes the expected workload; TDGen then also generates
	// training plans resembling it (option (i) of the paper's Section VI).
	// Default: the paper's evaluation workload (Table II).
	SeedQueries []SeedQuery

	size tdgen.Size
}

// QuickTraining returns options that train in a couple of seconds at reduced
// model quality — intended for tests and examples.
func QuickTraining() TrainingOptions { return TrainingOptions{size: tdgen.SizeTiny} }

// Optimizer is a trained ML-based cross-platform query optimizer.
type Optimizer struct {
	model     mlmodel.Model
	platforms []Platform
	avail     *Availability

	// Workers enables intra-enumeration parallelism (merges and model
	// calls fan out over this many goroutines). 0 runs serially; results
	// are identical either way.
	Workers int

	// Budget bounds each optimization run (vectors, model calls, soft
	// wall-clock). The zero value is unlimited. On exhaustion the run
	// degrades gracefully and flags Result.Degraded instead of erroring.
	Budget Budget

	// Cache, when set, serves structurally repeated plans without
	// re-running the enumeration (Result.FromCache reports a hit). Share
	// one cache across optimizers only if they use the same platform
	// universe and availability matrix.
	Cache *PlanCache

	// RiskLambda makes plan selection risk-aware: candidates are scored by
	// predicted mean + RiskLambda·spread, and boundary pruning keeps
	// near-tie vectors whose prediction intervals overlap the per-footprint
	// winner's. 0 (the default) reproduces point-estimate optimization
	// bit-for-bit. Cached plans are keyed per λ band, so optimizers with
	// different RiskLambda values can safely share one Cache.
	RiskLambda float64
}

// NewPlanCache returns a bounded plan cache for Optimizer.Cache (and for
// embedded service.Server instances).
func NewPlanCache(cfg PlanCacheConfig) *PlanCache { return plancache.New(cfg) }

// FingerprintPlan returns the canonical structural fingerprint of p under
// the given platform universe and availability matrix, with source
// cardinalities bucketed into bandsPerDecade log-scale bands per decade
// (0 means the default of 4).
func FingerprintPlan(p *Plan, platforms []Platform, avail *Availability, bandsPerDecade int) (PlanFingerprint, error) {
	fp, _, err := plancache.Compute(p, platforms, avail, bandsPerDecade)
	return fp, err
}

// Train generates training data with TDGen on the simulated cluster, fits
// the boosted-tree runtime model, and returns a ready optimizer. This is
// the paper's zero-tuning setup: no cost-model coefficients, only logged
// executions ("it took us only a couple of days of automatic training data
// generation", Section VII-C).
func Train(opts TrainingOptions) (*Optimizer, error) {
	r := tdgen.Recipe{
		Size:        opts.size,
		Platforms:   opts.Platforms,
		Avail:       opts.Avail,
		Cluster:     opts.Cluster,
		SeedQueries: opts.SeedQueries,
	}
	if len(r.Platforms) == 0 {
		r.Platforms = platform.All()
	}
	if r.Avail == nil {
		r.Avail = platform.DefaultAvailability()
	}
	if r.Cluster == nil {
		r.Cluster = simulator.Default()
	}
	model, _, err := r.Train()
	if err != nil {
		return nil, fmt.Errorf("robopt: %w", err)
	}
	return &Optimizer{model: model, platforms: r.Platforms, avail: r.Avail}, nil
}

// NewOptimizerWithModel wraps a pre-fitted model as an optimizer. The model
// implements both methods of Model; a point-only one fills only the mean
// column when its kernel is given nil spread columns, and zero spread with
// lo = hi = mean otherwise.
func NewOptimizerWithModel(model Model, platforms []Platform, avail *Availability) *Optimizer {
	return &Optimizer{model: model, platforms: platforms, avail: avail}
}

// Result is the outcome of one optimization.
type Result struct {
	// Execution is the chosen platform-specific plan.
	Execution *Execution
	// PredictedRuntime is the model's estimate for it, in seconds.
	PredictedRuntime float64
	// PredictedDist is the distributional form of PredictedRuntime: the
	// mean with a spread and a central 90% interval. Zero spread with
	// lo = hi = mean when the model offers no uncertainty signal.
	PredictedDist CostDist
	// RiskLambda is the λ the plan was optimized under (the optimizer's
	// RiskLambda, or — on cache hits — the λ of the request that produced
	// the cached plan, which shares the same λ band).
	RiskLambda float64
	// Degraded reports that the optimizer's Budget was exhausted and the
	// plan is best-effort rather than enumeration-optimal.
	Degraded bool
	// Stats counts the enumeration work performed. Zero when the result
	// came from the cache.
	Stats Stats
	// FromCache reports that the plan was served from Optimizer.Cache
	// without running the enumeration.
	FromCache bool
}

// Optimize returns the cheapest execution plan for the logical plan
// according to the trained model, enumerating with boundary pruning in
// priority order (Algorithm 1). It is OptimizeContext with
// context.Background(): uncancellable, but still subject to the optimizer's
// Budget.
func (o *Optimizer) Optimize(p *Plan) (*Result, error) {
	return o.OptimizeContext(context.Background(), p)
}

// OptimizeContext is Optimize bounded by ctx: cancellation or an expired
// deadline aborts the enumeration promptly and returns ctx.Err(). Combine a
// deadline with a Budget soft deadline to get a best-effort (degraded) plan
// shortly before the hard deadline instead of an error at it.
func (o *Optimizer) OptimizeContext(ctx context.Context, p *Plan) (*Result, error) {
	c, err := core.NewContext(p, o.platforms, o.avail)
	if err != nil {
		return nil, err
	}
	c.Workers = o.Workers
	c.Budget = o.Budget
	if o.RiskLambda != 0 {
		c.Risk = core.Risk{Lambda: o.RiskLambda, KeepOverlap: true}
	}
	var (
		fp    PlanFingerprint
		canon *plancache.Canon
	)
	if o.Cache != nil {
		if fp, canon, err = plancache.Compute(p, o.platforms, o.avail, o.Cache.BandsPerDecade()); err == nil {
			if cp, ok := o.Cache.GetBand(fp, o.Cache.ActiveVersion(), plancache.RiskBand(o.RiskLambda)); ok {
				if x, merr := cp.Materialize(p, canon, o.platforms); merr == nil {
					return &Result{
						Execution:        x,
						PredictedRuntime: cp.Predicted,
						PredictedDist:    cp.PredictedDist,
						RiskLambda:       cp.RiskLambda,
						FromCache:        true,
					}, nil
				}
			}
		}
	}
	res, err := c.Optimize(ctx, o.model)
	if err != nil {
		return nil, err
	}
	if o.Cache != nil && canon != nil && !res.Degraded {
		if cp, cerr := plancache.FromResult(fp, canon, o.Cache.ActiveVersion(), res); cerr == nil {
			o.Cache.Put(cp)
		}
	}
	return &Result{
		Execution:        res.Execution,
		PredictedRuntime: res.Predicted,
		PredictedDist:    res.PredictedDist,
		RiskLambda:       res.Risk.Lambda,
		Degraded:         res.Degraded,
		Stats:            res.Stats,
	}, nil
}

// OptimizeSinglePlatform returns the best plan that uses exactly one
// platform (the paper's single-platform execution mode).
func (o *Optimizer) OptimizeSinglePlatform(p *Plan) (*Result, error) {
	ctx, err := core.NewContext(p, o.platforms, o.avail)
	if err != nil {
		return nil, err
	}
	_, x, cost, err := ctx.CheapestAllOn(o.model, o.platforms)
	if err != nil {
		return nil, fmt.Errorf("robopt: %w", err)
	}
	return &Result{Execution: x, PredictedRuntime: cost}, nil
}

// PredictRuntime returns the model's runtime estimate for an arbitrary
// platform assignment of the plan (one platform per operator, in ID order).
func (o *Optimizer) PredictRuntime(p *Plan, assign []Platform) (float64, error) {
	ctx, err := core.NewContext(p, o.platforms, o.avail)
	if err != nil {
		return 0, err
	}
	est, err := ctx.PredictAssignment(o.model, assign)
	if err != nil {
		return 0, fmt.Errorf("robopt: %w", err)
	}
	return est, nil
}
