// Package tdgen implements TDGen, the scalable training data generator of
// Section VI. It creates synthetic logical plans of the requested shapes
// (pipeline, juncture, replicate, loop), enumerates execution plans for them
// with the platform-switch (β) pruning, instantiates each with configuration
// profiles (input cardinalities, tuple widths, UDF complexities,
// selectivities), executes only a subset of the resulting jobs, and imputes
// the runtime of the rest via piecewise degree-5 polynomial interpolation.
//
// In the paper the execution step takes days on a real cluster and the
// interpolation is what makes generation tractable; here execution is a
// simulator call, so the interpolation machinery is exercised for fidelity
// (and validated against the simulator) rather than for wall-clock savings.
package tdgen

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/mlmodel"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/simulator"
	"repro/internal/workload"
)

// Shape is a plan topology TDGen can generate (Section IV-A's four
// representative topologies).
type Shape int

// The four template shapes.
const (
	ShapePipeline Shape = iota
	ShapeJuncture
	ShapeReplicate
	ShapeLoop
)

var shapeNames = [...]string{"pipeline", "juncture", "replicate", "loop"}

// String names the shape.
func (s Shape) String() string {
	if int(s) < len(shapeNames) && s >= 0 {
		return shapeNames[s]
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// ShapeByName parses a shape name.
func ShapeByName(name string) (Shape, error) {
	for i, n := range shapeNames {
		if n == name {
			return Shape(i), nil
		}
	}
	return 0, fmt.Errorf("tdgen: unknown shape %q", name)
}

// Config controls generation.
type Config struct {
	// Shapes to generate; defaults to pipeline, juncture and loop — the
	// three the paper used to build its evaluation model (Section VII-A).
	Shapes []Shape
	// MinOps/MaxOps bound the template sizes; the paper used MaxOps 50.
	MinOps, MaxOps int
	// TemplatesPerShape is the number of logical plan templates per shape.
	TemplatesPerShape int
	// PlansPerTemplate caps the execution plans kept per logical plan.
	PlansPerTemplate int
	// RandomPlans adds uniformly random platform assignments per template
	// on top of the enumerated ones. The enumerator's β-pruned survivors
	// are all *plausible* plans; uniform sampling also covers the
	// implausible region (e.g. scattering operators over many platforms),
	// so the model learns to price it instead of regressing it toward the
	// mean — which would otherwise make bad plans look attractive to the
	// argmin. Defaults to PlansPerTemplate.
	RandomPlans int
	// Profiles is the number of input-cardinality points per execution
	// plan (the configuration profiles of Section VI-A).
	Profiles int
	// Beta is the platform-switch pruning threshold (default 3).
	Beta int
	// Platforms and Avail define the execution-operator universe.
	Platforms []platform.ID
	Avail     *platform.Availability
	// CardRange is the log-uniform input cardinality range
	// [CardMin, CardMax]; defaults to [1e3, 5e7].
	CardMin, CardMax float64
	// SeedQueries optionally provides a real query workload for TDGen to
	// resemble — generation option (i) of Section VI ("users can provide
	// their real query workload and let the generator create a specified
	// number of training data that resembles their query workload"). Each
	// seed query is instantiated across its dataset-size range and
	// labelled over the same diverse assignment sets as the synthetic
	// templates.
	SeedQueries []workload.Query
	// Seed makes generation deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.Shapes) == 0 {
		c.Shapes = []Shape{ShapePipeline, ShapeJuncture, ShapeLoop}
	}
	if c.MinOps <= 0 {
		c.MinOps = 4
	}
	if c.MaxOps <= 0 {
		c.MaxOps = 50
	}
	if c.TemplatesPerShape <= 0 {
		c.TemplatesPerShape = 8
	}
	if c.PlansPerTemplate <= 0 {
		c.PlansPerTemplate = 12
	}
	if c.RandomPlans <= 0 {
		c.RandomPlans = c.PlansPerTemplate
	}
	if c.Profiles <= 0 {
		c.Profiles = 10
	}
	if c.Beta <= 0 {
		c.Beta = 3
	}
	if c.CardMin <= 0 {
		c.CardMin = 1e3
	}
	if c.CardMax <= 0 {
		c.CardMax = 5e7
	}
	return c
}

// Report summarizes one generation run.
type Report struct {
	LogicalPlans   int
	ExecutionPlans int
	Jobs           int // total labelled whole-plan training rows
	Executed       int // jobs actually run (Jr)
	Imputed        int // jobs labelled by interpolation (Ji)
	Failed         int // executed jobs that OOMed or timed out
	SubplanRows    int // prefix-subplan rows derived from execution logs
}

// Generator produces training datasets.
type Generator struct {
	cfg     Config
	cluster *simulator.Cluster
	rng     *rand.Rand
}

// New returns a generator over the given simulated cluster.
func New(cfg Config, cluster *simulator.Cluster) *Generator {
	cfg = cfg.withDefaults()
	return &Generator{cfg: cfg, cluster: cluster, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// opSpec is one templated operator before cardinality instantiation.
type opSpec struct {
	kind   platform.Kind
	udf    platform.Complexity
	sel    float64
	in     []int // indices into the template's op list
	inLoop bool
}

// template is a synthetic logical plan shape with free input cardinality.
type template struct {
	shape      Shape
	ops        []opSpec
	iterations int
	tupleBytes float64
}

// Generate runs the two TDGen phases — job generation and log generation —
// and returns the labelled training dataset.
func (g *Generator) Generate() (*mlmodel.Dataset, Report, error) {
	var rep Report
	ds := &mlmodel.Dataset{}
	for _, shape := range g.cfg.Shapes {
		for t := 0; t < g.cfg.TemplatesPerShape; t++ {
			tmpl := g.makeTemplate(shape)
			rep.LogicalPlans++
			if err := g.expandTemplate(tmpl, ds, &rep); err != nil {
				return nil, rep, err
			}
		}
	}
	for _, q := range g.cfg.SeedQueries {
		rep.LogicalPlans++
		if err := g.expandSeedQuery(q, ds, &rep); err != nil {
			return nil, rep, err
		}
	}
	if err := ds.Validate(); err != nil {
		return nil, rep, err
	}
	return ds, rep, nil
}

// unaryPool is the operator-kind pool for template bodies.
var unaryPool = []platform.Kind{
	platform.Map, platform.FlatMap, platform.Filter, platform.Project,
	platform.Distinct, platform.Sort, platform.ReduceBy, platform.GroupBy,
}

var sourcePool = []platform.Kind{
	platform.TextFileSource, platform.CollectionSource, platform.TableSource,
}

// complexityPool is weighted toward the light classes: real query operators
// are mostly projections, predicates and linear transforms; heavy UDFs are
// the exception. An unweighted draw would make every large-cardinality
// training plan expensive, leaving the model no evidence that cheap plans at
// scale exist (e.g. a scan-filter-aggregate like TPC-H Q1).
var complexityPool = []platform.Complexity{
	platform.Logarithmic, platform.Logarithmic, platform.Logarithmic,
	platform.Linear, platform.Linear, platform.Linear,
	platform.Quadratic,
	platform.SuperQuadratic,
}

func (g *Generator) randUnary() opSpec {
	k := unaryPool[g.rng.Intn(len(unaryPool))]
	sel := 0.2 + 0.8*g.rng.Float64()
	switch k {
	case platform.FlatMap:
		sel = 1 + 4*g.rng.Float64() // flatmaps expand
	case platform.ReduceBy, platform.GroupBy:
		// Aggregations reduce anywhere from "barely" to "to a handful
		// of groups": log-uniform selectivity over six decades.
		sel = math.Exp(g.rng.Float64() * math.Log(1e-6))
	}
	return opSpec{kind: k, udf: complexityPool[g.rng.Intn(len(complexityPool))], sel: sel}
}

func (g *Generator) randSize() int {
	return g.cfg.MinOps + g.rng.Intn(g.cfg.MaxOps-g.cfg.MinOps+1)
}

// makeTemplate builds one synthetic logical plan template of the shape.
func (g *Generator) makeTemplate(shape Shape) *template {
	t := &template{shape: shape, tupleBytes: float64(8 * (1 + g.rng.Intn(64)))}
	size := g.randSize()
	addSrc := func() int {
		t.ops = append(t.ops, opSpec{kind: sourcePool[g.rng.Intn(len(sourcePool))], udf: platform.Logarithmic, sel: 1})
		return len(t.ops) - 1
	}
	addUnary := func(in int, inLoop bool) int {
		op := g.randUnary()
		op.in = []int{in}
		op.inLoop = inLoop
		t.ops = append(t.ops, op)
		return len(t.ops) - 1
	}
	addSink := func(in int) {
		t.ops = append(t.ops, opSpec{kind: platform.CollectionSink, udf: platform.Logarithmic, sel: 1, in: []int{in}})
	}

	switch shape {
	case ShapePipeline:
		cur := addSrc()
		for len(t.ops) < size-1 {
			cur = addUnary(cur, false)
		}
		addSink(cur)

	case ShapeJuncture:
		// Two branches joined, then a tail.
		if size < 6 {
			size = 6
		}
		left := addSrc()
		right := addSrc()
		branchOps := (size - 4) / 2
		for i := 0; i < branchOps; i++ {
			left = addUnary(left, false)
		}
		for i := 0; i < branchOps; i++ {
			right = addUnary(right, false)
		}
		t.ops = append(t.ops, opSpec{kind: platform.Join, udf: platform.Linear, sel: 0.3 + 0.5*g.rng.Float64(), in: []int{left, right}})
		cur := len(t.ops) - 1
		for len(t.ops) < size-1 {
			cur = addUnary(cur, false)
		}
		addSink(cur)

	case ShapeReplicate:
		if size < 7 {
			size = 7
		}
		cur := addSrc()
		pre := (size - 5) / 3
		for i := 0; i < pre; i++ {
			cur = addUnary(cur, false)
		}
		t.ops = append(t.ops, opSpec{kind: platform.Replicate, udf: platform.Logarithmic, sel: 1, in: []int{cur}})
		rep := len(t.ops) - 1
		a, b := rep, rep
		tail := (size - len(t.ops) - 2) / 2
		for i := 0; i < tail; i++ {
			a = addUnary(a, false)
		}
		for i := 0; i < tail; i++ {
			b = addUnary(b, false)
		}
		addSink(a)
		addSink(b)

	case ShapeLoop:
		if size < 7 {
			size = 7
		}
		t.iterations = []int{5, 10, 20, 50, 100}[g.rng.Intn(5)]
		cur := addSrc()
		pre := (size - 5) / 3
		for i := 0; i < pre; i++ {
			cur = addUnary(cur, false)
		}
		bodyLen := size - len(t.ops) - 2
		if bodyLen < 2 {
			bodyLen = 2
		}
		// Most loop templates exercise the nonlinear patterns so the
		// model observes them in the logs (Section VII-C2): patterns
		// 0-1 are Cache→Sample, patterns 2-3 end with a Broadcast, 4
		// is a plain loop.
		pattern := g.rng.Intn(5)
		if pattern <= 1 && bodyLen >= 3 {
			t.ops = append(t.ops, opSpec{kind: platform.Cache, udf: platform.Logarithmic, sel: 1, in: []int{cur}})
			cur = len(t.ops) - 1
			// Sample selectivities span minibatch-style (1e-6) to
			// large-subset (0.1) regimes.
			sel := math.Exp(math.Log(1e-6) + g.rng.Float64()*(math.Log(0.1)-math.Log(1e-6)))
			t.ops = append(t.ops, opSpec{kind: platform.Sample, udf: platform.Logarithmic, sel: sel, in: []int{cur}, inLoop: true})
			cur = len(t.ops) - 1
			bodyLen -= 2
		}
		endBroadcast := (pattern == 2 || pattern == 3) && bodyLen >= 2
		if endBroadcast {
			bodyLen--
		}
		for i := 0; i < bodyLen; i++ {
			cur = addUnary(cur, true)
		}
		if endBroadcast {
			t.ops = append(t.ops, opSpec{kind: platform.Broadcast, udf: platform.Logarithmic, sel: 1, in: []int{cur}, inLoop: true})
			cur = len(t.ops) - 1
		}
		addSink(cur)
	}
	return t
}

// instantiate materializes the template at one input cardinality.
func (t *template) instantiate(card float64) (*plan.Logical, error) {
	b := plan.NewBuilder(t.tupleBytes)
	ids := make([]plan.OpID, len(t.ops))
	var loopOps []plan.OpID
	for i, op := range t.ops {
		if op.kind.IsSource() {
			ids[i] = b.Source(op.kind, fmt.Sprintf("src%d", i), card)
			continue
		}
		in := make([]plan.OpID, len(op.in))
		for j, k := range op.in {
			in[j] = ids[k]
		}
		ids[i] = b.Add(op.kind, fmt.Sprintf("op%d", i), op.udf, op.sel, in...)
		if op.inLoop {
			loopOps = append(loopOps, ids[i])
		}
	}
	if len(loopOps) > 0 {
		b.Loop(t.iterations, loopOps...)
	}
	return b.Build()
}

// emitPrefixRows appends training rows for topological-prefix subplans of an
// executed job, labelled from the simulator's per-operator and
// per-conversion breakdown (the execution log). Prefixes at 1/4, 1/2 and 3/4
// of the plan are emitted.
func (g *Generator) emitPrefixRows(ctx *core.Context, x *plan.Execution, res simulator.Result, assign []uint8, ds *mlmodel.Dataset) int {
	l := ctx.Plan
	order := l.TopoOrder()
	n := len(order)
	emitted := 0
	prev := 0
	for _, m := range []int{n / 4, n / 2, 3 * n / 4} {
		if m < 2 || m >= n || m == prev {
			continue
		}
		prev = m
		sub := make(map[plan.OpID]uint8, m)
		inPrefix := make([]bool, n)
		label := 0.0
		platSeen := map[platform.ID]bool{}
		for _, id := range order[:m] {
			sub[id] = assign[id]
			inPrefix[id] = true
			label += res.PerOp[id]
			p := x.Assign[id]
			if !platSeen[p] {
				platSeen[p] = true
				label += g.cluster.Specs[p].Startup
			}
		}
		for ci, conv := range x.Conversions {
			if inPrefix[conv.AfterOp] && inPrefix[conv.BeforeOp] {
				label += res.PerConv[ci]
			}
		}
		v := ctx.VectorizeSubplan(sub)
		ds.Append(v.F, label)
		emitted++
	}
	return emitted
}

// planInstance pairs one profile's instantiated plan with its optimization
// context.
type planInstance struct {
	l   *plan.Logical
	ctx *core.Context
}

// instantiateLadder materializes the plan at every ladder point.
func (g *Generator) instantiateLadder(build func(x float64) (*plan.Logical, error), xs []float64) ([]planInstance, error) {
	insts := make([]planInstance, len(xs))
	for i, x := range xs {
		l, err := build(x)
		if err != nil {
			return nil, err
		}
		ctx, err := core.NewContext(l, g.cfg.Platforms, g.cfg.Avail)
		if err != nil {
			return nil, err
		}
		insts[i] = planInstance{l, ctx}
	}
	return insts, nil
}

// selectAssignments picks the execution plans labelled for one plan
// structure: every single-platform plan (they anchor the per-platform cost
// regimes), a random sample of the β-pruned enumeration, and uniformly
// random assignments (negative samples pricing the implausible region).
// Diversity within one structure at equal cardinality is what teaches the
// model to *rank* a query's alternatives, not just to scale with input size.
func (g *Generator) selectAssignments(mid *plan.Logical, ctx *core.Context) ([][]uint8, error) {
	var st core.Stats
	final, err := ctx.EnumerateFull(context.Background(), core.SwitchPruner{Beta: g.cfg.Beta, MaxVectors: 4 * g.cfg.PlansPerTemplate}, core.OrderPriority, &st)
	if err != nil {
		return nil, err
	}
	assigns := make([][]uint8, 0, g.cfg.PlansPerTemplate+g.cfg.RandomPlans)
	seen := map[string]bool{}
	add := func(a []uint8) {
		key := string(a)
		if !seen[key] {
			seen[key] = true
			assigns = append(assigns, append([]uint8(nil), a...))
		}
	}
	for pi, p := range g.cfg.Platforms {
		if _, err := plan.AllOn(mid, p, g.cfg.Avail); err == nil {
			add(bytes.Repeat([]byte{uint8(pi)}, mid.NumOps()))
		}
	}
	for _, j := range g.rng.Perm(len(final.Vectors)) {
		if len(assigns) >= g.cfg.PlansPerTemplate {
			break
		}
		add(final.Vectors[j].Assign)
	}
	for i := 0; i < g.cfg.RandomPlans; i++ {
		a := make([]uint8, mid.NumOps())
		for j := range a {
			alts := ctx.Alternatives(plan.OpID(j))
			a[j] = alts[g.rng.Intn(len(alts))]
		}
		add(a)
	}
	return assigns, nil
}

// expandTemplate enumerates execution plans for the template, instantiates
// the cardinality profiles, executes the Jr subset, interpolates the rest,
// and appends the labelled vectors to ds.
func (g *Generator) expandTemplate(tmpl *template, ds *mlmodel.Dataset, rep *Report) error {
	// Cardinality ladder: log-spaced profiles.
	cards := ladder(g.cfg.CardMin, g.cfg.CardMax, g.cfg.Profiles)
	insts, err := g.instantiateLadder(tmpl.instantiate, cards)
	if err != nil {
		return err
	}
	mid := insts[len(insts)/2]
	assigns, err := g.selectAssignments(mid.l, mid.ctx)
	if err != nil {
		return err
	}
	rep.ExecutionPlans += len(assigns)
	return g.labelJobs(insts, cards, assigns, ds, rep)
}

// expandSeedQuery generates training data that resembles one user-provided
// workload query (generation option (i) of Section VI): the query's own
// plan structure instantiated across its dataset-size range, labelled over
// the same diverse assignment set as the synthetic templates.
func (g *Generator) expandSeedQuery(q workload.Query, ds *mlmodel.Dataset, rep *Report) error {
	xs := ladder(q.MinBytes, q.MaxBytes, g.cfg.Profiles)
	insts, err := g.instantiateLadder(func(bytes float64) (*plan.Logical, error) {
		l := q.Build(bytes)
		if err := l.Validate(); err != nil {
			return nil, fmt.Errorf("tdgen: seed query %s: %w", q.Name, err)
		}
		return l, nil
	}, xs)
	if err != nil {
		return err
	}
	mid := insts[len(insts)/2]
	assigns, err := g.selectAssignments(mid.l, mid.ctx)
	if err != nil {
		return err
	}
	rep.ExecutionPlans += len(assigns)
	return g.labelJobs(insts, xs, assigns, ds, rep)
}

// ladder returns n log-spaced points over [lo, hi].
func ladder(lo, hi float64, n int) []float64 {
	xs := make([]float64, n)
	logMin, logMax := math.Log(lo), math.Log(hi)
	for i := range xs {
		frac := 0.5
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		xs[i] = math.Exp(logMin + frac*(logMax-logMin))
	}
	return xs
}

// labelJobs runs phase 2 (log generation) for one plan structure: for every
// assignment, execute the Jr subset of the ladder, impute the rest via
// piecewise degree-5 interpolation, and append the labelled plan vectors.
func (g *Generator) labelJobs(insts []planInstance, xs []float64, assigns [][]uint8, ds *mlmodel.Dataset, rep *Report) error {
	for _, assign := range assigns {
		// Jr = all small profiles plus every other larger one
		// (Section VI-B: "all the jobs with small input cardinalities,
		// few jobs with medium and large input cardinalities").
		var runXs, runYs []float64
		runtimes := make([]float64, len(xs))
		executed := make([]bool, len(xs))
		for i := range xs {
			small := i < len(xs)/3
			if !small && (i-len(xs)/3)%2 == 1 && i != len(xs)-1 {
				continue // imputed later
			}
			x, err := insts[i].ctx.Unvectorize(&core.Vector{F: nil, Assign: assign})
			if err != nil {
				return err
			}
			res := g.cluster.Run(x)
			if !res.Failed() {
				// The per-operator execution log also labels
				// partial plans: the prune operation scores
				// subplan vectors during enumeration, so the
				// model must see them at training time.
				rep.SubplanRows += g.emitPrefixRows(insts[i].ctx, x, res, assign, ds)
			}
			rt := res.Runtime
			if res.OOM {
				// Failures are labelled with a large penalty so
				// the model learns to avoid the plan; they are
				// excluded from interpolation support.
				rt = 2 * g.cluster.Timeout
				rep.Failed++
			} else if res.TimedOut {
				rt = g.cluster.Timeout
				rep.Failed++
			} else {
				runXs = append(runXs, xs[i])
				runYs = append(runYs, rt)
			}
			runtimes[i] = rt
			executed[i] = true
			rep.Executed++
		}
		if len(runXs) > 0 {
			// Interpolate in log-log space: the ladder is log-spaced
			// over many orders of magnitude, where a degree-5
			// polynomial in raw coordinates oscillates wildly
			// (Runge); runtime-vs-size is close to a power law,
			// i.e. nearly linear in log-log, where the paper's
			// piecewise degree-5 interpolation is stable.
			lx := make([]float64, len(runXs))
			ly := make([]float64, len(runYs))
			for i := range runXs {
				lx[i] = math.Log(runXs[i])
				ly[i] = math.Log1p(runYs[i])
			}
			interp, err := NewInterpolator(lx, ly)
			if err != nil {
				return err
			}
			for i := range xs {
				if !executed[i] {
					rt := math.Expm1(interp.At(math.Log(xs[i])))
					// No imputed runtime can plausibly exceed
					// the failure penalty; clamp polynomial
					// overshoot.
					if max := 2 * g.cluster.Timeout; rt > max {
						rt = max
					}
					runtimes[i] = rt
					executed[i] = true
					rep.Imputed++
				}
			}
		}
		for i := range xs {
			if !executed[i] {
				continue // no interpolation support: drop the job
			}
			v := insts[i].ctx.VectorizeExecution(assign)
			ds.Append(v.F, runtimes[i])
			rep.Jobs++
		}
	}
	return nil
}
