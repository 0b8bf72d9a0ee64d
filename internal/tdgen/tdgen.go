// Package tdgen implements TDGen, the scalable training data generator of
// Section VI, and Recipe is how a draw is configured. It creates synthetic
// logical plans of three shapes (pipeline, juncture, loop), draws execution
// plans for them with at most β platform switches, instantiates each with
// configuration profiles (input cardinalities, tuple widths, UDF
// complexities, selectivities), executes only a subset of the resulting jobs,
// and imputes the runtime of the rest via piecewise degree-5 polynomial
// interpolation.
//
// In the paper the execution step takes days on a real cluster and the
// interpolation is what makes generation tractable; here execution is a
// simulator call, so the interpolation machinery is exercised for fidelity
// (and validated against the simulator) rather than for wall-clock savings.
package tdgen

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/mlmodel"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/simulator"
)

// The values every draw shares; the recipe's size row fills in the rest.
const (
	minOps = 4 // the smallest template
	// beta bounds the platform switches of a plausible plan (Section VI-A).
	beta = 3
	// Templates draw their input cardinality log-uniformly from
	// [cardMin, cardMax].
	cardMin, cardMax = 1e3, 1e10
)

// shape is a plan topology of Section IV-A. TDGen draws the three the paper
// built its evaluation model from (Section VII-A), in this order.
type shape int

const (
	pipeline shape = iota
	juncture
	loop
)

// report summarizes one draw.
type report struct {
	LogicalPlans   int
	ExecutionPlans int
	Jobs           int // total labelled whole-plan training rows
	Executed       int // jobs actually run (Jr)
	Imputed        int // jobs labelled by interpolation (Ji)
	Failed         int // executed jobs that OOMed or timed out
	SubplanRows    int // prefix-subplan rows derived from execution logs
}

// generator runs one draw: r's deployment and seed queries at the size row d.
type generator struct {
	r   Recipe
	d   draw
	rng *rand.Rand
}

func newGenerator(r Recipe, d draw, seed int64) *generator {
	return &generator{r: r, d: d, rng: rand.New(rand.NewSource(seed))}
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
	ops        []opSpec
	iterations int
	tupleBytes float64
}

// generate runs the two TDGen phases — job generation and log generation —
// and returns the labelled training dataset.
func (g *generator) generate() (*mlmodel.Dataset, report, error) {
	var rep report
	ds := &mlmodel.Dataset{}
	cards := ladder(cardMin, cardMax, g.d.profiles)
	for s := pipeline; s <= loop; s++ {
		for t := 0; t < g.d.templates; t++ {
			rep.LogicalPlans++
			if err := g.expand(g.makeTemplate(s).instantiate, cards, ds, &rep); err != nil {
				return nil, rep, err
			}
		}
	}
	// A seed query (generation option (i) of Section VI) is labelled over
	// its own dataset-size range.
	for _, q := range g.r.SeedQueries {
		rep.LogicalPlans++
		build := func(bytes float64) (*plan.Logical, error) { return q.Build(bytes), nil }
		if err := g.expand(build, ladder(q.MinBytes, q.MaxBytes, g.d.profiles), ds, &rep); err != nil {
			return nil, rep, fmt.Errorf("tdgen: seed query %s: %w", q.Name, err)
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

func (g *generator) randUnary() opSpec {
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

func (g *generator) randSize() int {
	return minOps + g.rng.Intn(g.d.maxOps-minOps+1)
}

// makeTemplate builds one synthetic logical plan template of the shape.
func (g *generator) makeTemplate(s shape) *template {
	t := &template{tupleBytes: float64(8 * (1 + g.rng.Intn(64)))}
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

	switch s {
	case pipeline:
		cur := addSrc()
		for len(t.ops) < size-1 {
			cur = addUnary(cur, false)
		}
		addSink(cur)

	case juncture:
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

	case loop:
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
func (g *generator) emitPrefixRows(ctx *core.Context, x *plan.Execution, res simulator.Result, assign []uint8, ds *mlmodel.Dataset) int {
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
				label += g.r.Cluster.Specs[p].Startup
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

// instantiateLadder materializes the plan at every ladder point and returns
// each instance's optimization context.
func (g *generator) instantiateLadder(build func(x float64) (*plan.Logical, error), xs []float64) ([]*core.Context, error) {
	insts := make([]*core.Context, len(xs))
	for i, x := range xs {
		l, err := build(x)
		if err != nil {
			return nil, err
		}
		if insts[i], err = core.NewContext(l, g.r.Platforms, g.r.Avail); err != nil {
			return nil, err
		}
	}
	return insts, nil
}

// selectAssignments picks the execution plans labelled for one plan
// structure: every single-platform plan (they anchor the per-platform cost
// regimes), random plans within β switches (drawBounded), and uniformly
// random assignments (negative samples pricing the implausible region).
// Diversity within one structure at equal cardinality is what teaches the
// model to *rank* a query's alternatives, not just to scale with input size.
// The first bounded assignments, anchors and draws, have at most β switches.
func (g *generator) selectAssignments(ctx *core.Context) (assigns [][]uint8, bounded int) {
	n := ctx.Plan.NumOps()
	assigns = make([][]uint8, 0, 2*g.d.plans)
	seen := map[string]bool{}
	add := func(a []uint8) {
		key := string(a)
		if !seen[key] {
			seen[key] = true
			assigns = append(assigns, a)
		}
	}
	for pi, p := range g.r.Platforms {
		if _, err := plan.AllOn(ctx.Plan, p, g.r.Avail); err == nil {
			add(bytes.Repeat([]byte{uint8(pi)}, n))
		}
	}
	for i := 0; i < 4*g.d.plans && len(assigns) < g.d.plans; i++ {
		if a, ok := g.drawBounded(ctx); ok {
			add(a)
		}
	}
	bounded = len(assigns)
	for i := 0; i < g.d.plans; i++ {
		a := make([]uint8, n)
		for j := range a {
			alts := ctx.Alternatives(plan.OpID(j))
			a[j] = alts[g.rng.Intn(len(alts))]
		}
		add(a)
	}
	return assigns, bounded
}

// drawBounded draws one assignment with at most β platform switches
// (Section VI-A). It draws a switch budget s in [1, β] and walks the plan in
// topological order: a source takes any of its platforms, and the other
// operators pick the s that switch by selection sampling, so the switches
// fall uniformly across the plan. A switching operator leaves its first
// input's platform, any other stays on it; either takes any of its platforms
// when none qualifies. ok is false when the plan ends with more than β
// switching edges: a join's second input, or an operator that cannot run on
// its input's platform, can add switches the budget did not count.
func (g *generator) drawBounded(ctx *core.Context) (a []uint8, ok bool) {
	l := ctx.Plan
	a = make([]uint8, l.NumOps())
	switches := 1 + g.rng.Intn(beta)
	left := l.NumOps() - len(l.Sources())
	var pick []uint8
	for _, id := range l.TopoOrder() {
		alts := ctx.Alternatives(id)
		in := l.Op(id).In
		if len(in) == 0 {
			a[id] = alts[g.rng.Intn(len(alts))]
			continue
		}
		switching := g.rng.Intn(left) < switches
		left--
		if switching {
			switches--
		}
		pick = pick[:0]
		for _, p := range alts {
			if (p != a[in[0]]) == switching {
				pick = append(pick, p)
			}
		}
		from := pick
		if len(from) == 0 {
			from = alts
		}
		a[id] = from[g.rng.Intn(len(from))]
	}
	x, err := ctx.Unvectorize(&core.Vector{Assign: a})
	return a, err == nil && len(x.Conversions) <= beta
}

// expand labels one plan structure: it instantiates build at every point of
// the profile ladder xs, selects the execution plans at the middle one,
// executes the Jr subset, interpolates the rest, and appends the labelled
// vectors to ds.
func (g *generator) expand(build func(x float64) (*plan.Logical, error), xs []float64, ds *mlmodel.Dataset, rep *report) error {
	insts, err := g.instantiateLadder(build, xs)
	if err != nil {
		return err
	}
	assigns, _ := g.selectAssignments(insts[len(insts)/2])
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
func (g *generator) labelJobs(insts []*core.Context, xs []float64, assigns [][]uint8, ds *mlmodel.Dataset, rep *report) error {
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
			x, err := insts[i].Unvectorize(&core.Vector{F: nil, Assign: assign})
			if err != nil {
				return err
			}
			res := g.r.Cluster.Run(x)
			if !res.Failed() {
				// The per-operator execution log also labels
				// partial plans: the prune operation scores
				// subplan vectors during enumeration, so the
				// model must see them at training time.
				rep.SubplanRows += g.emitPrefixRows(insts[i], x, res, assign, ds)
			}
			rt := res.Runtime
			if res.OOM {
				// Failures are labelled with a large penalty so
				// the model learns to avoid the plan; they are
				// excluded from interpolation support.
				rt = 2 * g.r.Cluster.Timeout
				rep.Failed++
			} else if res.TimedOut {
				rt = g.r.Cluster.Timeout
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
			impute, err := NewImputer(runXs, runYs)
			if err != nil {
				return err
			}
			for i := range xs {
				if !executed[i] {
					// No imputed runtime can plausibly exceed
					// the failure penalty; clamp polynomial
					// overshoot.
					runtimes[i] = min(impute(xs[i]), 2*g.r.Cluster.Timeout)
					executed[i] = true
					rep.Imputed++
				}
			}
		}
		for i := range xs {
			if !executed[i] {
				continue // no interpolation support: drop the job
			}
			v := insts[i].VectorizeExecution(assign)
			ds.Append(v.F, runtimes[i])
			rep.Jobs++
		}
	}
	return nil
}
