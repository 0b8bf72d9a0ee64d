package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
)

// OrderPolicy selects the traversal order of the plan enumeration. The
// paper's fine-granular operations make the traversal a plug-in: the
// priority of Definition 3 yields Robopt's order, while distance-based
// priorities yield the classic top-down and bottom-up strategies used as
// baselines in Figure 10 (Section V-B).
type OrderPolicy int

const (
	// OrderPriority is the paper's priority: the cardinality of the
	// enumeration resulting from concatenating a node with its children,
	// |V| × Π|Vc| (Definition 3). It maximizes the pruning effect.
	OrderPriority OrderPolicy = iota
	// OrderTopDown concatenates sink-most enumerations first.
	OrderTopDown
	// OrderBottomUp concatenates source-most enumerations first.
	OrderBottomUp
)

// String names the policy.
func (o OrderPolicy) String() string {
	switch o {
	case OrderPriority:
		return "priority"
	case OrderTopDown:
		return "top-down"
	case OrderBottomUp:
		return "bottom-up"
	}
	return fmt.Sprintf("OrderPolicy(%d)", int(o))
}

// Result is the outcome of one optimization run.
type Result struct {
	Execution *plan.Execution
	Vector    *Vector
	// Predicted is the chosen plan's selection score: the model's runtime
	// estimate, risk-adjusted to mean + λ·spread when Risk.Lambda was set.
	Predicted float64
	// PredictedDist is the model's predictive distribution for the chosen
	// plan. On models without distributional support it degenerates to
	// Lo = Hi = Mean with zero Spread.
	PredictedDist CostDist
	// Risk echoes the Context.Risk configuration the run used.
	Risk Risk
	// Degraded reports that the enumeration Budget was exhausted and the
	// plan is best-effort rather than enumeration-optimal (it is still a
	// valid, executable plan). Mirrors Stats.Degraded.
	Degraded bool
	Stats    Stats
	// Trace is the run's span tree and pruning audit trail, recorded only
	// when Context.Trace was set; Explain derives the explainability
	// report from it. Nil on untraced runs.
	Trace *RunTrace
}

// Optimize runs the full Robopt pipeline: priority-based enumeration with
// ML-driven boundary pruning, then unvectorization of the cheapest plan
// vector (Fig. 4). It is Algorithm 1 end to end.
//
// The run honours ctx: cancellation or an expired deadline is checked at
// every heap-pop of the enumeration and, cooperatively, inside the parallel
// merge and model-call loops, so the call returns ctx.Err() promptly even
// mid-blowup. A nil ctx behaves like context.Background(). The Context's
// Budget additionally bounds work with graceful degradation instead of an
// error; see Budget.
func (c *Context) Optimize(ctx context.Context, m CostModel) (*Result, error) {
	return c.OptimizeOpts(ctx, m, BoundaryPruner{Model: m}, OrderPriority)
}

// OptimizeOpts runs Algorithm 1 with an explicit pruner and traversal order,
// under the same cancellation and budget contract as Optimize. When
// Context.Trace is set, the run additionally records a span tree and pruning
// audit trail, returned on Result.Trace.
func (c *Context) OptimizeOpts(ctx context.Context, m CostModel, pr Pruner, order OrderPolicy) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var st Stats
	c.beginRunTrace()
	defer c.endRun()
	final, err := c.EnumerateFull(ctx, pr, order, &st)
	if err != nil {
		c.endRunTrace(&st, err)
		return nil, err
	}
	best := c.GetOptimal(ctx, final, m, &st)
	if err := ctx.Err(); err != nil {
		c.endRunTrace(&st, err)
		return nil, err
	}
	if best == nil {
		err := fmt.Errorf("core: enumeration produced no plan vectors")
		c.endRunTrace(&st, err)
		return nil, err
	}
	if c.rt != nil {
		c.rt.finishSelection(final, best)
		c.rt.recordContributions(c, m, best)
		c.root.SetFloat("predicted", best.Cost)
	}
	start := time.Now()
	uspan := c.span(c.root, "unvectorize")
	x, err := c.Unvectorize(best)
	uspan.End()
	st.Timings.Unvectorize += time.Since(start)
	if err != nil {
		c.endRunTrace(&st, err)
		return nil, err
	}
	rt := c.endRunTrace(&st, nil)
	// The winner is cloned out of the run's store, which is dropped here.
	return &Result{Execution: x, Vector: best.clone(), Predicted: best.Cost, PredictedDist: best.Dist, Risk: c.Risk, Degraded: st.Degraded, Stats: st, Trace: rt}, nil
}

// OptimizeExhaustive enumerates the complete search space Ω_p without
// pruning (the "Exhaustive enumeration" baseline of Figure 9a) and returns
// the optimal plan w.r.t. the model. maxVectors bounds the enumeration (an
// error, not degradation — the exhaustive baseline has no meaningful
// degraded result); 0 means unlimited. ctx cancels the run.
func (c *Context) OptimizeExhaustive(ctx context.Context, m CostModel, maxVectors int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var st Stats
	defer c.endRun()
	e, err := c.Enumerate(ctx, c.Vectorize(), maxVectors, &st)
	if err != nil {
		return nil, err
	}
	best := c.GetOptimal(ctx, e, m, &st)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	x, err := c.Unvectorize(best)
	if err != nil {
		return nil, err
	}
	return &Result{Execution: x, Vector: best.clone(), Predicted: best.Cost, PredictedDist: best.Dist, Risk: c.Risk, Stats: st}, nil
}

// ---------------------------------------------------------------------------
// Algorithm 1: priority-based plan enumeration
// ---------------------------------------------------------------------------

type enumNode struct {
	e    *Enumeration
	prio float64
	tie  int // fewer new boundary operators wins on equal priority
	seq  int // insertion order breaks remaining ties

	// children are the node's downstream neighbours and claimed marks a
	// node some task of the round consumes; selectRound computes both.
	children []*enumNode
	claimed  bool
}

// frontier is the serial state of the schedule: the live enumerations, the
// live enumeration that owns each operator, the counters numbering nodes and
// concatenations in selection order, and selectRound's buffers.
type frontier struct {
	nodes     []*enumNode
	owner     []*enumNode
	seq, step int
	ordered   []*enumNode
	union     plan.Bitset
	boundary  []plan.OpID
}

// add appends the live enumeration e to the frontier as the owner of its
// scope's operators.
func (f *frontier) add(e *Enumeration) {
	node := &enumNode{e: e, seq: f.seq}
	f.seq++
	for id := e.Scope.Next(0); id >= 0; id = e.Scope.Next(id + 1) {
		f.owner[id] = node
	}
	f.nodes = append(f.nodes, node)
}

// mergeBlock and pruneBlock are the cooperative-cancellation granularities
// of the two parallel loops: merges are cheap vector additions (large
// blocks), model calls can be arbitrarily slow (small blocks keep the
// cancellation latency at a few calls).
const (
	mergeBlock = 256
	pruneBlock = 16
)

// EnumerateFull runs the priority-based plan enumeration (Algorithm 1) and
// returns the final plan vector enumeration covering the whole plan. It
// vectorizes and splits the plan into singleton abstract vectors, enumerates
// each, and concatenates enumerations in priority order, pruning after every
// child concatenation.
//
// Concatenations are scheduled in rounds over a worker pool (see
// schedule.go): each round freezes the priorities, selects the
// highest-priority pairwise-disjoint boundary tasks, fans them out across
// Context.Workers goroutines with work stealing, and reduces the results in
// task-selection order. The schedule and reduction order are computed
// serially, so the final enumeration, Stats.Counters() and the pruning audit
// trail are bit-identical for any Workers setting.
//
// ctx is checked at every round, before every concatenation, and inside the
// parallel merge and inference loops; a cancelled context returns ctx.Err().
// The Context's Budget is enforced here: when a dimension is exhausted the
// remaining concatenations run in degraded mode (see Budget) and st.Degraded
// is set instead of returning an error. Count caps are rebased at each round
// barrier — a trip on one task degrades all tasks from the next round on —
// so degraded runs also stay deterministic across worker counts.
//
// The returned enumeration lives in the run's vector store and is valid until
// the next run (EnumerateFull, Enumerate or Optimize*) on this Context.
func (c *Context) EnumerateFull(ctx context.Context, pr Pruner, order OrderPolicy, st *Stats) (*Enumeration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if st == nil {
		// Budget accounting needs the counters even when the caller does
		// not want them.
		st = new(Stats)
	}
	start := time.Now()
	n := c.Plan.NumOps()
	if n == 0 {
		return nil, fmt.Errorf("core: empty plan")
	}
	// Lines 2-5: split into singletons, enumerate each, set priorities. The
	// split is a walk over the abstract vector's scope: a singleton's rows
	// are built from the operator, not from its abstract vector (Split).
	vspan := c.span(c.root, "vectorize")
	abstract := c.Vectorize()
	vspan.End()
	sspan := c.span(c.root, "split")
	sspan.SetInt("singletons", int64(abstract.Scope.Count())).End()
	st.Timings.Vectorize += time.Since(start)
	enumStart := time.Now()
	espan := c.span(c.root, "enumerate")
	rows := 0
	for _, alts := range c.alternatives {
		rows += len(alts)
	}
	c.beginRun(rows)
	f := &frontier{nodes: make([]*enumNode, 0, n), owner: make([]*enumNode, n), union: plan.NewBitset(n)}
	for id := abstract.Scope.Next(0); id >= 0; id = abstract.Scope.Next(id + 1) {
		f.add(c.enumerateSingleton(id, st))
	}
	espan.SetInt("vectors", int64(st.VectorsCreated)).End()
	st.Timings.Enumerate += time.Since(enumStart)

	degraded := false
	// Lines 6-17: concatenate by priority until one enumeration remains,
	// one scheduling round at a time.
	for len(f.nodes) > 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tasks := c.selectRound(f, order)
		if len(tasks) == 0 {
			// Every live enumeration is childless: the plan has more than
			// one weakly-connected component.
			return nil, fmt.Errorf("core: plan is not weakly connected; enumeration cannot converge")
		}
		round := st.Par.Rounds
		st.Par.Rounds++
		st.Par.Tasks += len(tasks)
		var rspan *obs.Span
		if c.rt != nil {
			rspan = c.span(c.root, "round")
			rspan.SetInt("round", int64(round)).SetInt("tasks", int64(len(tasks)))
			for _, t := range tasks {
				t.rt = &RunTrace{Spans: c.Trace, Platforms: c.rt.Platforms, intervals: c.rt.intervals}
				t.span = c.Trace.StartSpan(rspan, "task")
				t.span.SetInt("scope", int64(t.node.e.Scope.Count())).
					SetInt("children", int64(len(t.children)))
			}
		}
		base := *st
		c.runRound(ctx, pr, tasks, degraded, start, base, st)
		rspan.End()
		for _, t := range tasks {
			if t.err != nil {
				return nil, t.err
			}
		}
		// Deterministic reduction: the consumed enumerations leave the
		// frontier and the task results join it in task-selection order,
		// with their stats and audit records.
		live := f.nodes[:0]
		for _, nd := range f.nodes {
			if !nd.claimed {
				live = append(live, nd)
			}
		}
		f.nodes = live
		for _, t := range tasks {
			st.merge(&t.st)
			if t.st.Degraded {
				degraded = true
			}
			if c.rt != nil {
				c.rt.Prunes = append(c.rt.Prunes, t.rt.Prunes...)
			}
			f.add(t.result)
		}
	}
	return f.nodes[0].e, nil
}

// childrenOf returns, appended to out, the distinct enumerations
// downstream-adjacent to node (owners of consumers of node's operators),
// ordered by ascending insertion sequence number for determinism (singletons
// get their sequence in scope-ID order, merged nodes in creation order).
func (c *Context) childrenOf(node *enumNode, owner []*enumNode, out []*enumNode) []*enumNode {
	scope := node.e.Scope
	for id := scope.Next(0); id >= 0; id = scope.Next(id + 1) {
		for _, nb := range c.Plan.Op(id).Out {
			o := owner[nb]
			if o == node || slices.Contains(out, o) {
				continue
			}
			// A node has a handful of children: insertion keeps them sorted.
			i := len(out)
			out = append(out, o)
			for ; i > 0 && out[i-1].seq > o.seq; i-- {
				out[i] = out[i-1]
			}
			out[i] = o
		}
	}
	return out
}

// setPriority computes the node's priority under the given policy and its
// tie-break value (the number of boundary operators the concatenation with
// its children would introduce).
func (c *Context) setPriority(node *enumNode, order OrderPolicy, f *frontier) {
	scope := node.e.Scope
	switch order {
	case OrderPriority:
		// Definition 3: |V| × Π |Vc|.
		p := float64(len(node.e.Vectors))
		for _, ch := range node.children {
			p *= float64(len(ch.e.Vectors))
		}
		if len(node.children) == 0 {
			p = 0 // nothing to concatenate; let productive nodes go first
		}
		node.prio = p
	case OrderTopDown:
		// Sink-most first: priority grows with dataflow depth.
		d := math.Inf(-1)
		for id := scope.Next(0); id >= 0; id = scope.Next(id + 1) {
			d = math.Max(d, float64(c.depth[id]))
		}
		node.prio = d
	case OrderBottomUp:
		// Source-most first: priority shrinks with dataflow depth.
		d := math.Inf(1)
		for id := scope.Next(0); id >= 0; id = scope.Next(id + 1) {
			d = math.Min(d, float64(c.depth[id]))
		}
		node.prio = -d
	}
	// Tie-break: fewer new boundary operators (Section V-B).
	copy(f.union, scope)
	for _, ch := range node.children {
		f.union.UnionInto(ch.e.Scope)
	}
	f.boundary = c.boundaryOf(f.union, f.boundary[:0])
	node.tie = len(f.boundary)
}
