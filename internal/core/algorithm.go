package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

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
	// OrderTopDown concatenates sink-most enumerations first (Figure 10).
	OrderTopDown
	// OrderBottomUp concatenates source-most enumerations first (Figure 10).
	OrderBottomUp
)

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
	// Trace is the run's pruning audit trail, recorded only when
	// Context.Trace was a detailed trace (the span tree is in that trace,
	// whose optimize span carries this same audit); Explain derives the
	// explainability report from it. Nil on runs not traced in detail.
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
	return c.OptimizeOpts(ctx, m, BoundaryPruner{}, OrderPriority)
}

// OptimizeOpts runs Algorithm 1 with an explicit pruner and traversal order,
// under the same cancellation and budget contract as Optimize. When
// Context.Trace is set, the run additionally records itself on it: a span
// tree and pruning audit trail, returned on Result.Trace, on a detailed
// trace, its optimize span alone on any other (see Context.Trace).
func (c *Context) OptimizeOpts(ctx context.Context, m CostModel, pr Pruner, order OrderPolicy) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var st Stats
	c.beginRunTrace()
	c.bind(m)
	defer c.endRun(true)
	final, err := c.EnumerateFull(ctx, pr, order, &st)
	if err != nil {
		c.endRunTrace(&st, err)
		return nil, err
	}
	best := c.getOptimal(ctx, final, &st)
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
		c.rt.recordContributions(c, best)
	}
	lap := time.Since(c.clock)
	uspan := c.span(c.root, "unvectorize")
	x, err := c.Unvectorize(best)
	uspan.End()
	st.Timings.Unvectorize += time.Since(c.clock) - lap
	if err != nil {
		c.endRunTrace(&st, err)
		return nil, err
	}
	rt := c.endRunTrace(&st, nil)
	// The winner is expanded out of the run's store: endRun drops the store
	// and hands its memory on.
	return &Result{Execution: x, Vector: c.wide(best), Predicted: best.Cost, PredictedDist: best.Dist, Risk: c.Risk, Degraded: st.Degraded, Stats: st, Trace: rt}, nil
}

// OptimizeExhaustive enumerates the complete search space Ω_p without
// pruning (the "Exhaustive enumeration" baseline of Figure 9a) and returns
// the optimal plan w.r.t. the model. maxVectors bounds the enumeration (an
// error, not degradation — the exhaustive baseline has no meaningful
// degraded result); 0 means unlimited. ctx cancels the run. Figure 9a's
// exhaustive baseline and the benchmark's Lemma 1 probe run it.
func (c *Context) OptimizeExhaustive(ctx context.Context, m CostModel, maxVectors int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var st Stats
	c.bind(m)
	defer c.endRun(false)
	e, err := c.Enumerate(ctx, plan.FullBitset(c.Plan.NumOps()), maxVectors, &st)
	if err != nil {
		return nil, err
	}
	best := c.getOptimal(ctx, e, &st)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	x, err := c.Unvectorize(best)
	if err != nil {
		return nil, err
	}
	return &Result{Execution: x, Vector: c.wide(best), Predicted: best.Cost, PredictedDist: best.Dist, Risk: c.Risk, Stats: st}, nil
}

// ---------------------------------------------------------------------------
// Algorithm 1: priority-based plan enumeration
// ---------------------------------------------------------------------------

// enumNode is one of a run's 2n−1 enumeration slots (vecStore.enum): the
// enumeration, its node of the frontier while it is live, and the task it
// heads in a round that selects it. A node is always some slot's
// enumeration, and a round's task is keyed by the node that heads it, so the
// three share one record, carved with the run's memory.
type enumNode struct {
	e    Enumeration
	prio float64
	tie  int // fewer new boundary operators wins on equal priority
	seq  int // insertion order breaks remaining ties

	// children are the node's downstream neighbours and claimed marks a
	// node some task of the round consumes; selectRound computes both.
	children []*enumNode
	claimed  bool
	boundaryTask
}

// frontier is the serial state of the schedule: the live enumerations, the
// live enumeration that owns each boundary operator, the counters numbering
// nodes and concatenations in selection order, and selectRound's buffers.
// Its lists are carved from the run's memory once per run (frontierRefs): a
// run has at most n live nodes, a round hands out at most n/2 tasks (they
// are disjoint and each consumes at least two live nodes), and the children
// lists of one round name at most one node per dataflow edge.
type frontier struct {
	nodes     []*enumNode
	owner     []*enumNode
	seq, step int
	ordered   []*enumNode
	union     plan.Bitset

	kids  []*enumNode // this round's children lists
	tasks []*enumNode // this round's task heads, in selection order
	pool  *pool       // parallel rounds (runRound)
}

// frontierRefs is the number of node references the frontier of an
// n-operator plan with the given number of dataflow edges carves.
func frontierRefs(n, edges int) int { return 3*n + edges + n/2 + 1 }

// newFrontier returns the run's schedule state, sized for the n-operator
// plan of c. It runs before the run's first round, alone on the run's
// memory.
func (c *Context) newFrontier(n int) *frontier {
	s := c.store
	refs := s.mem.refs.take(frontierRefs(n, len(c.edges)))
	s.front = frontier{
		nodes:   refs[:0:n],
		owner:   refs[n : 2*n : 2*n],
		ordered: refs[2*n : 2*n : 3*n],
		kids:    refs[3*n : 3*n : 3*n+len(c.edges)],
		tasks:   refs[3*n+len(c.edges) : 3*n+len(c.edges)],
		union:   s.scopes[len(s.scopes)-s.words:],
	}
	return &s.front
}

// add appends the live enumeration of slot nd to the frontier as the owner
// of its boundary operators: those are the only ones childrenOf looks up.
// selectRound sets the node's other fields before it reads them.
func (f *frontier) add(nd *enumNode) {
	nd.seq, nd.claimed = f.seq, false
	f.seq++
	for _, id := range nd.e.Boundary {
		f.owner[id] = nd
	}
	f.nodes = append(f.nodes, nd)
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
// splits the plan into singleton operators, enumerates each, and
// concatenates enumerations in priority order, pruning after every
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
// A BoundaryPruner scores with the run's model, so it prunes only inside
// Optimize or OptimizeOpts, which bind one; model-free pruners run anywhere.
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
	c.clock = time.Now()
	// NewContext validated the plan, so it has operators.
	n := c.Plan.NumOps()
	// Lines 2-5: split into singletons, enumerate each, set priorities. The
	// split (operation 4) is a walk over the operator IDs: a singleton's rows
	// are built from the operator, so no abstract plan vector is needed.
	c.span(c.root, "vectorize").End()
	c.span(c.root, "split").End()
	lap := time.Since(c.clock)
	st.Timings.Vectorize += lap
	espan := c.span(c.root, "enumerate")
	c.beginRun(len(c.alts))
	f := c.newFrontier(n)
	for id := range plan.OpID(n) {
		c.enumerateSingleton(id, st)
		f.add(&c.store.nodes[id])
	}
	espan.End()
	st.Timings.Enumerate += time.Since(c.clock) - lap
	if c.rt != nil && n > 1 {
		// Every concatenation joins two live enumerations into one.
		c.rt.reserve(n - 1)
	}

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
		rspan := c.span(c.root, "round").SetInt("round", int64(st.Par.Rounds))
		st.Par.Rounds++
		st.Par.Tasks += len(tasks)
		for _, t := range tasks {
			t.span = c.span(rspan, "task")
		}
		base := *st
		c.runRound(ctx, f, pr, tasks, degraded, base, st)
		rspan.End()
		for _, t := range tasks {
			if t.err != nil {
				return nil, t.err
			}
		}
		// Deterministic reduction: the consumed enumerations leave the
		// frontier and the task results join it in task-selection order,
		// with their stats (their audit records are already in their steps'
		// slots). A task's result is the slot of its last step.
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
			f.add(&c.store.nodes[n+t.stepBase+len(t.children)-1])
		}
	}
	return &f.nodes[0].e, nil
}

// childrenOf returns, appended to out, the distinct enumerations
// downstream-adjacent to node (owners of consumers of node's operators),
// ordered by ascending insertion sequence number for determinism (singletons
// get their sequence in scope-ID order, merged nodes in creation order). An
// operator with a consumer outside node's scope is on its boundary, so only
// the boundary is walked, and such a consumer is on its own enumeration's
// boundary, so owner holds its owner (see frontier.add).
func (c *Context) childrenOf(node *enumNode, owner []*enumNode, out []*enumNode) []*enumNode {
	base := len(out)
	scope := node.e.Scope
	for _, id := range node.e.Boundary {
		for _, nb := range c.Plan.Op(id).Out {
			if scope.Has(nb) {
				continue
			}
			o := owner[nb]
			if slices.Contains(out[base:], o) {
				continue
			}
			// A node has a handful of children: insertion keeps them sorted.
			i := len(out)
			out = append(out, o)
			for ; i > base && out[i-1].seq > o.seq; i-- {
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
			d = math.Max(d, float64(c.ops[id].depth))
		}
		node.prio = d
	case OrderBottomUp:
		// Source-most first: priority shrinks with dataflow depth.
		d := math.Inf(1)
		for id := scope.Next(0); id >= 0; id = scope.Next(id + 1) {
			d = math.Min(d, float64(c.ops[id].depth))
		}
		node.prio = -d
	}
	// Tie-break: fewer new boundary operators (Section V-B). An operator on
	// the boundary of the union is on its own enumeration's boundary, and
	// the scopes are disjoint, so the boundaries are counted, not the union.
	copy(f.union, scope)
	for _, ch := range node.children {
		f.union.UnionInto(ch.e.Scope)
	}
	node.tie = c.outerCount(node.e.Boundary, f.union)
	for _, ch := range node.children {
		node.tie += c.outerCount(ch.e.Boundary, f.union)
	}
}

// outerCount counts the operators of ids adjacent to at least one operator
// outside scope.
func (c *Context) outerCount(ids []plan.OpID, scope plan.Bitset) int {
	n := 0
	for _, id := range ids {
		if c.exposed(id, scope) {
			n++
		}
	}
	return n
}
