package core

import (
	"fmt"
	"runtime"

	"repro/internal/mlmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/platform"
)

// ResolveWorkers maps a worker-count setting to the effective enumeration
// parallelism: positive values are taken as-is, zero and negative values
// resolve to runtime.GOMAXPROCS(0). Every entry point that accepts a
// -workers flag (roboptd, robopt, benchharness) and the serving layer
// resolve through this one function so "auto" means the same thing
// everywhere, and the resolved value is what /statz and -version report.
func ResolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// CostModel is the oracle m of the prune operation (Section IV-E): "it can
// be a cost model, an ML model, or even a pricing catalogue". Robopt
// instantiates it with an ML model trained to predict execution-plan
// runtimes; the latency experiments plug in a linear scorer. It is
// mlmodel.Model: the enumeration scores every vector through the model's one
// kernel, PredictBatchDist (dist.go).
type CostModel = mlmodel.Model

// Stats counts the work performed during one enumeration. It backs Table I
// (enumerated subplans) and the latency analyses of Figures 1, 9, 10, and is
// the per-request cost record the service exports on /metricz.
type Stats struct {
	VectorsCreated int // plan vectors materialized (enumerated subplans)
	Merges         int // merge operations performed
	ModelBatches   int // batched cost-oracle invocations (one per predicted enumeration)
	ModelRows      int // feature rows sent to the cost oracle across all batches
	MemoHits       int // vectors that reached the cost oracle already scored (no model work)
	Pruned         int // vectors discarded by pruning
	IntervalKept   int // near-tie vectors kept by overlap pruning (Risk.KeepOverlap)
	PeakEnumSize   int // largest enumeration encountered

	// Degraded reports that the enumeration Budget was exhausted and the
	// remaining concatenations ran in degraded mode (aggressive lossy
	// pruning): the returned plan is best-effort, not enumeration-optimal.
	Degraded bool
	// DegradeReason names the exhausted budget dimension ("max-vectors",
	// "max-model-calls" or "soft-deadline") when Degraded is set.
	DegradeReason string
	// Par counts the parallel scheduler's work (see schedule.go).
	Par ParStats
	// Timings is the wall-clock time spent per pipeline stage.
	Timings obs.StageTimings
}

// ParStats counts the work of the round-based parallel enumeration
// scheduler. Rounds and Tasks are properties of the schedule, which is
// computed serially from frozen priorities, so they are identical for any
// Workers setting; Steals and MaxQueueDepth describe how the pool actually
// executed the schedule and vary with Workers and timing (Counters() zeroes
// them for that reason).
type ParStats struct {
	// Rounds is the number of scheduling rounds (barriers) of the run.
	Rounds int
	// Tasks is the number of boundary tasks executed across all rounds.
	Tasks int
	// Steals is the number of tasks a worker took from another worker's
	// queue (work-stealing events). Timing-dependent.
	Steals int
	// MaxQueueDepth is the deepest per-worker task queue observed when a
	// round's tasks were dealt out. Depends on the Workers setting.
	MaxQueueDepth int
}

// Counters returns a copy of s with the wall-clock timings and the
// timing-dependent scheduler fields zeroed: the deterministic work counters.
// Two runs of the same optimization are expected to produce equal Counters()
// whatever Workers is, while Timings, Par.Steals and Par.MaxQueueDepth
// naturally differ run to run.
func (s Stats) Counters() Stats {
	s.Timings = obs.StageTimings{}
	s.Par.Steals = 0
	s.Par.MaxQueueDepth = 0
	return s
}

// merge folds the counters of one task's Stats into s: sums the additive
// counters, maxes the peak, keeps the first degradation reason (callers
// merge in task-selection order, so "first" is deterministic), and
// accumulates the stage timings. Par is not touched — the scheduler counts
// rounds, tasks and steals itself.
func (s *Stats) merge(t *Stats) {
	s.VectorsCreated += t.VectorsCreated
	s.Merges += t.Merges
	s.ModelBatches += t.ModelBatches
	s.ModelRows += t.ModelRows
	s.MemoHits += t.MemoHits
	s.Pruned += t.Pruned
	s.IntervalKept += t.IntervalKept
	if t.PeakEnumSize > s.PeakEnumSize {
		s.PeakEnumSize = t.PeakEnumSize
	}
	if t.Degraded && !s.Degraded {
		s.Degraded = true
		s.DegradeReason = t.DegradeReason
	}
	s.Timings.Add(t.Timings)
}

func (s *Stats) observe(size int) {
	if size > s.PeakEnumSize {
		s.PeakEnumSize = size
	}
}

// topoClass classifies an operator's local structure for the
// topology-membership features.
type topoClass uint8

const (
	classPipeline topoClass = iota
	classJuncture
	classReplicate
)

// Context precomputes everything one optimization run needs about a logical
// plan: the schema, per-operator platform alternatives, edge lists, topology
// classes and loop heads. A Context is cheap enough to build per query and
// is not safe for concurrent mutation, but all Optimize* entry points may be
// called sequentially on the same Context.
type Context struct {
	Plan   *plan.Logical
	Schema *Schema
	Avail  *platform.Availability

	// Workers sizes the enumeration worker pool (Section IV: the algebraic
	// operations "enable parallelism"). Per-boundary enumerate/merge/prune
	// tasks fan out across this many goroutines with work stealing (see
	// schedule.go), and within a task merges and model invocations fan out
	// the same way. 0 or 1 runs serially. Results are bit-identical either
	// way — the schedule and reduction order are computed serially — but
	// the cost model must be safe for concurrent Predict and PredictBatchDist
	// calls (all mlmodel models are).
	Workers int

	// Budget bounds the work of one optimization run; the zero value is
	// unlimited. When a dimension is exhausted mid-enumeration, the run
	// degrades gracefully instead of erroring: see Budget.
	Budget Budget

	// Trace, when set, makes Optimize/OptimizeOpts record a span tree (one
	// span per algebra operation: vectorize, split, enumerate, merge,
	// prune, infer, unvectorize) plus a typed pruning audit trail into the
	// trace, attached to Result.Trace and consumable via Result.Explain.
	// When nil — the default — the instrumented paths reduce to one nil
	// check each, so untraced runs stay at full speed. Like the other
	// per-run fields it must not be swapped mid-run.
	Trace *obs.Trace

	// TraceParent, when set alongside Trace, parents the run's root span
	// under an existing span of the same trace — how a batch member's
	// optimization nests under the batch root span. Nil (the default) keeps
	// the root span at the top level. Untraced runs ignore it entirely.
	TraceParent *obs.Span

	// Risk configures uncertainty-aware scoring and pruning (see Risk).
	// The zero value is the paper's point-estimate optimizer.
	Risk Risk

	alternatives [][]uint8     // per op: schema platform columns available
	edges        []plan.Edge   // all dataflow edges
	opClass      []topoClass   // per op
	loopHead     []bool        // per op: counts the loop topology once
	linear       []bool        // per op: pipeline-fusable
	depth        []int         // per op: longest path from a source
	adjacency    [][]plan.OpID // per op: all neighbours (in and out)
	effIters     []float64     // per op: loop iterations (1 outside loops)

	// Per-run enumeration memory (store.go): the vector store of the run in
	// progress (or last finished, while its result may still be read) and
	// the scratch of the goroutine driving this Context — worker 0's on the
	// caller's Context, the executing worker's on a pool worker's copy.
	store   *vecStore
	scratch *scratch
	// poison arms the store's test-only poison hook for runs on this
	// Context (see vecStore.poison).
	poison bool

	// Per-run tracing state, live only while Trace is set: the run's audit
	// collector, the root span, the span adopted as parent by nested infer
	// spans, and the in-flight prune audit record. A scheduled task records
	// into a collector and under a span of its own (runTask installs them
	// on the Context that executes it: this one when the round runs inline,
	// a pool worker's copy otherwise), folded back in at the round barrier.
	rt      *RunTrace
	root    *obs.Span
	curSpan *obs.Span
	curRec  *PruneRecord
}

// span opens a child span of parent when this run is traced; the returned
// span may be nil and all its methods then no-op.
func (c *Context) span(parent *obs.Span, name string) *obs.Span {
	if c.rt == nil {
		return nil
	}
	return c.Trace.StartSpan(parent, name)
}

// beginRunTrace arms per-run tracing when a Trace is attached, returning the
// run's root span (nil otherwise). endRunTrace must run before the entry
// point returns.
func (c *Context) beginRunTrace() *obs.Span {
	c.rt, c.root, c.curSpan, c.curRec = nil, nil, nil, nil
	if c.Trace == nil {
		return nil
	}
	c.rt = c.newRunTrace()
	c.root = c.Trace.StartSpan(c.TraceParent, "optimize")
	c.root.SetInt("ops", int64(c.Plan.NumOps()))
	c.root.SetFloat("searchSpace", c.SearchSpaceSize())
	return c.root
}

// endRunTrace closes the root span, stamps the run's outcome onto it, and
// clears the transient tracing state. Returns the collected audit (nil on
// untraced runs) for attachment to the Result.
func (c *Context) endRunTrace(st *Stats, err error) *RunTrace {
	rt := c.rt
	if rt != nil {
		c.root.SetInt("vectorsCreated", int64(st.VectorsCreated))
		c.root.SetInt("pruned", int64(st.Pruned))
		c.root.SetInt("modelRows", int64(st.ModelRows))
		c.root.SetInt("memoHits", int64(st.MemoHits))
		if st.Par.Rounds > 0 {
			c.root.SetInt("rounds", int64(st.Par.Rounds))
			c.root.SetInt("tasks", int64(st.Par.Tasks))
			c.root.SetInt("steals", int64(st.Par.Steals))
			c.root.SetInt("maxQueueDepth", int64(st.Par.MaxQueueDepth))
		}
		if st.Degraded {
			c.root.SetBool("degraded", true)
			c.root.SetStr("degradeReason", st.DegradeReason)
		}
		if err != nil {
			c.root.SetStr("error", err.Error())
			c.Trace.SetError(err.Error())
		}
		c.root.End()
	}
	c.rt, c.root, c.curSpan, c.curRec = nil, nil, nil, nil
	return rt
}

// NewContext prepares an optimization context for plan l over the given
// platform universe and availability matrix.
func NewContext(l *plan.Logical, platforms []platform.ID, avail *platform.Availability) (*Context, error) {
	s, err := NewSchema(platforms)
	if err != nil {
		return nil, err
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	n := l.NumOps()
	c := &Context{
		Plan:         l,
		Schema:       s,
		Avail:        avail,
		alternatives: make([][]uint8, n),
		edges:        l.Edges(),
		opClass:      make([]topoClass, n),
		loopHead:     make([]bool, n),
		linear:       make([]bool, n),
		depth:        make([]int, n),
		adjacency:    make([][]plan.OpID, n),
		effIters:     make([]float64, n),
	}
	firstInLoop := map[int]plan.OpID{}
	for _, o := range l.Ops {
		var alts []uint8
		for pi, p := range s.Platforms {
			if avail.Has(o.Kind, p) {
				alts = append(alts, uint8(pi))
			}
		}
		if len(alts) == 0 {
			return nil, fmt.Errorf("core: operator %d (%s) has no execution operator on platforms %v", o.ID, o.Kind, platforms)
		}
		c.alternatives[o.ID] = alts
		switch {
		case len(o.In) >= 2:
			c.opClass[o.ID] = classJuncture
		case len(o.Out) >= 2:
			c.opClass[o.ID] = classReplicate
		default:
			c.opClass[o.ID] = classPipeline
		}
		c.linear[o.ID] = o.IsBoundaryLinear()
		c.effIters[o.ID] = 1
		if o.LoopID != 0 {
			if head, ok := firstInLoop[o.LoopID]; !ok || o.ID < head {
				firstInLoop[o.LoopID] = o.ID
			}
			c.effIters[o.ID] = float64(l.Loops[o.LoopID])
		}
		c.adjacency[o.ID] = append(append([]plan.OpID(nil), o.In...), o.Out...)
	}
	for _, head := range firstInLoop {
		c.loopHead[head] = true
	}
	for _, id := range l.TopoOrder() {
		d := 0
		for _, p := range l.Ops[id].In {
			if c.depth[p]+1 > d {
				d = c.depth[p] + 1
			}
		}
		c.depth[id] = d
	}
	return c, nil
}

// Alternatives returns the schema platform columns available for operator
// id. The slice must not be modified.
func (c *Context) Alternatives(id plan.OpID) []uint8 { return c.alternatives[id] }

// SearchSpaceSize returns the number of complete execution plans (the
// |Ω_p| = Π k_i of the plan enumeration problem), saturating at +Inf-like
// large values via float64.
func (c *Context) SearchSpaceSize() float64 {
	size := 1.0
	for _, alts := range c.alternatives {
		size *= float64(len(alts))
	}
	return size
}

// boundaryOf appends to out the operators of scope that are adjacent to at
// least one operator outside scope, in ascending ID order (the boundary
// operators of Definition 2).
func (c *Context) boundaryOf(scope plan.Bitset, out []plan.OpID) []plan.OpID {
	for id := scope.Next(0); id >= 0; id = scope.Next(id + 1) {
		for _, nb := range c.adjacency[id] {
			if !scope.Has(nb) {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// crossingEdges returns the dataflow edges with one endpoint in a and the
// other in b (either direction).
func (c *Context) crossingEdges(a, b plan.Bitset) []plan.Edge {
	var out []plan.Edge
	for _, e := range c.edges {
		if (a.Has(e.From) && b.Has(e.To)) || (b.Has(e.From) && a.Has(e.To)) {
			out = append(out, e)
		}
	}
	return out
}
