package core

import (
	"fmt"
	"runtime"
	"time"

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
	s.PeakEnumSize = max(s.PeakEnumSize, t.PeakEnumSize)
	if t.Degraded && !s.Degraded {
		s.Degraded = true
		s.DegradeReason = t.DegradeReason
	}
	s.Timings.Add(t.Timings)
}

// topoClass classifies an operator's local structure for the
// topology-membership features.
type topoClass uint8

const (
	classPipeline topoClass = iota
	classJuncture
	classReplicate
)

// opInfo is what a Context precomputes about one operator.
type opInfo struct {
	iters    float64 // loop iterations (1 outside loops)
	depth    int     // longest path from a source
	class    topoClass
	loopHead bool // counts the loop topology once
	linear   bool // pipeline-fusable
}

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

	// Trace, when set, makes Optimize/OptimizeOpts record the run on it. On
	// a detailed trace (obs.Trace.Detailed: every bare obs.NewTrace, and a
	// Tracer's trace whose sample draw hit or whose request forced it) the
	// run records a span tree (one timed span per algebra operation:
	// vectorize, split, enumerate, merge, prune, unvectorize, grouped into
	// scheduler rounds and tasks) plus a typed pruning audit trail, which
	// hangs on the run's optimize span and on Result.Trace and is consumable
	// via Result.Explain. On any other trace it records only the optimize
	// span, carrying the run's summary and its stage timings, and
	// Result.Trace stays nil. When nil — the default — the instrumented paths
	// reduce to one nil check each, so untraced runs stay at full speed. Like
	// the other per-run fields it must not be swapped mid-run.
	Trace *obs.Trace

	// TraceParent, when set alongside Trace, parents the run's root span
	// under an existing span of the same trace — how a batch member's
	// optimization nests under the batch root span. Nil (the default) keeps
	// the root span at the top level. Untraced runs ignore it entirely.
	TraceParent *obs.Span

	// Risk configures uncertainty-aware scoring and pruning (see Risk).
	// The zero value is the paper's point-estimate optimizer.
	Risk Risk

	alts   []uint8     // schema platform columns available, per op (Alternatives)
	altOff []int32     // op id's alternatives are alts[altOff[id]:altOff[id+1]]
	edges  []plan.Edge // all dataflow edges
	ops    []opInfo    // per op
	adj    []plan.OpID // all neighbours (in and out), per op
	adjOff []int32     // op id's neighbours are adj[adjOff[id]:adjOff[id+1]]
	// The run's rows hold only the Schema columns a vector of the plan can
	// set, live (ascending, liveCells; len(live) cells), the movement block
	// and the tail after it from moveAt on. The Context's first run sets them
	// (layout). A vector leaving the run is expanded (wide).
	live   []int
	moveAt int

	// Per-run enumeration memory (store.go): the vector store of the run in
	// progress (or last finished, while its result may still be read) and
	// the scratch of the goroutine driving this Context — worker 0's on the
	// caller's Context, the executing worker's on a pool worker's copy.
	store   *vecStore
	scratch *scratch
	// spec is the run's cost model specialised to the run's rows (bind).
	spec CostModel
	// clock is the origin of the run's stage clock, set when EnumerateFull or
	// Enumerate starts: a stage is timed as the difference of two
	// time.Since(clock) readings, one monotonic read per stage boundary, and
	// adjacent stages share the reading between them.
	clock time.Time
	// poison, once tests set it, arms the store's poison hook for runs on
	// this Context (see vecStore.poison).
	poison bool

	// Per-run tracing state: the run's audit (only on a detailed trace), its
	// root span (on any trace), and the prune audit record in flight on the
	// goroutine driving this Context (a pool worker's copy has its own, see
	// workerContext).
	rt     *RunTrace
	root   *obs.Span
	curRec *PruneRecord
}

// span opens a child span of parent when this run is traced in detail; the
// returned span may be nil and all its methods then no-op.
func (c *Context) span(parent *obs.Span, name string) *obs.Span {
	if c.rt == nil {
		return nil
	}
	return c.Trace.StartSpan(parent, name)
}

// beginRunTrace arms per-run tracing when a Trace is attached: the optimize
// span always, the audit only on a detailed trace. endRunTrace must run
// before the entry point returns.
func (c *Context) beginRunTrace() {
	c.rt, c.root, c.curRec = nil, nil, nil
	if c.Trace == nil {
		return
	}
	if c.Trace.Detailed() {
		c.rt = c.newRunTrace()
	}
	c.root = c.Trace.StartSpan(c.TraceParent, "optimize")
	c.root.SetInt("ops", int64(c.Plan.NumOps()))
	c.root.SetFloat("searchSpace", c.SearchSpaceSize())
}

// endRunTrace stamps the run's summary onto the root span, hangs the audit
// on it (a detailed run) or the stage timings the missing child spans would
// have shown (any other), closes it, and clears the transient tracing state.
// Returns the audit (nil unless the run was traced in detail) for attachment
// to the Result.
func (c *Context) endRunTrace(st *Stats, err error) *RunTrace {
	rt, root := c.rt, c.root
	if root != nil {
		if rt != nil {
			rt.seal()
			root.SetDetail(rt)
		}
		root.SetInt("vectorsCreated", int64(st.VectorsCreated))
		root.SetInt("pruned", int64(st.Pruned))
		root.SetInt("modelRows", int64(st.ModelRows))
		root.SetInt("memoHits", int64(st.MemoHits))
		if st.Par.Rounds > 0 {
			root.SetInt("rounds", int64(st.Par.Rounds))
			root.SetInt("tasks", int64(st.Par.Tasks))
			root.SetInt("steals", int64(st.Par.Steals))
			root.SetInt("maxQueueDepth", int64(st.Par.MaxQueueDepth))
		}
		if rt == nil {
			tm := &st.Timings
			root.SetFloat("vectorizeMs", durMs(tm.Vectorize))
			root.SetFloat("enumerateMs", durMs(tm.Enumerate))
			root.SetFloat("mergeMs", durMs(tm.Merge))
			root.SetFloat("pruneMs", durMs(tm.Prune))
			root.SetFloat("unvectorizeMs", durMs(tm.Unvectorize))
			root.SetFloat("inferMs", durMs(tm.Infer))
		}
		if st.Degraded {
			root.SetBool("degraded", true)
			root.SetStr("degradeReason", st.DegradeReason)
		}
		if err != nil {
			c.Trace.SetError(err.Error())
		}
		root.End()
	}
	c.rt, c.root, c.curRec = nil, nil, nil
	return rt
}

// durMs is d in milliseconds at microsecond resolution, as spans and
// StageTimings.Milliseconds render durations.
func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// NewContext prepares an optimization context for plan l over the given
// platform universe and availability matrix.
func NewContext(l *plan.Logical, platforms []platform.ID, avail *platform.Availability) (*Context, error) {
	s, err := NewSchema(platforms)
	if err != nil {
		return nil, err
	}
	order, err := l.ValidOrder()
	if err != nil {
		return nil, err
	}
	n := l.NumOps()
	edges := 0
	for _, o := range l.Ops {
		edges += len(o.Out)
	}
	// The per-operator tables are flat: one array each, operator id's
	// entries at [off[id], off[id+1]).
	c := &Context{
		Plan:   l,
		Schema: s,
		Avail:  avail,
		alts:   make([]uint8, 0, n*len(s.Platforms)),
		edges:  make([]plan.Edge, 0, edges),
		ops:    make([]opInfo, n),
		adj:    make([]plan.OpID, 0, 2*edges),
	}
	offs := make([]int32, 2*(n+1))
	c.altOff, c.adjOff = offs[:n+1:n+1], offs[n+1:]
	firstInLoop := map[int]plan.OpID{}
	for id, o := range l.Ops {
		for pi, p := range s.Platforms {
			if avail.Has(o.Kind, p) {
				c.alts = append(c.alts, uint8(pi))
			}
		}
		if len(c.alts) == int(c.altOff[id]) {
			return nil, fmt.Errorf("core: operator %d (%s) has no execution operator on platforms %v", o.ID, o.Kind, platforms)
		}
		c.altOff[id+1] = int32(len(c.alts))
		op := &c.ops[id]
		switch {
		case len(o.In) >= 2:
			op.class = classJuncture
		case len(o.Out) >= 2:
			op.class = classReplicate
		default:
			op.class = classPipeline
		}
		op.linear = o.IsBoundaryLinear()
		op.iters = 1
		if o.LoopID != 0 {
			if head, ok := firstInLoop[o.LoopID]; !ok || o.ID < head {
				firstInLoop[o.LoopID] = o.ID
			}
			op.iters = float64(l.Loops[o.LoopID])
		}
		for _, to := range o.Out {
			c.edges = append(c.edges, plan.Edge{From: o.ID, To: to})
		}
		c.adj = append(append(c.adj, o.In...), o.Out...)
		c.adjOff[id+1] = int32(len(c.adj))
	}
	for _, head := range firstInLoop {
		c.ops[head].loopHead = true
	}
	for _, id := range order {
		for _, p := range l.Ops[id].In {
			c.ops[id].depth = max(c.ops[id].depth, c.ops[p].depth+1)
		}
	}
	return c, nil
}

// Alternatives returns the schema platform columns available for operator
// id. The slice must not be modified. TDGen and the benchmark's prediction
// probes draw assignments from it.
func (c *Context) Alternatives(id plan.OpID) []uint8 { return c.alts[c.altOff[id]:c.altOff[id+1]] }

// SearchSpaceSize returns the number of complete execution plans (the
// |Ω_p| = Π k_i of the plan enumeration problem), saturating at +Inf-like
// large values via float64.
func (c *Context) SearchSpaceSize() float64 {
	size := 1.0
	for id := range c.ops {
		size *= float64(len(c.Alternatives(plan.OpID(id))))
	}
	return size
}

// boundaryOf appends to out the operators of scope that are adjacent to at
// least one operator outside scope, in ascending ID order (the boundary
// operators of Definition 2).
func (c *Context) boundaryOf(scope plan.Bitset, out []plan.OpID) []plan.OpID {
	for id := scope.Next(0); id >= 0; id = scope.Next(id + 1) {
		if c.exposed(id, scope) {
			out = append(out, id)
		}
	}
	return out
}

// exposed reports whether operator id is adjacent to an operator outside
// scope.
func (c *Context) exposed(id plan.OpID, scope plan.Bitset) bool {
	for _, nb := range c.adj[c.adjOff[id]:c.adjOff[id+1]] {
		if !scope.Has(nb) {
			return true
		}
	}
	return false
}

// boundary returns the boundary operators of scope (boundaryOf) in a list of
// the worker's own, valid until the run ends. Only a singleton's is computed
// from its scope: a concatenation's comes from its inputs' (MergeInfo).
func (c *Context) boundary(scope plan.Bitset) []plan.OpID {
	sc := c.scratch
	sc.bound = c.boundaryOf(scope, sc.bound[:0])
	return append(sc.bounds.take(len(sc.bound))[:0], sc.bound...)
}

// layout sets the run's row layout (live, moveAt) when the Context's first
// run binds its model or starts: a Context that never enumerates (TDGen's,
// PredictAssignment's) never computes it.
func (c *Context) layout() {
	if c.live == nil {
		c.live = c.liveCells()
		c.moveAt = len(c.live) - (c.Schema.length - c.Schema.moveOff)
	}
}

// expand writes f, a row of the run, into the live columns of the
// Schema-width row dst; the other cells are left alone.
func (c *Context) expand(dst, f []float64) {
	for p, col := range c.live[:c.moveAt] {
		dst[col] = f[p]
	}
	copy(dst[c.Schema.moveOff:], f[c.moveAt:])
}
