package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/vecops"
)

// Enumeration is a plan vector enumeration V = (s, V) (Definition 1): a
// scope s of operator IDs and a set of plan vectors, each representing one
// execution plan for the logical subplan spanned by the scope. Boundary
// caches the scope's boundary operators (Definition 2) in ascending order.
//
// An enumeration returned by Enumerate or EnumerateFull lives in its run's
// vector store (store.go) and is valid until the next run on the same
// Context; the one a Pruner is handed may live in a worker's scratch and is
// valid only during the call.
type Enumeration struct {
	Scope    plan.Bitset
	Boundary []plan.OpID
	Vectors  []*Vector

	// mat, when set, is the enumeration's feature matrix: row i is
	// Vectors[i].F. Whoever lays the vectors out contiguously sets it (a
	// scratch product, Enumerate's blocks) and everything that drops or
	// reorders vectors clears it, so predictEnum can score the rows in place
	// without checking. nil for enumerations assembled vector by vector.
	mat *vecops.Matrix
}

// Size returns the number of plan vectors in the enumeration.
func (e *Enumeration) Size() int { return len(e.Vectors) }

// ---------------------------------------------------------------------------
// Core operations (Section IV-C)
// ---------------------------------------------------------------------------

// Vectorize transforms the logical plan into an abstract plan vector
// (operation 1): structure features are fixed, and for every operator kind
// with more than one execution alternative the per-platform cells hold -1,
// indicating the open choice.
func (c *Context) Vectorize() *Abstract {
	s := c.Schema
	a := &Abstract{F: make([]float64, s.Len()), Scope: plan.NewBitset(c.Plan.NumOps())}
	for _, o := range c.Plan.Ops {
		a.Scope.Set(o.ID)
		c.addSingletonStructure(a.F, o)
		for _, pi := range c.alternatives[o.ID] {
			if len(c.alternatives[o.ID]) == 1 {
				a.F[s.OpPlatformCell(o.Kind, int(pi))]++
			} else {
				a.F[s.OpPlatformCell(o.Kind, int(pi))] = -1
			}
		}
	}
	// Fuse pipeline segments exactly as the merge operation will, so the
	// abstract structure matches the merged concrete vectors.
	a.F[TopoPipeline] -= float64(c.totalFuses())
	a.F[s.DatasetCell()] = c.Plan.AvgTupleBytes
	return a
}

// addPlatformChoice records operator o running on platform column pi:
// the per-platform instance cell of its kind plus the platform-load cells.
func (c *Context) addPlatformChoice(f []float64, o *plan.Operator, pi int) {
	s := c.Schema
	f[s.OpPlatformCell(o.Kind, pi)]++
	iters := c.effIters[o.ID]
	f[s.OpPlatInCardCell(o.Kind, pi)] += o.InputCard * iters
	f[s.OpPlatOutCardCell(o.Kind, pi)] += o.OutputCard * iters
	f[s.LoadCell(pi)] += o.InputCard * o.UDF.CostFactor() * iters
	f[s.PlatOpsCell(pi)]++
	if o.Kind.IsShuffling() {
		f[s.ShuffleLoadCell(pi)] += o.InputCard * iters
	}
	if o.Kind.IsSource() {
		f[s.IOBytesCell(pi)] += o.OutputCard * c.Plan.AvgTupleBytes
	} else if o.Kind.IsSink() {
		f[s.IOBytesCell(pi)] += o.InputCard * c.Plan.AvgTupleBytes
	}
	card := o.InputCard
	if o.OutputCard > card {
		card = o.OutputCard
	}
	if bytes := card * c.Plan.AvgTupleBytes; bytes > f[s.MaxBytesCell(pi)] {
		f[s.MaxBytesCell(pi)] = bytes
	}
}

// convCard returns the effective cardinality a conversion on edge e moves
// over the whole execution: a conversion between two in-loop operators
// repeats every iteration, so the moved tuples multiply accordingly.
func (c *Context) convCard(e plan.Edge) float64 {
	card := c.Plan.EdgeCard(e)
	if it := c.effIters[e.From]; it > 1 && c.effIters[e.To] > 1 {
		card *= it
	}
	return card
}

// totalFuses counts dataflow edges whose endpoints are both linear: each
// such edge fuses two pipeline segments into one.
func (c *Context) totalFuses() int {
	fuses := 0
	for _, e := range c.edges {
		if c.linear[e.From] && c.linear[e.To] {
			fuses++
		}
	}
	return fuses
}

// addSingletonStructure adds operator o's platform-independent feature
// contribution to f: topology counts, kind totals, topology membership, UDF
// complexity and cardinalities.
func (c *Context) addSingletonStructure(f []float64, o *plan.Operator) {
	s := c.Schema
	switch c.opClass[o.ID] {
	case classJuncture:
		f[TopoJuncture]++
		f[s.OpInTopologyCell(o.Kind, TopoJuncture)]++
	case classReplicate:
		f[TopoReplicate]++
		f[s.OpInTopologyCell(o.Kind, TopoReplicate)]++
	default:
		f[TopoPipeline]++
		f[s.OpInTopologyCell(o.Kind, TopoPipeline)]++
	}
	if o.LoopID != 0 {
		f[s.OpInTopologyCell(o.Kind, TopoLoop)]++
		if c.loopHead[o.ID] {
			f[TopoLoop]++
		}
	}
	f[s.OpTotalCell(o.Kind)]++
	f[s.OpUDFCell(o.Kind)] += o.UDF.Weight()
	// Cardinality cells record the tuples the operator processes over the
	// whole execution: in-loop operators run once per iteration, so their
	// per-pass cardinality is multiplied by the loop's iteration count.
	// This is how iteration counts enter the plan vector at all.
	iters := c.effIters[o.ID]
	f[s.OpInCardCell(o.Kind)] += o.InputCard * iters
	f[s.OpOutCardCell(o.Kind)] += o.OutputCard * iters
}

// Split divides an abstract plan vector into singleton abstract vectors, one
// per operator in its scope (operation 4). The results are pair-wise
// disjoint and their union covers the input scope, which renders the
// enumeration parallelizable and is the entry point of Algorithm 1 (line 2).
func (c *Context) Split(a *Abstract) []*Abstract {
	ids := a.Scope.IDs()
	out := make([]*Abstract, 0, len(ids))
	s := c.Schema
	for _, id := range ids {
		o := c.Plan.Op(id)
		sa := &Abstract{F: make([]float64, s.Len()), Scope: plan.NewBitset(c.Plan.NumOps())}
		sa.Scope.Set(id)
		c.addSingletonStructure(sa.F, o)
		for _, pi := range c.alternatives[id] {
			if len(c.alternatives[id]) == 1 {
				sa.F[s.OpPlatformCell(o.Kind, int(pi))]++
			} else {
				sa.F[s.OpPlatformCell(o.Kind, int(pi))] = -1
			}
		}
		sa.F[s.DatasetCell()] = c.Plan.AvgTupleBytes
		out = append(out, sa)
	}
	return out
}

// Enumerate instantiates an abstract plan vector into the plan vector
// enumeration of all its concrete execution alternatives (operation 2). For
// a singleton scope this yields one vector per available platform; for
// larger scopes it takes the cartesian product of the operators'
// alternatives, i.e. the exhaustive enumeration of the subplan. maxVectors
// guards against accidental exponential blow-ups: 0 means unlimited. ctx
// cancels the enumeration (checked between merges, every mergeBlock pairs);
// nil means context.Background(). The returned enumeration is valid until the
// next run on this Context (see Enumeration).
func (c *Context) Enumerate(ctx context.Context, a *Abstract, maxVectors int, st *Stats) (*Enumeration, error) {
	ids := a.Scope.IDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: cannot enumerate an empty scope")
	}
	check := func() error { return nil }
	if ctx != nil && ctx.Done() != nil {
		check = ctx.Err
	}
	c.beginRun(0)
	e := c.enumerateSingleton(ids[0], st)
	for _, id := range ids[1:] {
		if err := check(); err != nil {
			return nil, err
		}
		next := c.enumerateSingleton(id, st)
		pairs, nb := len(e.Vectors)*len(next.Vectors), len(next.Vectors)
		// An oversized product is rejected before its rows are allocated.
		if maxVectors > 0 && pairs > maxVectors {
			return nil, fmt.Errorf("core: enumeration exceeds %d vectors", maxVectors)
		}
		info := c.MergeInfo(e, next)
		// Every vector survives, so the product is merged straight into
		// store rows.
		rows, mat := c.store.block(pairs)
		merged := &Enumeration{Scope: e.Scope.Union(next.Scope), Vectors: rows, mat: &mat}
		for i, v := range merged.Vectors {
			if i%mergeBlock == 0 {
				if err := check(); err != nil {
					return nil, err
				}
			}
			c.mergeInto(v, e.Vectors[i/nb], next.Vectors[i%nb], info, st)
		}
		c.store.release(e.Vectors)
		c.store.release(next.Vectors)
		merged.Boundary = c.boundaryOf(merged.Scope, nil)
		e = merged
		if st != nil {
			st.observe(len(e.Vectors))
		}
	}
	return e, nil
}

// enumerateSingleton returns the enumeration of a single operator: one plan
// vector per available execution operator, in rows of the run's store.
func (c *Context) enumerateSingleton(id plan.OpID, st *Stats) *Enumeration {
	o := c.Plan.Op(id)
	s := c.Schema
	scope := plan.NewBitset(c.Plan.NumOps())
	scope.Set(id)
	e := &Enumeration{Scope: scope, Boundary: c.boundaryOf(scope, nil), Vectors: c.store.take(len(c.alternatives[id]))}
	for vi, pi := range c.alternatives[id] {
		v := e.Vectors[vi]
		*v = Vector{F: v.F, Assign: v.Assign}
		clear(v.F)
		for i := range v.Assign {
			v.Assign[i] = Unassigned
		}
		v.Assign[id] = pi
		c.addSingletonStructure(v.F, o)
		c.addPlatformChoice(v.F, o, int(pi))
		v.F[s.DatasetCell()] = c.Plan.AvgTupleBytes
		if st != nil {
			st.VectorsCreated++
		}
	}
	return e
}

// Unvectorize translates a complete plan vector back into an executable
// execution plan (operation 3), reconstructing the plan from the immutable
// LOT structure and the vector's platform assignment, from which the COT
// (conversion operators) is derived.
func (c *Context) Unvectorize(v *Vector) (*plan.Execution, error) {
	assign := make([]platform.ID, c.Plan.NumOps())
	for i, a := range v.Assign {
		if a == Unassigned {
			return nil, fmt.Errorf("core: vector does not cover operator %d", i)
		}
		assign[i] = c.Schema.Platform(int(a))
	}
	x, err := plan.NewExecution(c.Plan, assign)
	if err != nil {
		return nil, err
	}
	if err := x.Validate(c.Avail); err != nil {
		return nil, err
	}
	return x, nil
}

// ---------------------------------------------------------------------------
// Auxiliary operations (Section IV-D)
// ---------------------------------------------------------------------------

// Iterate (operation 5), the cartesian product of two enumerations' vectors
// as ordered pairs, is index arithmetic here: a concatenation of a and b
// merges pair i from a.Vectors[i/len(b.Vectors)] and b.Vectors[i%len(b.Vectors)].

// MergeCtx precomputes the plan-structure information shared by every merge
// of vectors from two fixed enumerations: the dataflow edges crossing the
// two scopes and how many of them fuse pipeline segments. Conversion
// features depend on the per-pair platform choices and are computed inside
// Merge itself.
type MergeCtx struct {
	Crossing []plan.Edge
	Fuses    int
}

// MergeInfo builds the MergeCtx for concatenating enumerations a and b.
func (c *Context) MergeInfo(a, b *Enumeration) *MergeCtx {
	info := &MergeCtx{Crossing: c.crossingEdges(a.Scope, b.Scope)}
	for _, e := range info.Crossing {
		if c.linear[e.From] && c.linear[e.To] {
			info.Fuses++
		}
	}
	return info
}

// Merge concatenates two plan vectors into the vector of the combined
// subplan (operation 6). Feature blocks are added cell-wise with two
// exceptions mandated by the paper: the pipeline topology cell fuses when
// the subplans concatenate linearly ("when concatenating two pipeline
// subplans the resulted plan is still a single pipeline"), and the input
// tuple size keeps the maximum. Conversion features are added for every
// crossing edge whose endpoints run on different platforms. Merge is
// commutative and, across any merge tree over disjoint scopes, associative:
// every crossing edge is accounted exactly once.
func (c *Context) Merge(v1, v2 *Vector, info *MergeCtx, st *Stats) *Vector {
	out := &Vector{F: make([]float64, c.Schema.Len()), Assign: make([]uint8, len(v1.Assign))}
	c.mergeInto(out, v1, v2, info, st)
	return out
}

// mergeInto is Merge writing into a pre-allocated vector (a scratch or store
// row on the enumeration fast path). out.F and out.Assign must have the
// schema and plan widths; every cell is overwritten, whatever it held.
func (c *Context) mergeInto(out, v1, v2 *Vector, info *MergeCtx, st *Stats) {
	s := c.Schema
	out.Cost, out.Dist, out.scored = 0, CostDist{}, false
	vecops.Add(out.F, v1.F, v2.F)
	out.F[TopoPipeline] -= float64(info.Fuses)
	// The dataset cell and the per-platform peak-bytes cells merge by max,
	// not by sum.
	d := s.DatasetCell()
	out.F[d] = v1.F[d]
	if v2.F[d] > out.F[d] {
		out.F[d] = v2.F[d]
	}
	lo, hi := s.maxMergedRange()
	for i := lo; i < hi; i++ {
		out.F[i] = v1.F[i]
		if v2.F[i] > out.F[i] {
			out.F[i] = v2.F[i]
		}
	}
	copy(out.Assign, v1.Assign)
	for i, a := range v2.Assign {
		if a != Unassigned {
			out.Assign[i] = a
		}
	}
	for _, e := range info.Crossing {
		pa, pb := out.Assign[e.From], out.Assign[e.To]
		if pa != pb {
			card := c.convCard(e)
			out.F[s.MovePlatformCell(int(pa))]++
			out.F[s.MovePlatformCell(int(pb))]++
			out.F[s.MoveInCardCell()] += card
			out.F[s.MoveOutCardCell()] += card
		}
	}
	if st != nil {
		st.Merges++
		st.VectorsCreated++
	}
}

// ---------------------------------------------------------------------------
// Prune operation (Section IV-E)
// ---------------------------------------------------------------------------

// Pruner reduces a plan vector enumeration in place (operation 7). Distinct
// pruning policies (the boundary pruning of the optimizer, the
// platform-switch pruning of TDGen) implement this interface, which is how
// the paper's "fine-granular operations" let the same Algorithm 1 serve both
// uses.
//
// ctx carries the run's cancellation: pruners that invoke the cost oracle
// must check it cooperatively (model calls dominate enumeration latency) and
// may return early with the enumeration unpruned when cancelled — the
// enumeration loop re-checks ctx right after every Prune call and abandons
// the run. A nil ctx must be tolerated and means "not cancellable".
type Pruner interface {
	Prune(ctx context.Context, c *Context, e *Enumeration, st *Stats)
}

// BoundaryPruner implements the lossless boundary pruning of Definition 2:
// among the vectors of an enumeration that employ the same platforms for all
// boundary operators (equal pruning footprints), only the one with the
// lowest predicted cost survives (joined, under Risk.KeepOverlap, by its
// near-ties; see pruneGroups). It reduces the pipeline search space from
// O(k^n) to O(n·k²) (Lemma 1) and never discards a subplan contained in the
// optimal plan.
type BoundaryPruner struct {
	Model CostModel
}

// Prune applies boundary pruning to e using the model as the cost oracle.
// The whole enumeration is scored with one batched model invocation (vectors
// already scored excepted; see predictEnum) and survivors carry their
// predicted cost in Vector.Cost. A cancelled ctx returns early without
// pruning; the caller is expected to abandon the enumeration.
func (p BoundaryPruner) Prune(ctx context.Context, c *Context, e *Enumeration, st *Stats) {
	if c.predictEnum(ctx, p.Model, e, st) {
		c.pruneGroups(e, st, nil)
	}
}

// groupKey identifies a pruning group within one enumeration: the pruning
// footprint (packed, or past 16 boundary operators the number pruneGroups
// gave its string form) refined by the mixed property keys.
type groupKey struct{ foot, prop uint64 }

// pruneGroups is the prune operation itself (Section IV-E), shared by every
// cost-driven pruner; costs must already be set. Vectors group by pruning
// footprint refined by the keys of props ("interesting properties", Section
// V); per group the lowest-cost vector wins, ties to the earliest. Without
// Risk.KeepOverlap that is Definition 2: one survivor per group, in group
// first-seen order. With it, up to overlapKept-1 further members whose
// predictive interval overlaps their winner's survive behind it, cheapest
// first — insurance against the model misordering plans it cannot separate.
// Extra survivors only widen the enumeration Lemma 1 reasons about, so the
// winner-per-footprint guarantee holds for either setting. Everything here
// is a function of the vectors' order and costs alone, hence identical for
// any Workers.
//
// A group that keeps no near-ties settles each loss as it happens, so that
// case allocates nothing (the group map is the worker scratch's, cleared per
// prune) — it runs after every concatenation of every request. Otherwise no
// member's fate is known before its group's winner is final, and all of them
// wait.
func (c *Context) pruneGroups(e *Enumeration, st *Stats, props []Property) {
	if len(e.Vectors) <= 1 {
		return
	}
	e.mat = nil
	nearTies := 0
	if c.Risk.KeepOverlap {
		nearTies = overlapKept - 1
	}
	rec := c.curRec
	discard := func(v *Vector, survivorSlot int) {
		if st != nil {
			st.Pruned++
		}
		rec.observeDiscard(v, survivorSlot)
	}
	type member struct {
		v     *Vector
		group int
	}
	var waiting []member
	var wide map[string]uint64
	sc := c.work()
	if sc.groups == nil {
		sc.groups = make(map[groupKey]int)
	}
	groups := sc.groups
	clear(groups)
	kept := e.Vectors[:0]
	for _, v := range e.Vectors {
		foot, sfoot, packed := footprintKey(v.Assign, e.Boundary)
		if !packed {
			// The boundary, hence packed, is the enumeration's: numbering
			// the string footprints cannot collide with a packed one.
			id, ok := wide[sfoot]
			if !ok {
				if wide == nil {
					wide = make(map[string]uint64)
				}
				id = uint64(len(wide))
				wide[sfoot] = id
			}
			foot = id
		}
		k := groupKey{foot: foot}
		for _, pr := range props {
			// Mix the property keys order-sensitively.
			k.prop = k.prop*0x9e3779b97f4a7c15 + pr.Key(c, v) + 0x7f4a7c15
		}
		g, seen := groups[k]
		if !seen {
			g = len(kept)
			groups[k] = g
			kept = append(kept, v)
		}
		switch {
		case nearTies > 0:
			waiting = append(waiting, member{v, g})
		case seen:
			if v.Cost < kept[g].Cost {
				v, kept[g] = kept[g], v
			}
			discard(v, g)
		}
	}
	if nearTies > 0 {
		// Groups in first-seen order, members by cost then arrival: each run
		// opens with its winner. The survivors are rebuilt over e.Vectors,
		// which waiting no longer reads.
		sort.SliceStable(waiting, func(a, b int) bool {
			if waiting[a].group != waiting[b].group {
				return waiting[a].group < waiting[b].group
			}
			return waiting[a].v.Cost < waiting[b].v.Cost
		})
		kept = kept[:0]
		for i := 0; i < len(waiting); {
			win := waiting[i]
			winSlot, room := len(kept), nearTies
			kept = append(kept, win.v)
			for i++; i < len(waiting) && waiting[i].group == win.group; i++ {
				v := waiting[i].v
				if room == 0 || !v.Dist.overlaps(win.v.Dist) {
					discard(v, winSlot)
					continue
				}
				kept = append(kept, v)
				room--
				if st != nil {
					st.IntervalKept++
				}
				if rec != nil {
					rec.IntervalKept++
				}
			}
		}
	}
	e.Vectors = kept
}

// SwitchPruner implements TDGen's pruning heuristic (Section VI-A): discard
// plans with more than Beta platform switches ("very unlikely to be an
// optimal execution plan in practice") and, when MaxVectors > 0, keep at
// most that many vectors, preferring fewer switches; ties resolve by
// insertion order to stay deterministic.
type SwitchPruner struct {
	Beta       int
	MaxVectors int
}

// Prune applies the platform-switch pruning to e. It never invokes a cost
// oracle, so ctx is unused.
func (p SwitchPruner) Prune(_ context.Context, c *Context, e *Enumeration, st *Stats) {
	e.mat = nil
	kept := e.Vectors[:0]
	for _, v := range e.Vectors {
		if c.Schema.Conversions(v.F) <= p.Beta {
			kept = append(kept, v)
		} else if st != nil {
			st.Pruned++
		}
	}
	if p.MaxVectors > 0 && len(kept) > p.MaxVectors {
		sort.SliceStable(kept, func(i, j int) bool {
			return c.Schema.Conversions(kept[i].F) < c.Schema.Conversions(kept[j].F)
		})
		if st != nil {
			st.Pruned += len(kept) - p.MaxVectors
		}
		kept = kept[:p.MaxVectors]
	}
	e.Vectors = kept
}

// NoPruner keeps every vector (the exhaustive enumeration of Figure 9a).
type NoPruner struct{}

// Prune is a no-op.
func (NoPruner) Prune(context.Context, *Context, *Enumeration, *Stats) {}

// GetOptimal predicts the runtime of every vector in e and returns the one
// with the lowest prediction (Algorithm 1, line 18). Ties resolve to the
// earliest vector for determinism. Prediction goes through the same batched
// helper as the pruners (after a pruned run, every survivor is already
// scored, so the final selection costs no model work at all). A nil return
// means the enumeration was empty or ctx was cancelled mid-batch; the caller
// distinguishes the two via ctx.Err().
func (c *Context) GetOptimal(ctx context.Context, e *Enumeration, m CostModel, st *Stats) *Vector {
	if len(e.Vectors) == 0 {
		return nil
	}
	if !c.predictEnum(ctx, m, e, st) {
		return nil
	}
	best := e.Vectors[0]
	for _, v := range e.Vectors[1:] {
		if v.Cost < best.Cost {
			best = v
		}
	}
	return best
}

// VectorizeExecution computes, in one pass, the plan vector of a complete
// execution plan given its per-operator platform columns. It is
// definitionally equal to merging all singleton vectors (property-tested)
// and is what the Rheem-ML baseline must do from scratch on every model
// invocation — the overhead Robopt's design eliminates.
func (c *Context) VectorizeExecution(assign []uint8) *Vector {
	s := c.Schema
	v := &Vector{F: make([]float64, s.Len()), Assign: append([]uint8(nil), assign...)}
	for _, o := range c.Plan.Ops {
		c.addSingletonStructure(v.F, o)
		c.addPlatformChoice(v.F, o, int(assign[o.ID]))
	}
	v.F[TopoPipeline] -= float64(c.totalFuses())
	for _, e := range c.edges {
		pa, pb := assign[e.From], assign[e.To]
		if pa != pb {
			card := c.convCard(e)
			v.F[s.MovePlatformCell(int(pa))]++
			v.F[s.MovePlatformCell(int(pb))]++
			v.F[s.MoveInCardCell()] += card
			v.F[s.MoveOutCardCell()] += card
		}
	}
	v.F[s.DatasetCell()] = c.Plan.AvgTupleBytes
	return v
}

// PredictAssignment returns m's runtime estimate for an explicit platform
// assignment of the plan (one platform per operator, in ID order): platform
// IDs to schema columns, VectorizeExecution, Predict.
func (c *Context) PredictAssignment(m CostModel, assign []platform.ID) (float64, error) {
	if len(assign) != c.Plan.NumOps() {
		return 0, fmt.Errorf("assignment covers %d of %d operators", len(assign), c.Plan.NumOps())
	}
	cols := make([]uint8, len(assign))
	for i, p := range assign {
		pi := c.Schema.PlatIndex(p)
		if pi < 0 {
			return 0, fmt.Errorf("platform %s not in the optimizer's universe", p)
		}
		cols[i] = uint8(pi)
	}
	return m.Predict(c.VectorizeExecution(cols).F), nil
}

// CheapestAllOn is plan.CheapestAllOn over the plan with m's estimates as
// the scores: the single-platform mode of Section VII-C1 under the model.
func (c *Context) CheapestAllOn(m CostModel, candidates []platform.ID) (platform.ID, *plan.Execution, float64, error) {
	return plan.CheapestAllOn(c.Plan, candidates, c.Avail, func(x *plan.Execution) (float64, error) {
		return c.PredictAssignment(m, x.Assign)
	})
}
