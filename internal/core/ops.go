package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

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

// ---------------------------------------------------------------------------
// Core operations (Section IV-C)
// ---------------------------------------------------------------------------

// opCells is a row as one operator's features see it: the adders below write
// only its topology cells, the block of the operator's kind (from Schema
// column blkAt) and the tail from the movement block (Schema column tailAt)
// on. The three parts may lie in different buffers, so that a singleton is
// built straight into a row of the run (singletonRow).
type opCells struct {
	topo, blk, tail []float64
	blkAt, tailAt   int
}

// cellsOf returns the parts of f, a Schema-width row, that an operator of
// kind k writes.
func (s *Schema) cellsOf(f []float64, k platform.Kind) opCells {
	at := s.opOff(k)
	return opCells{topo: f[:topoCells], blk: f[at : at+s.opBlock], tail: f[s.moveOff:], blkAt: at, tailAt: s.moveOff}
}

// blkCell and tailCell return the cell of Schema column col, which lies in
// the kind's block or in the tail.
func (r *opCells) blkCell(col int) *float64  { return &r.blk[col-r.blkAt] }
func (r *opCells) tailCell(col int) *float64 { return &r.tail[col-r.tailAt] }

// addPlatformChoice records operator o running on platform column pi:
// the per-platform instance cell of its kind plus the platform-load cells.
func (c *Context) addPlatformChoice(r *opCells, o *plan.Operator, pi int) {
	s := c.Schema
	*r.blkCell(s.OpPlatformCell(o.Kind, pi))++
	iters := c.ops[o.ID].iters
	*r.blkCell(s.OpPlatInCardCell(o.Kind, pi)) += o.InputCard * iters
	*r.blkCell(s.OpPlatOutCardCell(o.Kind, pi)) += o.OutputCard * iters
	*r.tailCell(s.LoadCell(pi)) += o.InputCard * o.UDF.CostFactor() * iters
	*r.tailCell(s.PlatOpsCell(pi))++
	if o.Kind.IsShuffling() {
		*r.tailCell(s.ShuffleLoadCell(pi)) += o.InputCard * iters
	}
	if o.Kind.IsSource() {
		*r.tailCell(s.IOBytesCell(pi)) += o.OutputCard * c.Plan.AvgTupleBytes
	} else if o.Kind.IsSink() {
		*r.tailCell(s.IOBytesCell(pi)) += o.InputCard * c.Plan.AvgTupleBytes
	}
	card := o.InputCard
	if o.OutputCard > card {
		card = o.OutputCard
	}
	if bytes, peak := card*c.Plan.AvgTupleBytes, r.tailCell(s.MaxBytesCell(pi)); bytes > *peak {
		*peak = bytes
	}
}

// convCard returns the effective cardinality a conversion on edge e moves
// over the whole execution: a conversion between two in-loop operators
// repeats every iteration, so the moved tuples multiply accordingly.
func (c *Context) convCard(e plan.Edge) float64 {
	card := c.Plan.EdgeCard(e)
	if it := c.ops[e.From].iters; it > 1 && c.ops[e.To].iters > 1 {
		card *= it
	}
	return card
}

// addConversion records in move, a row's movement block, the conversion edge
// e needs when its endpoints run on platform columns pa and pb, if they differ.
func (c *Context) addConversion(move []float64, e plan.Edge, pa, pb uint8) {
	if p := len(c.Schema.Platforms); pa != pb {
		card := c.convCard(e)
		move[pa]++
		move[pb]++
		move[p] += card
		move[p+1] += card
	}
}

// addSingletonStructure adds operator o's platform-independent feature
// contribution to r: topology counts, kind totals, topology membership, UDF
// complexity and cardinalities.
func (c *Context) addSingletonStructure(r *opCells, o *plan.Operator) {
	s := c.Schema
	switch c.ops[o.ID].class {
	case classJuncture:
		r.topo[TopoJuncture]++
		*r.blkCell(s.OpInTopologyCell(o.Kind, TopoJuncture))++
	case classReplicate:
		r.topo[TopoReplicate]++
		*r.blkCell(s.OpInTopologyCell(o.Kind, TopoReplicate))++
	default:
		r.topo[TopoPipeline]++
		*r.blkCell(s.OpInTopologyCell(o.Kind, TopoPipeline))++
	}
	if o.LoopID != 0 {
		*r.blkCell(s.OpInTopologyCell(o.Kind, TopoLoop))++
		if c.ops[o.ID].loopHead {
			r.topo[TopoLoop]++
		}
	}
	*r.blkCell(s.OpTotalCell(o.Kind))++
	*r.blkCell(s.OpUDFCell(o.Kind)) += o.UDF.Weight()
	// Cardinality cells record the tuples the operator processes over the
	// whole execution: in-loop operators run once per iteration, so their
	// per-pass cardinality is multiplied by the loop's iteration count.
	// This is how iteration counts enter the plan vector at all.
	iters := c.ops[o.ID].iters
	*r.blkCell(s.OpInCardCell(o.Kind)) += o.InputCard * iters
	*r.blkCell(s.OpOutCardCell(o.Kind)) += o.OutputCard * iters
}

// liveCells returns the Schema columns a row of the run holds, ascending: a
// cell below the movement block is live iff some singleton row of the plan
// sets it non-zero, and TopoPipeline and the whole tail from the movement
// block on are live. No vector of the plan sets a cell outside them, since a
// merge sums or maxes its inputs' cells and otherwise writes only
// TopoPipeline and the movement block. The adders build each operator's
// topology cells and kind block in a buffer on the stack, its structure and
// every platform choice at once: below the movement block they write
// disjoint cells, so the buffer is non-zero exactly where one of the
// operator's singleton rows is.
func (c *Context) liveCells() []int {
	s := c.Schema
	var buf [topoCells + maxOpBlock + maxTail]float64
	head := buf[:topoCells+s.opBlock] // the topology cells, then the block
	topo := uint64(1) << TopoPipeline
	var blocks [platform.KindCount]uint64 // bit j: cell j of the kind's block
	r := opCells{topo: head[:topoCells], blk: head[topoCells:], tail: buf[len(head):], tailAt: s.moveOff}
	for _, o := range c.Plan.Ops {
		r.blkAt = s.opOff(o.Kind)
		clear(head)
		c.addSingletonStructure(&r, o)
		for _, pi := range c.Alternatives(o.ID) {
			c.addPlatformChoice(&r, o, int(pi))
		}
		var set uint64
		for j, x := range head {
			if x != 0 {
				set |= 1 << j
			}
		}
		topo |= set & (1<<topoCells - 1)
		blocks[o.Kind] |= set >> topoCells
	}
	n := bits.OnesCount64(topo) + s.length - s.moveOff
	for _, b := range blocks {
		n += bits.OnesCount64(b)
	}
	live := make([]int, 0, n)
	for b := topo; b != 0; b &= b - 1 {
		live = append(live, bits.TrailingZeros64(b))
	}
	for _, k := range s.Kinds {
		for b := blocks[k]; b != 0; b &= b - 1 {
			live = append(live, s.opOff(k)+bits.TrailingZeros64(b))
		}
	}
	for col := s.moveOff; col < s.length; col++ {
		live = append(live, col)
	}
	return live
}

// Enumerate instantiates the operators of scope into the plan vector
// enumeration of all their concrete execution alternatives (operation 2). For
// a singleton scope this yields one vector per available platform; for
// larger scopes it takes the cartesian product of the operators'
// alternatives, i.e. the exhaustive enumeration of the subplan. maxVectors
// guards against accidental exponential blow-ups: 0 means unlimited. It is
// the exhaustive baseline's enumeration (OptimizeExhaustive, Figure 9a). ctx
// cancels the enumeration (checked between merges, every mergeBlock pairs);
// nil means context.Background(). The returned enumeration is valid until the
// next run on this Context (see Enumeration).
func (c *Context) Enumerate(ctx context.Context, scope plan.Bitset, maxVectors int, st *Stats) (*Enumeration, error) {
	ids := scope.IDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: cannot enumerate an empty scope")
	}
	check := func() error { return nil }
	if ctx != nil && ctx.Done() != nil {
		check = ctx.Err
	}
	c.clock = time.Now()
	c.beginRun(0)
	e := c.enumerateSingleton(ids[0], st)
	for step, id := range ids[1:] {
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
		// Every vector survives, so the product is merged straight into a
		// block of store rows, listed in a slice off the run's memory. Its
		// matrix header is the scratch's: each step overwrites the one
		// before, whose rows it releases, and no product is made here.
		merged := c.store.enum(c.Plan.NumOps() + step)
		copy(merged.Scope, e.Scope)
		merged.Scope.UnionInto(next.Scope)
		merged.Vectors, c.scratch.mat = c.store.fresh(pairs)
		merged.mat = &c.scratch.mat
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
		merged.Boundary = info.boundary
		e = merged
		if st != nil {
			st.PeakEnumSize = max(st.PeakEnumSize, len(e.Vectors))
		}
	}
	return e, nil
}

// enumerateSingleton returns the enumeration of a single operator: one plan
// vector per available execution operator, in rows of the run's store, each
// written at the run's width (singletonRow).
func (c *Context) enumerateSingleton(id plan.OpID, st *Stats) *Enumeration {
	o := c.Plan.Op(id)
	alts := c.Alternatives(id)
	e := c.store.enum(int(id))
	e.Scope.Set(id)
	e.Boundary, e.Vectors = c.boundary(e.Scope), c.store.take(len(alts))
	for vi, pi := range alts {
		v := e.Vectors[vi]
		v.Cost, v.Dist, v.scored = 0, CostDist{}, false
		unassign(v.Assign)
		v.Assign[id] = pi
		c.singletonRow(v.F, o, pi)
	}
	if st != nil {
		st.VectorsCreated += len(alts)
	}
	return e
}

// unassign sets every entry of a to Unassigned, eight operators per word
// (see andAssign).
func unassign(a []uint8) {
	i := 0
	for ; i+8 <= len(a); i += 8 {
		binary.LittleEndian.PutUint64(a[i:i+8:i+8], math.MaxUint64)
	}
	for ; i < len(a); i++ {
		a[i] = Unassigned
	}
}

// singletonRow overwrites dst, a row of the run, with the feature row of
// operator o alone on platform column pi — the row its singleton enumeration
// holds for that choice, and the live cells of what VectorizeSubplan builds
// for the one-operator subplan. The adders write the tail in place and the
// topology cells and the kind's block into a buffer, whose live cells are
// scattered into dst; every other cell of dst is 0.
func (c *Context) singletonRow(dst []float64, o *plan.Operator, pi uint8) {
	s := c.Schema
	var buf [topoCells + maxOpBlock]float64
	at := s.opOff(o.Kind)
	var r opCells // filled field by field: a composite literal is built aside and copied
	r.topo, r.blk, r.tail = buf[:topoCells], buf[topoCells:topoCells+s.opBlock], dst[c.moveAt:]
	r.blkAt, r.tailAt = at, s.moveOff
	clear(dst)
	c.addSingletonStructure(&r, o)
	c.addPlatformChoice(&r, o, int(pi))
	*r.tailCell(s.DatasetCell()) = c.Plan.AvgTupleBytes
	live := c.live
	p := 0
	for ; live[p] < topoCells; p++ {
		dst[p] = r.topo[live[p]]
	}
	p, _ = slices.BinarySearch(live[:c.moveAt], at)
	for ; p < c.moveAt && live[p] < at+s.opBlock; p++ {
		dst[p] = r.blk[live[p]-at]
	}
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
		assign[i] = c.Schema.Platforms[a]
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
// two scopes (in the order of c.edges), how many of them fuse pipeline
// segments, and the boundary of the merged scope. Conversion features depend
// on the per-pair platform choices and are computed inside the merge itself.
type MergeCtx struct {
	Crossing []plan.Edge
	Fuses    int
	boundary []plan.OpID
}

// MergeInfo builds the MergeCtx for merging v1 from a with v2 from b in the
// worker scratch: it is valid until the worker's next concatenation, and its
// boundary list until the run ends. It reads the two enumerations'
// boundaries, not their scopes or the plan's edges: an edge crossing the
// scopes joins a boundary operator of each, and an operator on the merged
// boundary is on its own scope's. The two ascending lists merge into one, so
// the crossing edges come out by source in Out order, as c.edges lists them,
// and the merged boundary ascending.
func (c *Context) MergeInfo(a, b *Enumeration) *MergeCtx {
	sc := c.scratch
	info := &sc.info
	*info = MergeCtx{Crossing: info.Crossing[:0]}
	sc.bound = sc.bound[:0]
	ba, bb := a.Boundary, b.Boundary
	for len(ba) > 0 || len(bb) > 0 {
		var id plan.OpID
		own, other := a.Scope, b.Scope
		if len(bb) == 0 || len(ba) > 0 && ba[0] < bb[0] {
			id, ba = ba[0], ba[1:]
		} else {
			id, bb = bb[0], bb[1:]
			own, other = other, own
		}
		for _, to := range c.Plan.Op(id).Out {
			if other.Has(to) {
				info.Crossing = append(info.Crossing, plan.Edge{From: id, To: to})
				if c.ops[id].linear && c.ops[to].linear {
					info.Fuses++
				}
			}
		}
		for _, nb := range c.adj[c.adjOff[id]:c.adjOff[id+1]] {
			if !own.Has(nb) && !other.Has(nb) {
				sc.bound = append(sc.bound, id)
				break
			}
		}
	}
	info.boundary = append(sc.bounds.take(len(sc.bound))[:0], sc.bound...)
	return info
}

// mergeInto concatenates two plan vectors into the vector of the combined
// subplan (operation 6), writing into a pre-allocated vector (a scratch or
// store row). Feature blocks are added cell-wise with two exceptions mandated
// by the paper: the pipeline topology cell fuses when the subplans
// concatenate linearly ("when concatenating two pipeline subplans the
// resulted plan is still a single pipeline"), and the input tuple size keeps
// the maximum. Conversion features are added for every crossing edge whose
// endpoints run on different platforms. Merging is commutative and, across
// any merge tree over disjoint scopes, associative: every crossing edge is
// accounted exactly once. The three vectors are rows of the run: out.F and
// out.Assign must have the run's and the plan's widths.
func (c *Context) mergeInto(out, v1, v2 *Vector, info *MergeCtx, st *Stats) {
	out.Cost, out.Dist, out.scored = 0, CostDist{}, false
	vecops.Add(out.F, v1.F, v2.F)
	out.F[TopoPipeline] -= float64(info.Fuses)
	// The per-platform peak-bytes cells and the dataset cell merge by max,
	// not by sum: v2's cell only when it is greater (a NaN or -0 in v2 never
	// replaces v1's), over subslices of one length so the loop checks no
	// bounds.
	lo, hi := c.Schema.maxMergedRange()
	lo, hi = c.moveAt+lo, c.moveAt+hi
	d, x, y := out.F[lo:hi], v1.F[lo:hi], v2.F[lo:hi]
	for i, a := range x {
		if b := y[i]; b > a {
			a = b
		}
		d[i] = a
	}
	andAssign(out.Assign, v1.Assign, v2.Assign)
	move := out.F[c.moveAt:]
	for _, e := range info.Crossing {
		c.addConversion(move, e, out.Assign[e.From], out.Assign[e.To])
	}
	if st != nil {
		st.Merges++
		st.VectorsCreated++
	}
}

// andAssign stores a[i]&b[i] into out, eight operators per word: the
// assignments of two vectors over disjoint scopes, each Unassigned (all ones)
// outside its own, AND to the choices of both and Unassigned elsewhere. All
// three slices must have equal length.
func andAssign(out, a, b []uint8) {
	n := len(out)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		le := binary.LittleEndian
		le.PutUint64(out[i:i+8:i+8], le.Uint64(a[i:i+8:i+8])&le.Uint64(b[i:i+8:i+8]))
	}
	for ; i < n; i++ {
		out[i] = a[i] & b[i]
	}
}

// ---------------------------------------------------------------------------
// Prune operation (Section IV-E)
// ---------------------------------------------------------------------------

// Pruner reduces a plan vector enumeration in place (operation 7). Distinct
// pruning policies (the boundary pruning of the optimizer, none at all for
// Table I's unpruned counts) implement this interface, which is how the
// paper's "fine-granular operations" let the same Algorithm 1 serve every
// use.
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
type BoundaryPruner struct{}

// Prune applies boundary pruning to e using the run's model as the cost
// oracle: the vectors it compares are scored with one batched model
// invocation (see pruneGroups). A cancelled ctx returns early without
// pruning; the caller is expected to abandon the enumeration.
func (BoundaryPruner) Prune(ctx context.Context, c *Context, e *Enumeration, st *Stats) {
	c.pruneGroups(ctx, e, st)
}

// pruneGroups is the prune operation itself (Section IV-E). Vectors group by
// pruning footprint; per group the lowest-cost vector wins, ties to the
// earliest. Without Risk.KeepOverlap that is Definition 2: one survivor per
// group, in group first-seen order. With it,
// up to overlapKept-1 further members whose predictive interval overlaps
// their winner's survive behind it, cheapest first — insurance against the
// model misordering plans it cannot separate. Extra survivors only widen the
// enumeration Lemma 1 reasons about, so the winner-per-footprint guarantee
// holds for either setting. Everything here is a function of the vectors'
// order and costs alone, hence identical for any Workers.
//
// Three passes: number the groups; score the unscored members of
// groups of two or more (a vector alone in its group survives whatever it
// costs: getOptimal or a degraded beam scores it if they read it, a later
// prune sees only new rows); settle. A cancelled ctx leaves e unpruned.
//
// A group that keeps no near-ties settles each loss as it happens, so that
// case allocates nothing (the bookkeeping is the worker scratch's) — it runs
// after every concatenation of every request. Otherwise no member's fate is
// known before its group's winner is final, and all of them wait.
func (c *Context) pruneGroups(ctx context.Context, e *Enumeration, st *Stats) {
	if len(e.Vectors) <= 1 {
		return
	}
	var wide map[string]int
	sc := c.scratch
	if sc.group == nil {
		// Sized once per worker and run, from the plan's singleton rows.
		rows := len(c.alts)
		sc.group, sc.size = make([]int, 0, rows), make([]int, 0, rows)
		sc.miss = slices.Grow(sc.miss, rows)
	}
	sc.foot.reset()
	sc.group, sc.size = sc.group[:0], sc.size[:0]
	for _, v := range e.Vectors {
		var g int
		var seen bool
		if foot, sfoot, packed := footprintKey(v.Assign, e.Boundary); packed {
			g, seen = sc.foot.group(foot)
		} else {
			// The boundary, hence packed, is the enumeration's: its vectors
			// are all packed or all keyed by string, numbered in first-seen
			// order here as the table numbers packed keys.
			if g, seen = wide[sfoot]; !seen {
				if wide == nil {
					wide = make(map[string]int)
				}
				g = len(wide)
				wide[sfoot] = g
			}
		}
		if !seen {
			sc.size = append(sc.size, 0)
		}
		sc.size[g]++
		sc.group = append(sc.group, g)
	}
	sc.miss = sc.miss[:0]
	hits := 0
	for i, v := range e.Vectors {
		if contested := sc.size[sc.group[i]] >= 2; contested && v.scored {
			hits++
		} else if contested {
			sc.miss = append(sc.miss, i)
		}
	}
	if !c.predict(ctx, e, hits, st) {
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
		if rec != nil {
			sc.pruned.observe(v, survivorSlot)
		}
	}
	type member struct {
		v     *Vector
		group int
	}
	var waiting []member
	// Groups are numbered in first-seen order: group g's first member finds g kept.
	kept := e.Vectors[:0]
	for i, v := range e.Vectors {
		g := sc.group[i]
		switch {
		case nearTies > 0:
			waiting = append(waiting, member{v, g})
		case g == len(kept):
			kept = append(kept, v)
		default:
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

// NoPruner keeps every vector: Table I's enumeration without pruning
// (internal/experiments) runs it.
type NoPruner struct{}

// Prune is a no-op.
func (NoPruner) Prune(context.Context, *Context, *Enumeration, *Stats) {}

// getOptimal predicts the runtime of every vector in e and returns the one
// with the lowest prediction (Algorithm 1, line 18). Ties resolve to the
// earliest vector for determinism. Prediction goes through the same batched
// helper as the pruners, and only vectors not scored yet are sent: after a
// pruned run, those are the survivors the last prune had nothing to compare
// with. A nil return means the enumeration was empty or ctx was cancelled
// mid-batch; the caller distinguishes the two via ctx.Err().
func (c *Context) getOptimal(ctx context.Context, e *Enumeration, st *Stats) *Vector {
	if len(e.Vectors) == 0 {
		return nil
	}
	if !c.predictEnum(ctx, e, st) {
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
// invocation — the overhead Robopt's design eliminates. TDGen labels its
// plans with it, and the benchmark's prediction probes build their rows
// with it.
func (c *Context) VectorizeExecution(assign []uint8) *Vector {
	return c.vectorize(&Vector{F: make([]float64, c.Schema.Len()), Assign: append([]uint8(nil), assign...)})
}

// vectorize fills v.F, zeroed and Schema-wide, with the plan vector of the
// operators v.Assign places: an Unassigned operator is outside the subplan,
// and an edge adds its conversion features and fuses two pipeline segments
// only when both its endpoints are inside. Operators go in ID order and
// edges in plan order, so float cells accumulate deterministically.
func (c *Context) vectorize(v *Vector) *Vector {
	s := c.Schema
	for _, o := range c.Plan.Ops {
		if pi := v.Assign[o.ID]; pi != Unassigned {
			r := s.cellsOf(v.F, o.Kind)
			c.addSingletonStructure(&r, o)
			c.addPlatformChoice(&r, o, int(pi))
		}
	}
	for _, e := range c.edges {
		pa, pb := v.Assign[e.From], v.Assign[e.To]
		if pa == Unassigned || pb == Unassigned {
			continue
		}
		if c.ops[e.From].linear && c.ops[e.To].linear {
			v.F[TopoPipeline]--
		}
		c.addConversion(v.F[s.moveOff:], e, pa, pb)
	}
	v.F[s.DatasetCell()] = c.Plan.AvgTupleBytes
	return v
}

// VectorizeAssignment is VectorizeExecution for an explicit platform
// assignment of the plan (one platform per operator, in ID order), mapping
// platform IDs to schema columns first. PredictAssignment scores through it,
// and the service labels execution feedback with it.
func (c *Context) VectorizeAssignment(assign []platform.ID) (*Vector, error) {
	if len(assign) != c.Plan.NumOps() {
		return nil, fmt.Errorf("assignment covers %d of %d operators", len(assign), c.Plan.NumOps())
	}
	cols := make([]uint8, len(assign))
	for i, p := range assign {
		pi := c.Schema.PlatIndex(p)
		if pi < 0 {
			return nil, fmt.Errorf("platform %s not in the optimizer's universe", p)
		}
		cols[i] = uint8(pi)
	}
	return c.VectorizeExecution(cols), nil
}

// PredictAssignment returns m's runtime estimate for an explicit platform
// assignment of the plan. The facade's PredictRuntime calls it, and
// CheapestAllOn through it.
func (c *Context) PredictAssignment(m CostModel, assign []platform.ID) (float64, error) {
	v, err := c.VectorizeAssignment(assign)
	if err != nil {
		return 0, err
	}
	return m.Predict(v.F), nil
}

// CheapestAllOn is plan.CheapestAllOn over the plan with m's estimates as
// the scores: the single-platform mode of Section VII-C1 under the model,
// which the facade, robopt -mode single and Figure 12 run.
func (c *Context) CheapestAllOn(m CostModel, candidates []platform.ID) (platform.ID, *plan.Execution, float64, error) {
	return plan.CheapestAllOn(c.Plan, candidates, c.Avail, func(x *plan.Execution) (float64, error) {
		return c.PredictAssignment(m, x.Assign)
	})
}
