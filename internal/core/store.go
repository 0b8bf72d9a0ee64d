package core

import (
	"math"
	"sync"

	"repro/internal/plan"
	"repro/internal/vecops"
)

// This file is the enumeration's memory. A run owns one vecStore, holding
// every plan vector that outlives the concatenation that produced it, and one
// scratch per pool worker, holding the concatenation in flight: a cartesian
// product is merged into the worker's scratch rows, scored and pruned there,
// and only its survivors are copied into store rows, while the rows of the
// two enumerations it consumed go back on the store's free list. Live vector
// memory is therefore bounded by the frontier (the sum of the live
// enumerations' sizes), not by the number of vectors the run ever formed.
//
// The run's bookkeeping is allocated the same way, in a few blocks sized from
// the plan rather than one object per enumeration step: a run of n operators
// makes exactly n singleton enumerations and n−1 concatenations, so the store
// holds 2n−1 enumeration slots with their scope words (and the frontier 2n−1
// nodes and n−1 tasks), while the vector headers of every enumeration and
// each worker's boundary lists are carved from blocks that grow
// geometrically and never move.
//
// All of it dies with the run. Nothing here is pooled across runs or
// requests: a package-level pool would keep its chunks alive through the next
// collection and show up as resident heap between requests (see DESIGN.md).

// slab hands out slices of fresh elements carved from chunks that are never
// moved or reused, so a slice it returns stays valid as long as the slab.
// next is the size of the next chunk (at least the request that needs it);
// every chunk allocated doubles it.
type slab[T any] struct {
	free []T
	next int
}

// take returns n fresh (zero) elements.
func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.free = make([]T, max(n, s.next))
		s.next = 2 * len(s.free)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// poisonAssign is what the test-only poison hook writes over a freed row's
// assignment: no platform column, and not Unassigned either.
const poisonAssign uint8 = 0xFE

// vecStore holds the plan vectors of one run as rows of the run's width — a
// feature block, an assignment block and the Vector headers, three
// allocations per chunk of rows — and recycles the rows of consumed
// enumerations. Tasks of one round take and release concurrently, hence the
// lock (held for slice bookkeeping only, twice per concatenation).
type vecStore struct {
	mu         sync.Mutex
	cols, nOps int
	free       []*Vector
	// ptrs holds the Vectors slices of the run's enumerations (under mu).
	ptrs slab[*Vector]
	// rows counts the rows allocated so far, free or not.
	rows int
	// enums are the run's 2n−1 enumeration slots (see enum) and scopes their
	// scope words, words per slot.
	enums  []Enumeration
	scopes []uint64
	words  int
	// workers holds the scratch of each pool worker, by worker index.
	workers []*scratch
	// poison (Context.poison, set only by tests): release overwrites every
	// freed row (NaN features and costs, poisonAssign assignments), product
	// the scratch before it is filled and endRun every chunk, so that tests
	// turn a read of freed or stale memory into a NaN cost or an out-of-range
	// platform instead of a plausible plan. chunks lists the blocks to
	// overwrite at endRun.
	poison bool
	chunks []Vector
}

// beginRun gives c a fresh store, its free list seeded with one chunk of
// rows vectors, and the scratch of worker 0. Whatever the previous run on c
// returned keeps its own store alive and intact, but callers are only
// promised it until here.
func (c *Context) beginRun(rows int) {
	n := c.Plan.NumOps()
	words := len(plan.NewBitset(n))
	c.store = &vecStore{
		cols: c.width, nOps: n, poison: c.poison,
		ptrs:  slab[*Vector]{next: 2 * rows},
		enums: make([]Enumeration, 2*n-1), scopes: make([]uint64, (2*n-1)*words), words: words,
	}
	c.store.free = make([]*Vector, rows)
	c.store.block(c.store.free)
	c.scratch = c.store.worker(0)
}

// endRun drops the run's memory and model once nothing of it is referenced
// any more (Optimize* expand the winning vector out first).
func (c *Context) endRun() {
	if c.store != nil {
		for _, ch := range c.store.chunks {
			poisonRows(ch.F, ch.Assign)
		}
	}
	c.store, c.scratch, c.spec = nil, nil, nil
}

// enum returns enumeration slot k of the run, empty over a cleared scope.
// Slot id holds operator id's singleton and slot n+step what concatenation
// step keeps, so the slots of one run never collide and concurrent tasks
// never share one.
func (s *vecStore) enum(k int) *Enumeration {
	scope := plan.Bitset(s.scopes[k*s.words : (k+1)*s.words : (k+1)*s.words])
	clear(scope)
	e := &s.enums[k]
	*e = Enumeration{Scope: scope}
	return e
}

// worker returns pool worker i's scratch, created on first use. Only the
// scheduling goroutine calls it (between rounds).
func (s *vecStore) worker(i int) *scratch {
	for len(s.workers) <= i {
		sc := &scratch{bounds: slab[plan.OpID]{next: 2 * s.nOps}}
		sc.mergeFn, sc.scoreFn = sc.mergeRows, sc.scoreChunk
		s.workers = append(s.workers, sc)
	}
	return s.workers[i]
}

// wireRows points dst[i] at vecs[i] and vecs[i] at row i of the two blocks.
func wireRows(dst []*Vector, vecs []Vector, f []float64, a []uint8, cols, nOps int) {
	for i := range vecs {
		v := &vecs[i]
		v.F = f[i*cols : (i+1)*cols : (i+1)*cols]
		v.Assign = a[i*nOps : (i+1)*nOps : (i+1)*nOps]
		dst[i] = v
	}
}

// block wires dst to a chunk of len(dst) new rows, contiguous and in order,
// and returns the matrix over their feature blocks: the layout of an
// enumeration whose every vector survives (Enumerate), scored later without
// a copy.
func (s *vecStore) block(dst []*Vector) vecops.Matrix {
	n := len(dst)
	f, a := make([]float64, n*s.cols), make([]uint8, n*s.nOps)
	wireRows(dst, make([]Vector, n), f, a, s.cols, s.nOps)
	s.mu.Lock()
	s.rows += n
	if s.poison {
		s.chunks = append(s.chunks, Vector{F: f, Assign: a})
	}
	s.mu.Unlock()
	return vecops.Matrix{Data: f, Rows: n, Cols: s.cols}
}

// take returns n rows with arbitrary contents: recycled ones, and a new
// chunk for however many the free list is short of.
func (s *vecStore) take(n int) []*Vector {
	s.mu.Lock()
	out := s.ptrs.take(n)
	k := min(n, len(s.free))
	copy(out, s.free[len(s.free)-k:])
	s.free = s.free[:len(s.free)-k]
	s.mu.Unlock()
	if k < n {
		s.block(out[k:])
	}
	return out
}

// release puts the rows of a consumed enumeration on the free list. The
// caller must hold no other reference to them.
func (s *vecStore) release(vs []*Vector) {
	if s.poison {
		nan := math.NaN()
		for _, v := range vs {
			poisonRows(v.F, v.Assign)
			v.Cost, v.Dist, v.scored = nan, CostDist{Mean: nan, Spread: nan, Lo: nan, Hi: nan}, false
		}
	}
	s.mu.Lock()
	s.free = append(s.free, vs...)
	s.mu.Unlock()
}

// poisonRows overwrites every feature in f and every assignment in a with
// values no live vector holds.
func poisonRows(f []float64, a []uint8) {
	nan := math.NaN()
	for i := range f {
		f[i] = nan
	}
	for i := range a {
		a[i] = poisonAssign
	}
}

// scratch is one worker's workspace, reused by every concatenation and prune
// the worker runs: the rows a cartesian product is merged into, and the
// bookkeeping of MergeInfo, predict and pruneGroups. It grows to the largest
// product the worker has seen and is never cleared — mergeInto overwrites
// every cell of every row it is given.
type scratch struct {
	enum   Enumeration
	mat    vecops.Matrix
	data   []float64
	assign []uint8
	vecs   []Vector
	ptrs   []*Vector
	info   MergeCtx // MergeInfo: the concatenation in flight

	miss   []int           // predict: indices of the vectors to score
	out    []float64       // predict: the four output columns
	gather []float64       // predict, recordContributions: rows of the run not contiguous in a matrix
	row    []float64       // enumerateSingleton, recordContributions: one Schema-width row
	views  []vecops.Matrix // predict, recordContributions: each parallel chunk's view of the rows
	groups map[uint64]int  // pruneGroups: footprint → its group number, in first-seen order
	group  []int           // pruneGroups: each vector's group
	size   []int           // pruneGroups: each group's member count

	// bounds holds the boundary lists of the enumerations this worker
	// creates, bound the list boundary computes before carving its copy.
	bounds slab[plan.OpID]
	bound  []plan.OpID
	// The two parallel loop bodies, bound once per worker and run: merging
	// the product pairs of merging (runTask), scoring the rows of scoring
	// (predict).
	mergeFn, scoreFn func(chunk, lo, hi int)
	merging          struct {
		c           *Context
		out         *Enumeration
		left, right []*Vector
		info        *MergeCtx
	}
	scoring struct {
		model CostModel
		x     vecops.Matrix
		n     int
	}
	// pruned is the in-flight best pruned alternative of the audited prune
	// this worker runs (observeDiscard), resolved by endPrune.
	pruned prunedState
	// wc is this worker's Context in the run's pool rounds (workerContext).
	wc *Context
}

// product returns the worker's scratch enumeration resized to n vectors of
// s's widths over scope, every row undefined: the destination of a
// concatenation. It is valid until the worker's next product.
func (sc *scratch) product(s *vecStore, scope plan.Bitset, n int) *Enumeration {
	if n > len(sc.vecs) {
		size := max(n, 2*len(sc.vecs))
		sc.data = make([]float64, size*s.cols)
		sc.assign = make([]uint8, size*s.nOps)
		sc.vecs = make([]Vector, size)
		sc.ptrs = make([]*Vector, size)
	}
	if s.poison {
		poisonRows(sc.data, sc.assign)
	}
	// Pruning compacts ptrs in place, so they are rewired per product.
	wireRows(sc.ptrs, sc.vecs[:n], sc.data, sc.assign, s.cols, s.nOps)
	sc.mat = vecops.Matrix{Data: sc.data[:n*s.cols], Rows: n, Cols: s.cols}
	sc.enum = Enumeration{Scope: scope, Vectors: sc.ptrs[:n], mat: &sc.mat}
	return &sc.enum
}

// mergeRows merges pairs [lo, hi) of the product in flight into its rows:
// pair i is left[i/len(right)] × right[i%len(right)].
func (sc *scratch) mergeRows(_, lo, hi int) {
	m := &sc.merging
	nr := len(m.right)
	for i := lo; i < hi; i++ {
		m.c.mergeInto(m.out.Vectors[i], m.left[i/nr], m.right[i%nr], m.info, nil)
	}
}

// keep copies the vectors of e — what pruning left of a scratch product —
// into store rows of out, the enumeration slot the concatenation fills,
// whose scope e already shares, and hands it e's boundary.
func (c *Context) keep(e, out *Enumeration) *Enumeration {
	out.Boundary, out.Vectors = e.Boundary, c.store.take(len(e.Vectors))
	for i, v := range e.Vectors {
		w := out.Vectors[i]
		copy(w.F, v.F)
		copy(w.Assign, v.Assign)
		w.Cost, w.Dist, w.scored = v.Cost, v.Dist, v.scored
	}
	return out
}
