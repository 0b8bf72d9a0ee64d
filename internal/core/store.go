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
// Both die with the run. Nothing here is pooled across runs or requests: a
// package-level pool would keep its chunks alive through the next collection
// and show up as resident heap between requests (see DESIGN.md).

// poisonAssign is what the test-only poison hook writes over a freed row's
// assignment: no platform column, and not Unassigned either.
const poisonAssign uint8 = 0xFE

// vecStore holds the plan vectors of one run as rows — a feature block, an
// assignment block and the Vector headers, three allocations per chunk of
// rows — and recycles the rows of consumed enumerations. Tasks of one round
// take and release concurrently, hence the lock (held for slice bookkeeping
// only, twice per concatenation).
type vecStore struct {
	mu         sync.Mutex
	cols, nOps int
	free       []*Vector
	// rows counts the rows allocated so far, free or not.
	rows int
	// workers holds the scratch of each pool worker, by worker index.
	workers []*scratch
	// poison makes release overwrite every freed row (NaN features and
	// costs, poisonAssign assignments), product overwrite the scratch before
	// it is filled and endRun overwrite every chunk, so that tests turn a
	// read of freed or stale memory into a NaN cost or an out-of-range
	// platform instead of a plausible plan. Set from Context.poison, which
	// only tests set; chunks lists the blocks to overwrite at endRun.
	poison bool
	chunks []Vector
}

// beginRun gives c a fresh store, its free list seeded with one chunk of
// rows vectors, and the scratch of worker 0. Whatever the previous run on c
// returned keeps its own store alive and intact, but callers are only
// promised it until here.
func (c *Context) beginRun(rows int) {
	c.store = &vecStore{cols: c.Schema.Len(), nOps: c.Plan.NumOps(), poison: c.poison}
	c.store.free, _ = c.store.block(rows)
	c.scratch = c.store.worker(0)
}

// endRun drops the run's memory once nothing of it is referenced any more
// (Optimize* clone the winning vector out first).
func (c *Context) endRun() {
	if c.store != nil {
		for i := range c.store.chunks {
			c.store.chunks[i].poison()
		}
	}
	c.store, c.scratch = nil, nil
}

// work returns the scratch of the goroutine driving c, creating one for
// prune and predict calls made outside any run (hand-assembled enumerations).
func (c *Context) work() *scratch {
	if c.scratch == nil {
		c.scratch = new(scratch)
	}
	return c.scratch
}

// worker returns pool worker i's scratch, created on first use. Only the
// scheduling goroutine calls it (between rounds).
func (s *vecStore) worker(i int) *scratch {
	for len(s.workers) <= i {
		s.workers = append(s.workers, new(scratch))
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

// block allocates a chunk of n new rows, contiguous and in order, and returns
// them with the matrix over their feature blocks: the layout of an
// enumeration whose every vector survives (Enumerate), scored later without
// a copy.
func (s *vecStore) block(n int) ([]*Vector, vecops.Matrix) {
	out := make([]*Vector, n)
	f, a := make([]float64, n*s.cols), make([]uint8, n*s.nOps)
	wireRows(out, make([]Vector, n), f, a, s.cols, s.nOps)
	s.mu.Lock()
	s.rows += n
	if s.poison {
		s.chunks = append(s.chunks, Vector{F: f, Assign: a})
	}
	s.mu.Unlock()
	return out, vecops.Matrix{Data: f, Rows: n, Cols: s.cols}
}

// take returns n rows with arbitrary contents: recycled ones, and a new
// chunk for however many the free list is short of.
func (s *vecStore) take(n int) []*Vector {
	s.mu.Lock()
	k := min(n, len(s.free))
	out := append(make([]*Vector, 0, n), s.free[len(s.free)-k:]...)
	s.free = s.free[:len(s.free)-k]
	s.mu.Unlock()
	if k < n {
		fresh, _ := s.block(n - k)
		out = append(out, fresh...)
	}
	return out
}

// release puts the rows of a consumed enumeration on the free list. The
// caller must hold no other reference to them.
func (s *vecStore) release(vs []*Vector) {
	if s.poison {
		for _, v := range vs {
			v.poison()
		}
	}
	s.mu.Lock()
	s.free = append(s.free, vs...)
	s.mu.Unlock()
}

// poison overwrites v with values no live vector holds.
func (v *Vector) poison() {
	nan := math.NaN()
	for i := range v.F {
		v.F[i] = nan
	}
	for i := range v.Assign {
		v.Assign[i] = poisonAssign
	}
	v.Cost, v.Dist, v.scored = nan, CostDist{Mean: nan, Spread: nan, Lo: nan, Hi: nan}, false
}

// scratch is one worker's workspace, reused by every concatenation and prune
// the worker runs: the rows a cartesian product is merged into, and the
// bookkeeping of predictEnum and pruneGroups. It grows to the largest product
// the worker has seen and is never cleared — mergeInto overwrites every cell
// of every row it is given.
type scratch struct {
	enum   Enumeration
	mat    vecops.Matrix
	data   []float64
	assign []uint8
	vecs   []Vector
	ptrs   []*Vector

	miss   []int            // predictEnum: indices of the unscored vectors
	out    []float64        // predictEnum: the four output columns
	gather []float64        // predictEnum: feature rows of vectors with no matrix
	groups map[groupKey]int // pruneGroups: group → slot in the kept prefix
}

// product returns the worker's scratch enumeration resized to n vectors of
// s's widths over scope, every row's contents undefined: the destination of a
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
		(&Vector{F: sc.data, Assign: sc.assign}).poison()
	}
	// Pruning compacts ptrs in place, so they are rewired per product.
	wireRows(sc.ptrs, sc.vecs[:n], sc.data, sc.assign, s.cols, s.nOps)
	sc.mat = vecops.Matrix{Data: sc.data[:n*s.cols], Rows: n, Cols: s.cols}
	sc.enum = Enumeration{Scope: scope, Vectors: sc.ptrs[:n], mat: &sc.mat}
	return &sc.enum
}

// keep copies the vectors of e — what pruning left of a scratch product —
// into store rows and returns them as an enumeration of their own, which
// takes over e's scope and boundary.
func (c *Context) keep(e *Enumeration) *Enumeration {
	out := &Enumeration{Scope: e.Scope, Boundary: e.Boundary, Vectors: c.store.take(len(e.Vectors))}
	for i, v := range e.Vectors {
		w := out.Vectors[i]
		copy(w.F, v.F)
		copy(w.Assign, v.Assign)
		w.Cost, w.Dist, w.scored = v.Cost, v.Dist, v.scored
	}
	return out
}
