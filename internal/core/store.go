package core

import (
	"math"
	"sync"
	"weak"

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
// The run's bookkeeping comes from the same memory, in blocks sized from the
// plan rather than one object per enumeration step: a run of n operators
// makes exactly n singleton enumerations and n−1 concatenations, so it holds
// 2n−1 enumeration slots (enumNode: the enumeration beside its frontier node
// and the task it heads in a round) and one block of node references for the
// frontier's lists and the round's tasks; the store and its frontier live
// there too. Only its scope words and each worker's scratch (its boundary
// lists, its footprint table) are the run's own.
//
// Every row of the run — the store's features, assignments and Vector
// headers, the Vectors slices of its enumerations and its free list, and
// each worker's product rows and scoring buffers — and that bookkeeping are
// carved from one runMem, the bulk of what a run allocates in bytes, and
// Optimize* hand it back as they return (endRun) onto a package-level stack
// of weak pointers. The next run to start takes it over (beginRun) and
// carves it again at its own widths. A weak pointer keeps nothing alive, so
// the first collection after a run reclaims its runMem as if it had been
// dropped: what a run reuses is garbage the collector has not swept yet, and
// resident heap after a collection is what it would be without reuse (see
// DESIGN.md). A runMem is six slabs, so a run that finds none spare makes a
// handful of allocations more than one that does, whatever the plan:
// allocation counts barely depend on when the collector ran. Nothing that
// outlives the run is carved from it: not the Result, not the RunTrace or
// the spans, not NewContext's tables.

// slab hands out slices carved from chunks that never move, so a slice it
// returns stays valid until the slab is reset. A chunk holds the request that
// needs it, next elements when next is set (the first chunk of a slab or of
// a run, see reset) and a quarter of what was taken before it, so a growing
// slab allocates a number of chunks logarithmic in what it hands out.
type slab[T any] struct {
	free []T
	next int
	// first is the chunk reset hands out again and last the latest one
	// allocated; used counts the elements taken since the last reset.
	first, last []T
	used        int
}

// take returns n elements: zero in a chunk carved for the first time, what
// an earlier run left there in a chunk carved again.
func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.free = make([]T, max(n, s.next, s.used/4))
		s.next = 0
		s.last = s.free
		if s.first == nil {
			s.first = s.free
		}
	}
	s.used += n
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// reset starts a new run on s, which expects to take at least n elements;
// nothing s handed out before is valid any more. The run carves a single
// chunk again, the first or the last one, when that holds n and everything
// the last run took; otherwise its first chunk is allocated at that size. So
// a run allocates only what no run before it on the memory needed: the
// memory keeps the size of the largest run it served until the collector
// reclaims it.
func (s *slab[T]) reset(n int) {
	if n = max(n, s.used); len(s.first) < n {
		s.first = nil
		if len(s.last) >= n {
			s.first = s.last
		}
	}
	s.free, s.last, s.used, s.next = s.first, s.first, 0, 0
	if s.first == nil {
		s.next = n
	}
}

// runMem is the memory a run carves its rows and its bookkeeping from, and
// what a finished Optimize* run hands on to the next (see the top of this
// file): the features, assignments and Vector headers of every row, store
// and scratch alike, the Vectors slices that list them, the enumeration
// slots and the frontier's node references, and the run's store itself. Its
// slabs are carved under the store's lock, or by the run alone before its
// first round.
type runMem struct {
	feats  slab[float64]
	assign slab[uint8]
	hdrs   slab[Vector]
	ptrs   slab[*Vector]
	nodes  slab[enumNode]
	refs   slab[*enumNode]
	// store is the vector store of the run on this memory.
	store vecStore
}

// spares holds the runMem of finished runs, weakly: a collection reclaims
// whatever no run has taken over since it was handed back.
var spares struct {
	sync.Mutex
	stack []weak.Pointer[runMem]
}

// takeMem returns the runMem a finished run handed back most recently that
// the collector has not reclaimed, or a new one.
func takeMem() *runMem {
	spares.Lock()
	defer spares.Unlock()
	for k := len(spares.stack); k > 0; k-- {
		m := spares.stack[k-1].Value()
		spares.stack = spares.stack[:k-1]
		if m != nil {
			return m
		}
	}
	return new(runMem)
}

// handBack puts m, which nothing references any more, on the spare stack.
func (m *runMem) handBack() {
	p := weak.Make(m)
	spares.Lock()
	spares.stack = append(spares.stack, p)
	spares.Unlock()
}

// poisonAssign is what the test-only poison hook writes over a freed row's
// assignment: no platform column, and not Unassigned either.
const poisonAssign uint8 = 0xFE

// vecStore holds the plan vectors of one run as rows of the run's width,
// carved from its runMem, and recycles the rows of consumed enumerations.
// Tasks of one round take and release concurrently, and workers carve their
// scratch from the same runMem, hence the lock (held for slice bookkeeping
// only, twice per concatenation).
type vecStore struct {
	mu         sync.Mutex
	mem        *runMem
	cols, nOps int
	free       []*Vector
	// rows counts the rows carved so far, free or not.
	rows int
	// nodes are the run's 2n−1 enumeration slots (see enum) and scopes their
	// scope words, words per slot, then the frontier's union.
	nodes  []enumNode
	scopes []uint64
	words  int
	// front is the run's schedule state (newFrontier).
	front frontier
	// workers holds the scratch of each pool worker, by worker index.
	workers []*scratch
	// poison (Context.poison, set only by tests): release overwrites every
	// freed row (NaN features and costs, poisonAssign assignments), product
	// the scratch before it is filled and endRun every row the run carved, so
	// that tests turn a read of freed, stale or handed-back memory into a NaN
	// cost or an out-of-range platform instead of a plausible plan; endRun
	// also overwrites the enumeration slots (NaN priorities, claimed nodes,
	// no vectors, full scopes), so that a slot read before it is filled
	// again decides something else. chunks lists the blocks of rows to
	// overwrite at endRun.
	poison bool
	chunks []Vector
}

// beginRun gives c a new store over a runMem — a finished run's when the
// collector has not reclaimed it yet, else a new one — its enumeration slots,
// its free list seeded with rows rows, and the scratch of worker 0. Whatever
// the previous run on c returned keeps its own store and runMem alive and
// intact (only Optimize* hand theirs on), but callers are only promised it
// until here.
func (c *Context) beginRun(rows int) {
	c.layout()
	n, width := c.Plan.NumOps(), len(c.live)
	words := len(plan.NewBitset(n))
	// A run carves about half as many rows again as its singletons take, for
	// its workers' products and the survivors the free list is short of, and
	// at least minSpareRows: a worker's products grow to the largest one the
	// plan makes, which does not shrink with the plan. So a run on new
	// memory mostly fits in one chunk per slab.
	m, carve := takeMem(), rows+max(rows/2, minSpareRows)
	m.feats.reset(carve * width)
	m.assign.reset(carve * n)
	m.hdrs.reset(carve)
	m.ptrs.reset(4*rows + carve)
	m.nodes.reset(2*n - 1)
	m.refs.reset(frontierRefs(n, len(c.edges)))
	m.store = vecStore{
		mem: m, cols: width, nOps: n, poison: c.poison,
		nodes: m.nodes.take(2*n - 1), scopes: make([]uint64, 2*n*words), words: words,
	}
	c.store = &m.store
	// The free list never holds more rows than the store carved: carve
	// covers it unless the survivors outgrow the estimate (see release).
	c.store.free = m.ptrs.take(carve)[:rows]
	c.store.block(c.store.free)
	c.scratch = c.store.worker(0)
}

// minSpareRows is the fewest rows a run carves beyond its singletons' (see
// beginRun): a two-platform pipeline's products alone take 28.
const minSpareRows = 32

// endRun ends a run once nothing of its store is referenced any more
// (Optimize* expand the winning vector out first) and drops its model. With
// handBack, the run's runMem goes on the spare stack for the next run: the
// pool has joined by then, so no worker still writes to it. OptimizeExhaustive
// drops its runMem instead, since a run that never recycles a row would hand
// on a memory sized for its whole search space.
func (c *Context) endRun(handBack bool) {
	if s := c.store; s != nil {
		if s.poison {
			for _, ch := range s.chunks {
				poisonRows(ch.F, ch.Assign)
			}
			for i := range s.nodes {
				nd := &s.nodes[i]
				nd.prio, nd.claimed, nd.e.Vectors = math.NaN(), true, nil
			}
			for i := range s.scopes {
				s.scopes[i] = math.MaxUint64
			}
		}
		if handBack {
			s.mem.handBack()
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
	e := &s.nodes[k].e
	*e = Enumeration{Scope: scope}
	return e
}

// worker returns pool worker i's scratch, created on first use. Only the
// scheduling goroutine calls it (between rounds).
func (s *vecStore) worker(i int) *scratch {
	for len(s.workers) <= i {
		sc := &scratch{bounds: slab[plan.OpID]{next: 4 * s.nOps}, bound: make([]plan.OpID, 0, s.nOps)}
		s.workers = append(s.workers, sc)
	}
	return s.workers[i]
}

// floats returns (*buf)[:n], carved anew from the run's memory (at least
// twice its old capacity) when *buf is too short: a scratch buffer whose
// every cell the caller overwrites before reading it.
func (s *vecStore) floats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		s.mu.Lock()
		*buf = s.mem.feats.take(max(n, 2*cap(*buf)))
		s.mu.Unlock()
	}
	return (*buf)[:n]
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

// block wires dst to len(dst) new rows, contiguous and in order, and returns
// the matrix over their features: the layout of an enumeration whose every
// vector survives (Enumerate), scored later without a copy. The caller holds
// mu, or runs alone.
func (s *vecStore) block(dst []*Vector) vecops.Matrix {
	n := len(dst)
	f, a := s.mem.feats.take(n*s.cols), s.mem.assign.take(n*s.nOps)
	wireRows(dst, s.mem.hdrs.take(n), f, a, s.cols, s.nOps)
	s.rows += n
	if s.poison {
		s.chunks = append(s.chunks, Vector{F: f, Assign: a})
	}
	return vecops.Matrix{Data: f, Rows: n, Cols: s.cols}
}

// fresh returns n new rows, contiguous and in order, in a Vectors slice of
// the run's, and the matrix over their features (see block).
func (s *vecStore) fresh(n int) ([]*Vector, vecops.Matrix) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.mem.ptrs.take(n)
	return vs, s.block(vs)
}

// take returns n rows with arbitrary contents: recycled ones, and new ones
// for however many the free list is short of.
func (s *vecStore) take(n int) []*Vector {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.mem.ptrs.take(n)
	k := min(n, len(s.free))
	copy(out, s.free[len(s.free)-k:])
	s.free = s.free[:len(s.free)-k]
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
	if n := len(s.free) + len(vs); n > cap(s.free) {
		// More rows than the run was expected to carve: the list moves to a
		// longer slice of the run's memory.
		free := s.mem.ptrs.take(max(n, 2*cap(s.free)))
		s.free = free[:copy(free, s.free)]
	}
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
// the worker runs in the run: the rows a cartesian product is merged into,
// and the bookkeeping of MergeInfo, predict and pruneGroups. Its rows and
// float buffers are carved from the run's memory; each grows to the largest
// request the worker has seen in the run and is never cleared — mergeInto
// overwrites every cell of every row it is given. The footprint table is the
// worker's own for the run: a prune resets it with one increment.
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
	views  []vecops.Matrix // predict, recordContributions: each parallel chunk's view of the rows
	foot   footTable       // pruneGroups: packed footprint → its group number, in first-seen order
	group  []int           // pruneGroups: each vector's group
	size   []int           // pruneGroups: each group's member count

	// bounds holds the boundary lists of the enumerations this worker
	// creates, bound the list boundary and MergeInfo compute before carving
	// its copy.
	bounds slab[plan.OpID]
	bound  []plan.OpID
	// The in-flight work of the two parallel loops, whose bodies are the
	// scratch itself (mergeBody, scoreBody): merging the product pairs of
	// merging (runTask), scoring the rows of scoring (predict).
	merging struct {
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
		s.mu.Lock()
		sc.data, sc.assign = s.mem.feats.take(size*s.cols), s.mem.assign.take(size*s.nOps)
		sc.vecs, sc.ptrs = s.mem.hdrs.take(size), s.mem.ptrs.take(size)
		s.mu.Unlock()
		// A row's headers never change, so they are wired once per carve.
		wireRows(sc.ptrs, sc.vecs, sc.data, sc.assign, s.cols, s.nOps)
	} else {
		// Pruning compacts ptrs in place and a degraded rank reorders them,
		// so the pointer list is rewired per product.
		for i := range sc.ptrs[:n] {
			sc.ptrs[i] = &sc.vecs[i]
		}
	}
	if s.poison {
		poisonRows(sc.data, sc.assign)
	}
	sc.mat = vecops.Matrix{Data: sc.data[:n*s.cols], Rows: n, Cols: s.cols}
	sc.enum = Enumeration{Scope: scope, Vectors: sc.ptrs[:n], mat: &sc.mat}
	return &sc.enum
}

// mergeBody is a scratch as the body of runTask's parallel loop.
type mergeBody scratch

// run merges pairs [lo, hi) of the product in flight into its rows: pair i
// is left[i/len(right)] × right[i%len(right)].
func (b *mergeBody) run(_, lo, hi int) {
	m := &b.merging
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
