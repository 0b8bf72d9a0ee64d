package core

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file is the parallel enumeration core: EnumerateFull's concatenations
// are scheduled in rounds over a worker pool. Each round freezes the
// priorities of the live enumerations, greedily selects the highest-priority
// set of pairwise-disjoint boundary tasks, runs them on up to Context.Workers
// goroutines with work stealing, and reduces the results into the shared
// frontier in task-selection order. Because the schedule is computed serially
// from frozen state and the reduction order is fixed at selection time,
// Workers=N is bit-identical to Workers=1 in the final plan, Stats.Counters()
// and the pruning audit trail; only wall-clock timings, span interleavings
// and the steal/queue-depth counters differ.

// boundaryTask is one unit of scheduled work: concatenate an enumeration with
// all of its current downstream children, pruning after each concatenation
// (the per-child body of Algorithm 1's main loop). A task lives in the
// enumNode it heads, whose children it consumes. Tasks selected for one
// round are pairwise disjoint, so they share no enumerations and can run on
// any worker. All result fields are written by the executing worker and read
// only after the round barrier; the task's result is the enumeration slot of
// its last step.
type boundaryTask struct {
	// stepBase is the audit step number of the task's first concatenation,
	// pre-assigned at selection time so the PruneRecord sequence is
	// independent of execution interleaving.
	stepBase int

	span   *obs.Span // traced runs only
	st     Stats
	err    error
	worker int
	stolen bool
}

// selectRound freezes the priorities of the live enumerations under the
// traversal order and greedily selects a set of pairwise-disjoint boundary
// tasks in priority order. Enumerations whose children are already claimed
// by a higher-priority task sit the round out; childless enumerations wait
// until an upstream enumeration absorbs them. The frontier's step counter
// advances by the number of concatenations handed out, and every enumeration
// a task will consume is marked claimed for the reduction to drop.
//
// Selection is guarded by the boundary tie-break: a task is admissible only
// when its tie (the boundary size of the concatenated scope, Section V-B)
// is within one of the round's minimum. Running every disjoint task would
// tear open wide pruning boundaries — e.g. chaining two join blocks while
// the joins' other inputs are still unmerged keeps both joins on the
// boundary, and the pruned enumeration grows as k^|boundary| — work the
// serial heap order never performs because boundary-closing merges always
// rank first. The guard keeps each round's tasks at (or one off) the
// smallest reachable boundary, so flat plans still fan out across all
// boundaries while join lattices close their input holes before the chain
// concatenations run. The node with the minimum tie is always admissible,
// so every round selects at least one task.
func (c *Context) selectRound(f *frontier, order OrderPolicy) []*enumNode {
	// Children, priorities and ties are computed once per live node, from
	// the frontier as the last barrier left it.
	minTie := -1
	f.kids = f.kids[:0]
	for _, nd := range f.nodes {
		from := len(f.kids)
		f.kids = c.childrenOf(nd, f.owner, f.kids)
		nd.children = f.kids[from:len(f.kids):len(f.kids)]
		c.setPriority(nd, order, f)
		if len(nd.children) > 0 && (minTie < 0 || nd.tie < minTie) {
			minTie = nd.tie
		}
	}
	f.ordered = append(f.ordered[:0], f.nodes...)
	slices.SortFunc(f.ordered, func(a, b *enumNode) int {
		if a.prio != b.prio {
			return cmp.Compare(b.prio, a.prio)
		}
		if a.tie != b.tie {
			return cmp.Compare(a.tie, b.tie)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	f.tasks = f.tasks[:0]
	for _, nd := range f.ordered {
		if len(nd.children) == 0 || nd.claimed || nd.tie > minTie+1 {
			continue
		}
		if slices.ContainsFunc(nd.children, func(ch *enumNode) bool { return ch.claimed }) {
			continue
		}
		nd.claimed = true
		for _, ch := range nd.children {
			ch.claimed = true
		}
		nd.boundaryTask = boundaryTask{stepBase: f.step}
		f.tasks = append(f.tasks, nd)
		f.step += len(nd.children)
	}
	return f.tasks
}

// workerContext returns pool worker sc's shallow copy of c, made on the
// worker's first parallel round of the run: the precomputed read-only plan
// state and the run's audit are shared (each task writes only the audit
// slots of its own steps), while what a task mutates — the scratch and the
// prune record in flight — is the worker's own, so concurrent tasks never
// synchronize on it.
func (c *Context) workerContext(sc *scratch) *Context {
	if sc.wc == nil {
		sc.wc = new(Context)
		*sc.wc = *c
		sc.wc.Workers = 1
		sc.wc.scratch = sc
		sc.wc.curRec = nil
	}
	return sc.wc
}

// pool is the state of one parallel round, kept on the frontier and reused
// by every round of the run: the round's tasks and parameters, and the
// per-worker queues they are dealt into. Queue w holds the tasks w,
// w+workers, w+2·workers, … of the round, of which positions [head, tail)
// are still queued.
type pool struct {
	mu     sync.Mutex
	wg     sync.WaitGroup
	tasks  []*enumNode
	queues []struct{ head, tail int }
	steals int

	ctx      context.Context
	pr       Pruner
	degraded bool
	base     Stats
}

// next hands worker self its next task: the head of its own queue, else the
// tail of the deepest other queue (a steal), else nil.
func (p *pool) next(self int) *enumNode {
	p.mu.Lock()
	defer p.mu.Unlock()
	workers := len(p.queues)
	if q := &p.queues[self]; q.head < q.tail {
		q.head++
		return p.tasks[self+(q.head-1)*workers]
	}
	victim, depth := -1, 0
	for i, q := range p.queues {
		if i != self && q.tail-q.head > depth {
			victim, depth = i, q.tail-q.head
		}
	}
	if victim < 0 {
		return nil
	}
	q := &p.queues[victim]
	q.tail--
	t := p.tasks[victim+q.tail*workers]
	p.steals++
	t.worker = self
	t.stolen = true
	return t
}

// work runs worker self's tasks on wc until no queue holds any.
func (p *pool) work(self int, wc *Context) {
	for t := p.next(self); t != nil; t = p.next(self) {
		wc.runTask(p.ctx, p.pr, t, p.degraded, p.base)
	}
}

// runRound executes the round's tasks. With one task (or one worker) it runs
// inline in selection order; otherwise tasks are dealt round-robin to
// per-worker queues and idle workers steal from the tail of the deepest
// queue, absorbing skew from uneven task costs. degraded and base are the
// budget state frozen at the round barrier: every task checks the count caps
// against base plus its own local counters, so a count-cap trip on one task
// never flips another mid-round (that would make the schedule depend on
// interleaving) — it degrades every task of the *next* round instead. The
// soft deadline is re-checked by every task before each concatenation, so a
// wall-clock trip stops the pool within one concatenation per worker.
func (c *Context) runRound(ctx context.Context, f *frontier, pr Pruner, tasks []*enumNode, degraded bool, base Stats, st *Stats) {
	workers := min(c.Workers, len(tasks))
	if workers <= 1 {
		// Inline path, on c itself: either the run is serial or the round
		// has a single task, which keeps the full intra-enumeration
		// parallelism (merges and model batches still fan out) — that is
		// where the work concentrates in the final rounds.
		st.Par.MaxQueueDepth = max(st.Par.MaxQueueDepth, len(tasks))
		for _, t := range tasks {
			c.runTask(ctx, pr, t, degraded, base)
		}
		return
	}
	if f.pool == nil {
		f.pool = new(pool)
	}
	p := f.pool
	p.tasks, p.steals = tasks, 0
	p.ctx, p.pr, p.degraded, p.base = ctx, pr, degraded, base
	p.queues = slices.Grow(p.queues[:0], workers)[:workers]
	for w := range p.queues {
		p.queues[w].head, p.queues[w].tail = 0, (len(tasks)-w+workers-1)/workers
		for i := w; i < len(tasks); i += workers {
			tasks[i].worker = w
		}
	}
	st.Par.MaxQueueDepth = max(st.Par.MaxQueueDepth, p.queues[0].tail)
	// Worker 0 runs on the calling goroutine.
	for w := 1; w < workers; w++ {
		wc := c.workerContext(c.store.worker(w))
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.work(w, wc)
		}()
	}
	p.work(0, c.workerContext(c.store.worker(0)))
	p.wg.Wait()
	st.Par.Steals += p.steals
}

// runTask concatenates the task's enumeration with each of its children in
// order, pruning after every concatenation — the per-child body of the
// serial Algorithm 1 loop. tc is the Context executing the task (the run's
// own when the round runs inline, a pool worker's copy otherwise): each
// product is merged into its scratch, pruned there, and what survives is
// copied into store rows, while the rows of the two inputs go back to the
// store — so workers contend on nothing but the store's free list. The
// loop's stage clock (Context.clock) is cut twice per concatenation, after
// the merge and after the prune, so Timings.Merge and Timings.Prune cover
// all of it.
func (tc *Context) runTask(ctx context.Context, pr Pruner, t *enumNode, degraded bool, base Stats) {
	st := &t.st
	budget := tc.Budget
	deg := degraded
	cur := &t.e
	lap := time.Since(tc.clock)
	for ci, child := range t.children {
		if err := ctx.Err(); err != nil {
			t.err = err
			return
		}
		step := t.stepBase + ci
		if !deg {
			// The projected concatenation size trips the budget before the
			// cartesian product is materialized, so a single adversarial
			// merge cannot blow past MaxVectors. Counters are checked
			// against the round-barrier base plus this task's own work.
			projected := len(cur.Vectors) * len(child.e.Vectors)
			probe := Stats{
				VectorsCreated: base.VectorsCreated + st.VectorsCreated,
				ModelRows:      base.ModelRows + st.ModelRows,
			}
			if reason := budget.exhausted(&probe, tc.clock, projected); reason != "" {
				deg = true
				st.Degraded = true
				st.DegradeReason = reason
			}
		}
		if deg {
			tc.truncate(ctx, pr, cur, st)
			tc.truncate(ctx, pr, &child.e, st)
		}
		left, right := cur.Vectors, child.e.Vectors
		pairs := len(left) * len(right)
		sc := tc.scratch
		out := tc.store.enum(tc.Plan.NumOps() + step)
		copy(out.Scope, cur.Scope)
		out.Scope.UnionInto(child.e.Scope)
		merged := sc.product(tc.store, out.Scope, pairs)
		mspan := tc.span(t.span, "merge").SetInt("step", int64(step)).
			SetInt("left", int64(len(left))).SetInt("right", int64(len(right)))
		// Merge is a pure function of its two inputs, so the cartesian
		// product (pair i is left[i/len(right)] × right[i%len(right)]) fans
		// out across workers writing into disjoint scratch rows; chunked
		// writes keep the vector order deterministic.
		info := tc.MergeInfo(cur, &child.e)
		sc.merging.c, sc.merging.out, sc.merging.left, sc.merging.right = tc, merged, left, right
		sc.merging.info = info
		err := parallelForCtx(ctx, pairs, tc.Workers, mergeBlock, (*mergeBody)(sc))
		mspan.End()
		if err != nil {
			t.err = err
			return
		}
		// Both inputs are consumed: their rows are free for the survivors.
		tc.store.release(left)
		tc.store.release(right)
		st.Merges += pairs
		st.VectorsCreated += pairs
		merged.Boundary = info.boundary
		st.PeakEnumSize = max(st.PeakEnumSize, len(merged.Vectors))
		cut := time.Since(tc.clock)
		st.Timings.Merge += cut - lap
		lap = cut
		pspan := tc.span(t.span, "prune").SetInt("step", int64(step))
		if tc.rt != nil {
			tc.curRec = tc.rt.beginPrune(step, merged, deg, &sc.pruned)
		}
		pr.Prune(ctx, tc, merged, st)
		if deg { // the beam below ranks every survivor
			tc.rank(ctx, pr, merged, st)
		}
		if tc.curRec != nil {
			tc.rt.endPrune(tc.curRec, merged, &sc.pruned)
			tc.curRec = nil
		}
		pspan.End()
		if err := ctx.Err(); err != nil {
			t.err = err
			return
		}
		if deg {
			truncateCheapest(merged, st)
		}
		cur = tc.keep(merged, out)
		cut = time.Since(tc.clock)
		st.Timings.Prune += cut - lap
		lap = cut
	}
	if t.span != nil {
		t.span.SetInt("worker", int64(t.worker))
		if t.stolen {
			t.span.SetBool("stolen", true)
		}
		t.span.End()
	}
}
