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
// (the per-child body of Algorithm 1's main loop). Tasks selected for one
// round are pairwise disjoint, so they share no enumerations and can run on
// any worker. All result fields are written by the executing worker and read
// only after the round barrier.
type boundaryTask struct {
	node     *enumNode
	children []*enumNode
	// stepBase is the audit step number of the task's first concatenation,
	// pre-assigned at selection time so the PruneRecord sequence is
	// independent of execution interleaving.
	stepBase int

	rt     *RunTrace // task-local audit collector (traced runs only)
	span   *obs.Span
	result *Enumeration
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
func (c *Context) selectRound(f *frontier, order OrderPolicy) []*boundaryTask {
	// Children, priorities and ties are computed once per live node, from
	// the frontier as the last barrier left it.
	minTie := -1
	for _, nd := range f.nodes {
		nd.children = c.childrenOf(nd, f.owner, nd.children[:0])
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
	var tasks []*boundaryTask
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
		tasks = append(tasks, &boundaryTask{node: nd, children: nd.children, stepBase: f.step})
		f.step += len(nd.children)
	}
	return tasks
}

// workerContext returns a shallow copy of c for one pool worker: the
// precomputed read-only plan state is shared, while what a task mutates —
// the scratch, and the audit collector and span parent runTask installs per
// task — is the worker's own, so concurrent tasks never synchronize on it.
func (c *Context) workerContext(sc *scratch) *Context {
	wc := new(Context)
	*wc = *c
	wc.Workers = 1
	wc.scratch = sc
	wc.curRec, wc.curSpan = nil, nil
	return wc
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
func (c *Context) runRound(ctx context.Context, pr Pruner, tasks []*boundaryTask, degraded bool, start time.Time, base Stats, st *Stats) {
	workers := c.Workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		// Inline path, on c itself: either the run is serial or the round
		// has a single task, which keeps the full intra-enumeration
		// parallelism (merges and model batches still fan out) — that is
		// where the work concentrates in the final rounds.
		if len(tasks) > st.Par.MaxQueueDepth {
			st.Par.MaxQueueDepth = len(tasks)
		}
		rt, root := c.rt, c.root
		for _, t := range tasks {
			c.runTask(ctx, pr, t, degraded, start, base)
		}
		c.rt, c.root = rt, root
		return
	}
	queues := make([][]*boundaryTask, workers)
	for i, t := range tasks {
		w := i % workers
		t.worker = w
		queues[w] = append(queues[w], t)
	}
	for _, q := range queues {
		if len(q) > st.Par.MaxQueueDepth {
			st.Par.MaxQueueDepth = len(q)
		}
	}
	var mu sync.Mutex
	steals := 0
	next := func(self int) *boundaryTask {
		mu.Lock()
		defer mu.Unlock()
		if q := queues[self]; len(q) > 0 {
			t := q[0]
			queues[self] = q[1:]
			return t
		}
		victim, depth := -1, 0
		for i, q := range queues {
			if i != self && len(q) > depth {
				victim, depth = i, len(q)
			}
		}
		if victim < 0 {
			return nil
		}
		q := queues[victim]
		t := q[len(q)-1]
		queues[victim] = q[:len(q)-1]
		steals++
		t.worker = self
		t.stolen = true
		return t
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int, wc *Context) {
			defer wg.Done()
			for {
				t := next(self)
				if t == nil {
					return
				}
				wc.runTask(ctx, pr, t, degraded, start, base)
			}
		}(w, c.workerContext(c.store.worker(w)))
	}
	wg.Wait()
	st.Par.Steals += steals
}

// runTask concatenates the task's enumeration with each of its children in
// order, pruning after every concatenation — the per-child body of the
// serial Algorithm 1 loop. tc is the Context executing the task (the run's
// own when the round runs inline, a pool worker's copy otherwise): each
// product is merged into its scratch, pruned there, and what survives is
// copied into store rows, while the rows of the two inputs go back to the
// store — so workers contend on nothing but the store's free list.
func (tc *Context) runTask(ctx context.Context, pr Pruner, t *boundaryTask, degraded bool, start time.Time, base Stats) {
	tc.rt, tc.root = t.rt, t.span
	st := &t.st
	budget := tc.Budget
	deg := degraded
	cur := t.node.e
	for ci, child := range t.children {
		if err := ctx.Err(); err != nil {
			t.err = err
			return
		}
		step := t.stepBase + ci
		wasDeg := deg
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
			if reason := budget.exhausted(&probe, start, projected); reason != "" {
				deg = true
				st.Degraded = true
				st.DegradeReason = reason
			}
		}
		if deg {
			tc.truncate(cur, st)
			tc.truncate(child.e, st)
		}
		left, right := cur.Vectors, child.e.Vectors
		pairs := len(left) * len(right)
		info := tc.MergeInfo(cur, child.e)
		merged := tc.scratch.product(tc.store, cur.Scope.Union(child.e.Scope), pairs)
		mspan := tc.span(tc.root, "merge")
		mspan.SetInt("step", int64(step)).SetInt("left", int64(len(left))).
			SetInt("right", int64(len(right))).SetInt("pairs", int64(pairs))
		if deg && !wasDeg {
			// The budget tripped on this very concatenation: the audit
			// trail marks where the run left the lossless regime.
			mspan.SetStr("budgetExhausted", st.DegradeReason)
		}
		mergeStart := time.Now()
		// Merge is a pure function of its two inputs, so the cartesian
		// product (pair i is left[i/len(right)] × right[i%len(right)]) fans
		// out across workers writing into disjoint scratch rows; chunked
		// writes keep the vector order deterministic.
		err := parallelForCtx(ctx, pairs, tc.Workers, mergeBlock, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tc.mergeInto(merged.Vectors[i], left[i/len(right)], right[i%len(right)], info, nil)
			}
		})
		st.Timings.Merge += time.Since(mergeStart)
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
		merged.Boundary = tc.boundaryOf(merged.Scope, nil)
		st.observe(len(merged.Vectors))
		pspan := tc.span(tc.root, "prune")
		if tc.rt != nil {
			tc.curRec = tc.rt.beginPrune(step, merged)
			tc.curRec.Degraded = deg
			tc.curSpan = pspan
		}
		pruneStart := time.Now()
		pr.Prune(ctx, tc, merged, st)
		st.Timings.Prune += time.Since(pruneStart)
		if tc.rt != nil {
			rec := tc.curRec
			tc.rt.endPrune(rec, merged, deg)
			pspan.SetInt("step", int64(step)).SetInt("vectors_in", int64(rec.VectorsIn)).
				SetInt("vectors_out", int64(rec.VectorsOut)).SetInt("model_rows", int64(rec.ModelRows)).
				SetInt("memo_hits", int64(rec.MemoHits))
			tc.curRec, tc.curSpan = nil, nil
		}
		pspan.End()
		if err := ctx.Err(); err != nil {
			t.err = err
			return
		}
		if deg {
			truncateCheapest(merged, budget.cap(), st)
		}
		cur = tc.keep(merged)
	}
	t.result = cur
	if t.span != nil {
		t.st.Timings.Annotate(t.span)
		t.span.SetInt("worker", int64(t.worker))
		if t.stolen {
			t.span.SetBool("stolen", true)
		}
		t.span.End()
	}
}
