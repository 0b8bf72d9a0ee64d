package core

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/vecops"
)

// ModelProvider resolves the cost model for one optimization run. It is the
// indirection behind hot-swappable serving: callers read the active model
// once per run instead of holding a model for their lifetime, so a model
// registry can atomically publish a retrained model between runs without
// synchronizing with in-flight enumerations. Implementations must be safe
// for concurrent ActiveModel calls.
type ModelProvider interface {
	ActiveModel() CostModel
}

// OptimizeProvider is Optimize with the model resolved from mp when the run
// starts: the returned plan is scored entirely by that one model snapshot,
// even if the provider hot-swaps mid-run.
func (c *Context) OptimizeProvider(ctx context.Context, mp ModelProvider) (*Result, error) {
	return c.Optimize(ctx, mp.ActiveModel())
}

// features returns the flat row-major matrix of the unscored vectors of e,
// listed in miss. When that is every vector and the enumeration carries its
// feature matrix (the common case: predict runs right after the merge that
// laid the rows out), it is that matrix itself; otherwise — some vectors were
// already scored, pruning dropped or reordered rows, or the enumeration was
// assembled by hand — the rows are gathered into the scratch. Returned by
// value so that predictEnum's chunk closure captures it without an
// allocation.
func (sc *scratch) features(e *Enumeration, cols int) vecops.Matrix {
	n := len(sc.miss)
	if e.mat != nil && n == e.mat.Rows && n == len(e.Vectors) {
		return *e.mat
	}
	if cap(sc.gather) < n*cols {
		sc.gather = make([]float64, n*cols)
	}
	m := vecops.Matrix{Data: sc.gather[:n*cols], Rows: n, Cols: cols}
	for k, i := range sc.miss {
		copy(m.Row(k), e.Vectors[i].F)
	}
	return m
}

// predictEnum sets Vector.Dist to the model's predictive distribution and
// Vector.Cost to its selection score (Context.score) for every vector of e
// through one batched model invocation, and is the single
// prediction/accounting path shared by BoundaryPruner, PropertyPruner and
// GetOptimal. Vectors that already carry this run's prediction are not sent
// again (Stats.MemoHits); the rest form one flat matrix scored by a single
// logical PredictBatchDist (Stats.ModelBatches/ModelRows), chunked across
// workers via parallelForCtx in pruneBlock-sized blocks so cancellation
// latency stays bounded by one block of model work. Returns false when ctx
// was cancelled mid-batch; costs are then partial and the caller must abandon
// the enumeration.
func (c *Context) predictEnum(ctx context.Context, m CostModel, e *Enumeration, st *Stats) bool {
	n := len(e.Vectors)
	if n == 0 {
		return true
	}
	start := time.Now()
	var ispan *obs.Span
	if c.rt != nil {
		parent := c.curSpan
		if parent == nil {
			parent = c.root
		}
		ispan = c.Trace.StartSpan(parent, "infer")
	}
	// Scored pass (serial, so hit counts are deterministic for any Workers).
	sc := c.work()
	sc.miss = sc.miss[:0]
	for i, v := range e.Vectors {
		if v.scored {
			v.Cost = c.score(v.Dist)
		} else {
			sc.miss = append(sc.miss, i)
		}
	}
	miss := sc.miss
	hits := n - len(miss)
	ok := true
	if len(miss) > 0 {
		X := sc.features(e, c.Schema.Len())
		// The four output columns share one buffer, the scratch's.
		if cap(sc.out) < 4*len(miss) {
			sc.out = make([]float64, 4*len(miss))
		}
		buf := sc.out[:4*len(miss)]
		mean, spread := buf[:len(miss)], buf[len(miss):2*len(miss)]
		lov, hiv := buf[2*len(miss):3*len(miss)], buf[3*len(miss):]
		err := parallelForCtx(ctx, len(miss), c.Workers, pruneBlock, func(lo, hi int) {
			// Sliced from a copy: a method call on X itself would take its
			// address and move it to the heap, one allocation per batch.
			sub := X
			sub = sub.RowsView(lo, hi)
			m.PredictBatchDist(&sub, mean[lo:hi], spread[lo:hi], lov[lo:hi], hiv[lo:hi])
		})
		if err != nil {
			ok = false
		} else {
			for k, i := range miss {
				v := e.Vectors[i]
				v.Dist = CostDist{Mean: mean[k], Spread: spread[k], Lo: lov[k], Hi: hiv[k]}
				v.Cost = c.score(v.Dist)
				v.scored = true
			}
		}
	}
	if st != nil {
		st.Timings.Infer += time.Since(start)
		if ok {
			if len(miss) > 0 {
				st.ModelBatches++
				st.ModelRows += len(miss)
			}
			st.MemoHits += hits
		}
	}
	if ispan != nil {
		ispan.SetInt("rows", int64(len(miss))).SetInt("memoHits", int64(hits))
		if !ok {
			ispan.SetBool("cancelled", true)
		}
		ispan.End()
	}
	if ok {
		if rec := c.curRec; rec != nil {
			rec.ModelRows += len(miss)
			rec.MemoHits += hits
		}
	}
	return ok
}
