package core

import (
	"context"
	"time"

	"repro/internal/mlmodel"
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
// even if the provider hot-swaps mid-run. The service's enumerate tier and
// the benchmark's traced replay run it.
func (c *Context) OptimizeProvider(ctx context.Context, mp ModelProvider) (*Result, error) {
	return c.Optimize(ctx, mp.ActiveModel())
}

// bind makes m the run's model: every row of the run is scored by its
// specialisation to the run's live columns (mlmodel.Specialize), asked once.
func (c *Context) bind(m CostModel) {
	c.layout()
	c.spec = mlmodel.Specialize(m, c.live, c.Schema.Len())
}

// features returns the flat row-major matrix of the vectors of e listed in
// the scratch's miss, as rows of the run: a view of the enumeration's feature
// matrix when it has one and they are consecutive (the common case: a product
// just merged, its groups all contested), else their rows gathered into the
// scratch.
func (c *Context) features(e *Enumeration) vecops.Matrix {
	sc := c.scratch
	n := len(sc.miss)
	if e.mat != nil && sc.miss[n-1]-sc.miss[0] == n-1 {
		return e.mat.RowsView(sc.miss[0], sc.miss[n-1]+1)
	}
	w := len(c.live)
	m := vecops.Matrix{Data: c.store.floats(&sc.gather, n*w), Rows: n, Cols: w}
	for k, i := range sc.miss {
		copy(m.Row(k), e.Vectors[i].F)
	}
	return m
}

// chunks readies the scratch for up to workers parallel chunks: a matrix
// header each (the model's matrix argument escapes, so views live here).
func (sc *scratch) chunks(workers int) {
	if workers = max(workers, 1); len(sc.views) < workers {
		sc.views = make([]vecops.Matrix, workers)
	}
}

// scoreBody is a scratch as the body of predict's parallel loop.
type scoreBody scratch

// run scores rows [lo, hi) of the batch in flight (scratch.scoring) through
// parallel chunk chunk's matrix view, into the four output columns the
// scratch's out holds (mean, spread, lo, hi; n each).
func (b *scoreBody) run(chunk, lo, hi int) {
	sc := (*scratch)(b)
	s, out := &sc.scoring, sc.out
	sub := &sc.views[chunk]
	*sub = s.x.RowsView(lo, hi)
	n := s.n
	s.model.PredictBatchDist(sub, out[lo:hi], out[n+lo:n+hi], out[2*n+lo:2*n+hi], out[3*n+lo:3*n+hi])
}

// predictEnum scores every vector of e not scored yet (see predict).
func (c *Context) predictEnum(ctx context.Context, e *Enumeration, st *Stats) bool {
	sc := c.scratch
	sc.miss = sc.miss[:0]
	for i, v := range e.Vectors {
		if !v.scored {
			sc.miss = append(sc.miss, i)
		}
	}
	return c.predict(ctx, e, len(e.Vectors)-len(sc.miss), st)
}

// predict sets Vector.Dist to the model's predictive distribution and
// Vector.Cost to its selection score (Context.score) for the vectors of e
// listed in the scratch's miss through one batched model invocation, and is
// the single prediction/accounting path shared by pruneGroups and
// predictEnum. hits counts the vectors the caller needed and found already
// scored (Stats.MemoHits); the listed ones are scored by a single logical
// PredictBatchDist (Stats.ModelBatches/ModelRows), chunked across workers via
// parallelForCtx in pruneBlock-sized blocks so cancellation latency stays
// bounded by one block of model work. The run's specialised model (bind)
// reads them as one flat matrix of the run's rows. Returns
// false when ctx was cancelled mid-batch; costs are then partial and the
// caller must abandon the enumeration.
func (c *Context) predict(ctx context.Context, e *Enumeration, hits int, st *Stats) bool {
	sc := c.scratch
	miss := sc.miss
	if len(miss) == 0 {
		// Nothing to score (every group of the prune uncontested): no
		// model time to read off the clock.
		if st != nil {
			st.MemoHits += hits
		}
		if rec := c.curRec; rec != nil {
			rec.MemoHits += hits
		}
		return true
	}
	lap := time.Since(c.clock)
	X := c.features(e)
	// The four output columns share one buffer, the scratch's.
	n := len(miss)
	out := c.store.floats(&sc.out, 4*n)
	sc.chunks(c.Workers)
	sc.scoring.model, sc.scoring.x, sc.scoring.n = c.spec, X, n
	ok := parallelForCtx(ctx, n, c.Workers, pruneBlock, (*scoreBody)(sc)) == nil
	if ok {
		for k, i := range miss {
			v := e.Vectors[i]
			v.Dist = CostDist{Mean: out[k], Spread: out[n+k], Lo: out[2*n+k], Hi: out[3*n+k]}
			v.Cost = c.score(v.Dist)
			v.scored = true
		}
	}
	if st != nil {
		st.Timings.Infer += time.Since(c.clock) - lap
		if ok {
			st.ModelBatches++
			st.ModelRows += n
			st.MemoHits += hits
		}
	}
	if rec := c.curRec; rec != nil && ok {
		rec.ModelRows += n
		rec.MemoHits += hits
	}
	return ok
}
