package core

import (
	"context"
	"time"

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

// bind makes m the run's model. A model with a method Specialize(cols []int)
// CostModel scores the run's rows in place: it is asked once, and on a row of
// schema columns cols[0], cols[1], … the model it returns must be
// bit-identical to m on the Schema-width row that is 0 elsewhere. m must then
// be comparable (a pointer, typically): predict compares models with it, and
// sends every other model expanded rows.
func (c *Context) bind(m CostModel) {
	if sp, ok := m.(interface{ Specialize(cols []int) CostModel }); ok {
		cols := make([]int, 0, c.width)
		for _, span := range c.live {
			for col := span.lo; col < span.hi; col++ {
				cols = append(cols, col)
			}
		}
		c.model, c.spec = m, sp.Specialize(cols)
	}
}

// grow returns (*buf)[:n], reallocated (zeroed) when *buf is too short.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// features returns the flat row-major matrix of the vectors of e listed in
// the scratch's miss: wide, their rows expanded into the scratch; otherwise a
// view of the enumeration's feature matrix when it has one and they are
// consecutive (the common case: a product just merged, its groups all
// contested), else their rows gathered into the scratch. Returned by value so
// that predict's chunk closure captures it without an allocation.
func (c *Context) features(e *Enumeration, wide bool) vecops.Matrix {
	sc := c.scratch
	n := len(sc.miss)
	if wide {
		m := vecops.Matrix{Data: grow(&sc.wide, n*c.Schema.Len()), Rows: n, Cols: c.Schema.Len()}
		for k, i := range sc.miss {
			c.expand(m.Row(k), e.Vectors[i].F)
		}
		return m
	}
	if e.mat != nil && sc.miss[n-1]-sc.miss[0] == n-1 {
		return e.mat.RowsView(sc.miss[0], sc.miss[n-1]+1)
	}
	m := vecops.Matrix{Data: grow(&sc.gather, n*c.width), Rows: n, Cols: c.width}
	for k, i := range sc.miss {
		copy(m.Row(k), e.Vectors[i].F)
	}
	return m
}

// predictEnum scores every vector of e not scored yet (see predict).
func (c *Context) predictEnum(ctx context.Context, m CostModel, e *Enumeration, st *Stats) bool {
	sc := c.scratch
	sc.miss = sc.miss[:0]
	for i, v := range e.Vectors {
		if !v.scored {
			sc.miss = append(sc.miss, i)
		}
	}
	return c.predict(ctx, m, e, len(e.Vectors)-len(sc.miss), st)
}

// predict sets Vector.Dist to the model's predictive distribution and
// Vector.Cost to its selection score (Context.score) for the vectors of e
// listed in the scratch's miss through one batched model invocation, and is
// the single prediction/accounting path shared by pruneGroups and
// predictEnum. hits counts the vectors the caller needed and found already
// scored (Stats.MemoHits); the listed ones form one flat matrix (see bind)
// scored by a single logical PredictBatchDist (Stats.ModelBatches/ModelRows),
// chunked across workers via parallelForCtx in pruneBlock-sized blocks so
// cancellation latency stays bounded by one block of model work. Returns
// false when ctx was cancelled mid-batch; costs are then partial and the
// caller must abandon the enumeration.
func (c *Context) predict(ctx context.Context, m CostModel, e *Enumeration, hits int, st *Stats) bool {
	start := time.Now()
	sc := c.scratch
	miss := sc.miss
	ok := true
	if len(miss) > 0 {
		model, wide := m, true
		if c.spec != nil && m == c.model {
			model, wide = c.spec, false
		}
		X := c.features(e, wide)
		// The four output columns share one buffer, the scratch's.
		buf := grow(&sc.out, 4*len(miss))
		mean, spread := buf[:len(miss)], buf[len(miss):2*len(miss)]
		lov, hiv := buf[2*len(miss):3*len(miss)], buf[3*len(miss):]
		// The model's matrix argument escapes: views live in the scratch.
		if len(sc.views) < max(c.Workers, 1) {
			sc.views = make([]vecops.Matrix, max(c.Workers, 1))
		}
		err := parallelForCtx(ctx, len(miss), c.Workers, pruneBlock, func(chunk, lo, hi int) {
			sub := &sc.views[chunk]
			*sub = X
			*sub = sub.RowsView(lo, hi)
			model.PredictBatchDist(sub, mean[lo:hi], spread[lo:hi], lov[lo:hi], hiv[lo:hi])
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
	if rec := c.curRec; rec != nil && ok {
		rec.ModelRows += len(miss)
		rec.MemoHits += hits
	}
	return ok
}
