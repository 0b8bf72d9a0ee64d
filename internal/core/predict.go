package core

import (
	"context"
	"reflect"
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

// bind makes m the run's model. A model with a method Specialize(cols []int)
// CostModel scores the run's rows in place: it is asked once, and on a row of
// schema columns cols[0] < cols[1] < … the model it returns must be
// bit-identical to m on the Schema-width row that is 0 elsewhere. It may
// return nil (an ensemble with a member that cannot specialise): m then gets
// rows expanded to the Schema, as does every model that is not the run's
// (isRun).
func (c *Context) bind(m CostModel) {
	if sp, ok := m.(interface{ Specialize(cols []int) CostModel }); ok {
		cols := make([]int, 0, c.width)
		for _, span := range c.live {
			for col := span.lo; col < span.hi; col++ {
				cols = append(cols, col)
			}
		}
		if spec := sp.Specialize(cols); spec != nil {
			c.model, c.spec = m, spec
			c.modelEq = reflect.ValueOf(m).Comparable()
		}
	}
}

// isRun reports whether m is the run's model, by identity: a value whose type
// has no == is never compared, as that panics. An mlmodel.Ensemble (a slice
// of members) is the run's when it holds the run's member slice itself; any
// other model only when bind found the run's model comparable, for then
// m == c.model cannot panic, whatever m is.
func (c *Context) isRun(m CostModel) bool {
	if run, ok := c.model.(mlmodel.Ensemble); ok {
		e, ok := m.(mlmodel.Ensemble)
		return ok && len(e.Models) == len(run.Models) && (len(e.Models) == 0 || &e.Models[0] == &run.Models[0])
	}
	return c.modelEq && m == c.model
}

// specFor returns the run's specialised model when m is the run's model and
// it has one (bind), else nil: m then scores rows expanded to the Schema.
func (c *Context) specFor(m CostModel) CostModel {
	if c.spec == nil || !c.isRun(m) {
		return nil
	}
	return c.spec
}

// grow returns (*buf)[:n], reallocated (zeroed) when *buf is too short.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// features returns the flat row-major matrix of the vectors of e listed in
// the scratch's miss, as rows of the run: a view of the enumeration's feature
// matrix when it has one and they are consecutive (the common case: a product
// just merged, its groups all contested), else their rows gathered into the
// scratch. Returned by value so that predict's chunk closure captures it
// without an allocation.
func (c *Context) features(e *Enumeration) vecops.Matrix {
	sc := c.scratch
	n := len(sc.miss)
	if e.mat != nil && sc.miss[n-1]-sc.miss[0] == n-1 {
		return e.mat.RowsView(sc.miss[0], sc.miss[n-1]+1)
	}
	m := vecops.Matrix{Data: grow(&sc.gather, n*c.width), Rows: n, Cols: c.width}
	for k, i := range sc.miss {
		copy(m.Row(k), e.Vectors[i].F)
	}
	return m
}

// wideRows returns parallel chunk i's buffer of pruneBlock Schema-width rows
// (scratch.wide), the most a model without the run's specialisation is given
// at once, with room for n of them.
func (sc *scratch) wideRows(i, n, cols int) vecops.Matrix {
	if sc.wide[i] == nil {
		sc.wide[i] = make([]float64, pruneBlock*cols)
	}
	return vecops.Matrix{Data: sc.wide[i][:n*cols], Rows: n, Cols: cols}
}

// chunks readies the scratch for up to workers parallel chunks: a matrix
// header each (the model's matrix argument escapes, so views live here) and,
// when wide, a slot for each chunk's buffer of expanded rows.
func (sc *scratch) chunks(workers int, wide bool) {
	workers = max(workers, 1)
	if len(sc.views) < workers {
		sc.views = make([]vecops.Matrix, workers)
	}
	if wide && len(sc.wide) < workers {
		sc.wide = make([][]float64, workers)
	}
}

// scoreRows has model score *sub as rows [lo, hi) of a batch of n, into the
// four output columns the scratch's out holds (mean, spread, lo, hi; n each).
func (sc *scratch) scoreRows(model CostModel, sub *vecops.Matrix, n, lo, hi int) {
	out := sc.out
	model.PredictBatchDist(sub, out[lo:hi], out[n+lo:n+hi], out[2*n+lo:2*n+hi], out[3*n+lo:3*n+hi])
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
// scored (Stats.MemoHits); the listed ones are scored by a single logical
// PredictBatchDist (Stats.ModelBatches/ModelRows), chunked across workers via
// parallelForCtx in pruneBlock-sized blocks so cancellation latency stays
// bounded by one block of model work. The run's specialised model (bind)
// reads them as one flat matrix of the run's rows; any other model gets them
// expanded to the Schema's width, pruneBlock rows per call at most, so its
// buffer stays one block per worker whatever the batch. Returns
// false when ctx was cancelled mid-batch; costs are then partial and the
// caller must abandon the enumeration.
func (c *Context) predict(ctx context.Context, m CostModel, e *Enumeration, hits int, st *Stats) bool {
	start := time.Now()
	sc := c.scratch
	miss := sc.miss
	ok := true
	if len(miss) > 0 {
		spec := c.specFor(m)
		var X vecops.Matrix
		if spec != nil {
			X = c.features(e)
		}
		// The four output columns share one buffer, the scratch's.
		n := len(miss)
		out := grow(&sc.out, 4*n)
		sc.chunks(c.Workers, spec == nil)
		err := parallelForCtx(ctx, n, c.Workers, pruneBlock, func(chunk, lo, hi int) {
			sub := &sc.views[chunk]
			if spec != nil {
				*sub = X
				*sub = sub.RowsView(lo, hi)
				sc.scoreRows(spec, sub, n, lo, hi)
				return
			}
			// Expanded rows, at most pruneBlock at a time in the chunk's buffer.
			for b := lo; b < hi; b += pruneBlock {
				end := min(b+pruneBlock, hi)
				*sub = sc.wideRows(chunk, end-b, c.Schema.Len())
				for k, i := range sc.miss[b:end] {
					c.expand(sub.Row(k), e.Vectors[i].F)
				}
				sc.scoreRows(m, sub, n, b, end)
			}
		})
		if err != nil {
			ok = false
		} else {
			for k, i := range miss {
				v := e.Vectors[i]
				v.Dist = CostDist{Mean: out[k], Spread: out[n+k], Lo: out[2*n+k], Hi: out[3*n+k]}
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
