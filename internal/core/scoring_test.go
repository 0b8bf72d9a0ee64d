package core_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/vecops"
	"repro/internal/workload"
)

// rowCounter wraps a cost model and counts the feature rows it is sent.
type rowCounter struct {
	core.CostModel
	rows *atomic.Int64
}

func (m rowCounter) PredictBatchDist(X *vecops.Matrix, mean, spread, lo, hi []float64) {
	m.rows.Add(int64(X.Rows))
	m.CostModel.PredictBatchDist(X, mean, spread, lo, hi)
}

// contestedLog wraps a pruner and checks every prune of a serial run against
// its own grouping of the enumeration (the boundary operators' platforms): the
// model must be sent exactly the vectors that share
// their group with another — merged rows are new, so none is scored yet.
type contestedLog struct {
	t     *testing.T
	name  string
	inner core.Pruner
	rows  *atomic.Int64
	// sent and uncontested total the rows the prunes sent and the vectors
	// they left unscored.
	sent, uncontested int
}

func (l *contestedLog) Prune(ctx context.Context, c *core.Context, e *core.Enumeration, st *core.Stats) {
	keys := make([]string, len(e.Vectors))
	size := map[string]int{}
	for i, v := range e.Vectors {
		var k []byte
		for _, id := range e.Boundary {
			k = append(k, v.Assign[id])
		}
		keys[i] = string(k)
		size[keys[i]]++
	}
	want := 0
	for _, k := range keys {
		if size[k] >= 2 {
			want++
		}
	}
	before := l.rows.Load()
	l.inner.Prune(ctx, c, e, st)
	got := int(l.rows.Load() - before)
	if got != want {
		l.t.Errorf("%s: scope %v: prune sent %d rows, %d of %d vectors share their group", l.name, e.Scope, got, want, len(keys))
	}
	l.sent += got
	l.uncontested += len(keys) - want
}

// TestOnlyContestedVectorsAreScored: a prune sends the model exactly the
// vectors it compares, under both Risks (near-ties kept or not), and the final
// selection sends only the
// survivors no prune scored. Every row the model sees is counted in
// Stats.ModelRows, and the runs do leave vectors unscored.
func TestOnlyContestedVectorsAreScored(t *testing.T) {
	plans := map[string]*plan.Logical{
		"pipeline": workload.Pipeline(16, 1e8),
		"jointree": workload.JoinTree(3, 1e8),
		"dag":      workload.RandomDAG(24, 1e8, 211),
	}
	for name, l := range plans {
		for _, risk := range []core.Risk{{}, {Lambda: 0.5, KeepOverlap: true}} {
			ctx := newCtx(t, l, 3)
			ctx.Risk = risk
			rows := new(atomic.Int64)
			m := rowCounter{newAdditiveDistModel(ctx.Schema, 5), rows}
			log := &contestedLog{t: t, name: fmt.Sprintf("%s risk=%+v", name, risk), inner: core.BoundaryPruner{}, rows: rows}
			res, err := ctx.OptimizeOpts(context.Background(), m, log, core.OrderPriority)
			if err != nil {
				t.Fatalf("%s: %v", log.name, err)
			}
			if got := int(rows.Load()); got != res.Stats.ModelRows {
				t.Errorf("%s: model saw %d rows, Stats.ModelRows %d", log.name, got, res.Stats.ModelRows)
			}
			if final := res.Stats.ModelRows - log.sent; final > log.uncontested {
				t.Errorf("%s: final selection sent %d rows, prunes left %d vectors unscored", log.name, final, log.uncontested)
			}
			if name != "pipeline" && log.uncontested == 0 {
				t.Errorf("%s: every vector shared its group; the test exercises nothing", log.name)
			}
		}
	}
}

// TestDegradedStepsScoreEveryVector: a degraded step ranks its product by
// predicted cost, so it scores every vector it merged — from the first step
// under ForceDegraded, from the trip on under a vector cap. The run is
// traced, and each step's record carries the rows sent on its behalf.
func TestDegradedStepsScoreEveryVector(t *testing.T) {
	l := workload.RandomDAG(24, 1e8, 211)
	for _, budget := range []core.Budget{{ForceDegraded: true}, {MaxVectors: 400}} {
		ctx := newCtx(t, l, 3)
		ctx.Budget = budget
		ctx.Trace = obs.NewTrace("degraded")
		rows := new(atomic.Int64)
		m := rowCounter{newAdditiveDistModel(ctx.Schema, 5), rows}
		res, err := ctx.OptimizeOpts(context.Background(), m, core.BoundaryPruner{}, core.OrderPriority)
		if err != nil {
			t.Fatalf("budget %+v: %v", budget, err)
		}
		degraded := 0
		for _, rec := range res.Trace.Prunes {
			if !rec.Degraded {
				continue
			}
			degraded++
			if rec.ModelRows != rec.VectorsIn {
				t.Errorf("budget %+v: degraded step %d sent %d of its %d vectors",
					budget, rec.Step, rec.ModelRows, rec.VectorsIn)
			}
		}
		if degraded == 0 || (degraded == len(res.Trace.Prunes)) != budget.ForceDegraded {
			t.Errorf("budget %+v: %d of %d steps degraded", budget, degraded, len(res.Trace.Prunes))
		}
		// A traced run also scores one row per operator for the audit's
		// per-operator contributions, outside the enumeration's counts.
		if got := int(rows.Load()); got != res.Stats.ModelRows+l.NumOps() {
			t.Errorf("budget %+v: model saw %d rows, Stats.ModelRows %d", budget, got, res.Stats.ModelRows)
		}
	}
}
