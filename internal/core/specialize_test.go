package core_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mlmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/workload"
)

// servedShapes caches fittedEnsemble's models by platform count.
var servedShapes sync.Map

// fittedEnsemble is a small fitted model of the served shape, an Ensemble of
// two LogTarget(GBM) members, over the Schema of nPlats platforms. Its rows
// are plan vectors of random DAGs under random assignments, labelled by the
// latency experiments' scorer, so its splits read the cells plan vectors set
// and any plan leaves some of them dead.
func fittedEnsemble(t testing.TB, nPlats int) core.CostModel {
	t.Helper()
	if m, ok := servedShapes.Load(nPlats); ok {
		return m.(core.CostModel)
	}
	plats := platform.Subset(nPlats)
	label := experiments.NewHarness().LatencyModel(plats)
	var members []mlmodel.Model
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := &mlmodel.Dataset{}
		for p := 0; p < 12; p++ {
			l := workload.RandomDAG(6+rng.Intn(10), 1e8, seed*100+int64(p))
			ctx, err := core.NewContext(l, plats, platform.UniformAvailability(nPlats))
			if err != nil {
				t.Fatalf("NewContext: %v", err)
			}
			for a := 0; a < 10; a++ {
				assign := make([]uint8, l.NumOps())
				for i := range assign {
					alts := ctx.Alternatives(plan.OpID(i))
					assign[i] = alts[rng.Intn(len(alts))]
				}
				v := ctx.VectorizeExecution(assign)
				ds.Append(v.F, label.Predict(v.F))
			}
		}
		m, err := mlmodel.LogTargetTrainer{Inner: mlmodel.GBMTrainer{Config: mlmodel.GBMConfig{Trees: 20, MaxDepth: 4, MinLeaf: 2, Seed: seed}}}.Fit(ds)
		if err != nil {
			t.Fatalf("fitting the ensemble: %v", err)
		}
		members = append(members, m)
	}
	m, _ := servedShapes.LoadOrStore(nPlats, core.CostModel(mlmodel.Ensemble{Models: members}))
	return m.(core.CostModel)
}

// rowLog records the matrices a model is handed: how many calls, at which
// widths, and the most rows in one call. Workers call concurrently.
type rowLog struct {
	mu      sync.Mutex
	widths  map[int]int
	maxRows int
}

func (l *rowLog) add(X *mlmodel.Matrix) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.widths == nil {
		l.widths = map[int]int{}
	}
	l.widths[X.Cols]++
	l.maxRows = max(l.maxRows, X.Rows)
}

// logged is inner with every matrix it scores recorded in log.
type logged struct {
	inner core.CostModel
	log   *rowLog
}

func (m logged) Predict(x []float64) float64 { return m.inner.Predict(x) }

func (m logged) PredictBatchDist(X *mlmodel.Matrix, mean, spread, lo, hi []float64) {
	m.log.add(X)
	m.inner.PredictBatchDist(X, mean, spread, lo, hi)
}

// specLogged is logged with inner's Specialize, whose model records into
// compact.
type specLogged struct {
	logged
	compact *rowLog
}

func (m specLogged) Specialize(cols []int) mlmodel.Model {
	spec := m.inner.(interface{ Specialize([]int) mlmodel.Model }).Specialize(cols)
	return logged{spec, m.compact}
}

// TestPrunerEnsembleIsNotTheRunModel: models are told apart by identity, never
// by ==, which panics on two Ensemble values. A BoundaryPruner holding an
// Ensemble other than the run's gets rows expanded to the Schema, at most one
// pruning block per call, while the run's model (GetOptimal, the per-operator
// contributions) reads compact rows; a pruner holding the run's Ensemble
// itself reads compact rows too.
func TestPrunerEnsembleIsNotTheRunModel(t *testing.T) {
	fitted := fittedEnsemble(t, 3)
	l := workload.Pipeline(30, 1e9)
	for _, samePruner := range []bool{false, true} {
		var runWide, runCompact, foreign rowLog
		run := mlmodel.Ensemble{Models: []mlmodel.Model{specLogged{logged{fitted, &runWide}, &runCompact}}}
		var pruner core.CostModel = mlmodel.Ensemble{Models: []mlmodel.Model{logged{fitted, &foreign}}}
		if samePruner {
			pruner = run
		}
		ctx := newCtx(t, l, 3)
		ctx.Trace = obs.NewTrace("pruner")
		ctx.Workers = 2
		if _, err := ctx.OptimizeOpts(context.Background(), run, core.BoundaryPruner{Model: pruner}, core.OrderPriority); err != nil {
			t.Fatalf("OptimizeOpts: %v", err)
		}
		wide := ctx.Schema.Len()
		if len(runWide.widths) != 0 {
			t.Errorf("samePruner=%v: the run's model got expanded rows: %v", samePruner, runWide.widths)
		}
		if len(runCompact.widths) != 1 || runCompact.widths[wide] != 0 {
			t.Errorf("samePruner=%v: the run's model got rows of widths %v, want one width below %d", samePruner, runCompact.widths, wide)
		}
		if samePruner {
			if len(foreign.widths) != 0 {
				t.Errorf("the foreign model scored rows in a run it was not part of")
			}
			continue
		}
		if len(foreign.widths) != 1 || foreign.widths[wide] == 0 {
			t.Errorf("the pruner's ensemble got rows of widths %v, want %d", foreign.widths, wide)
		}
		if foreign.maxRows > core.PruneBlock {
			t.Errorf("the pruner's ensemble got %d expanded rows in one call, at most %d", foreign.maxRows, core.PruneBlock)
		}
	}
}
