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

// rowLog records the matrices a model is handed: how many calls at which
// widths, the most rows in one call, and the rows of all of them. Workers
// call concurrently.
type rowLog struct {
	mu      sync.Mutex
	widths  map[int]int
	maxRows int
	rows    int
}

func (l *rowLog) add(X *mlmodel.Matrix) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.widths == nil {
		l.widths = map[int]int{}
	}
	l.widths[X.Cols]++
	l.maxRows = max(l.maxRows, X.Rows)
	l.rows += X.Rows
}

// logged is inner with every matrix it scores recorded in log. It has no
// Specialize, so a run scores it through mlmodel.Specialize's expanding
// fallback.
type logged struct {
	inner core.CostModel
	log   *rowLog
}

func (m logged) Predict(x []float64) float64 { return m.inner.Predict(x) }

func (m logged) PredictBatchDist(X *mlmodel.Matrix, mean, spread, lo, hi []float64) {
	m.log.add(X)
	m.inner.PredictBatchDist(X, mean, spread, lo, hi)
}

// specLogged is logged with inner's own Specialize, whose model records into
// compact; cols counts the columns it was last asked for and asked how often.
type specLogged struct {
	logged
	compact *rowLog
	cols    *int
	asked   *int
}

func (m specLogged) Specialize(cols []int) mlmodel.Model {
	*m.cols, *m.asked = len(cols), *m.asked+1
	spec := m.inner.(interface{ Specialize([]int) mlmodel.Model }).Specialize(cols)
	return logged{spec, m.compact}
}

// kernelBlock is mlmodel's kernel block (blockRows): the most rows a model
// without Specialize is handed in one call.
const kernelBlock = 16

// TestOneScorerPerRun: a run binds one scorer, and every row it scores goes
// through it — pruning, the degraded beam's ranking, the final selection and
// the per-operator contributions alike. The run's model is an Ensemble of a
// member with its own Specialize and one without: the first is asked once and
// is handed only rows of the run's width, the second only Schema-width rows,
// at most one kernel block per call. Traced (so the contributions are
// scored) on two workers, with and without a forced degraded beam.
func TestOneScorerPerRun(t *testing.T) {
	gbm := fittedEnsemble(t, 3).(mlmodel.Ensemble).Models[0].(mlmodel.LogTarget).Inner
	l := workload.Pipeline(30, 1e9)
	for _, force := range []bool{false, true} {
		var native, nativeCompact, fallback rowLog
		var cols, asked int
		run := mlmodel.Ensemble{Models: []mlmodel.Model{
			mlmodel.LogTarget{Inner: specLogged{logged{gbm, &native}, &nativeCompact, &cols, &asked}},
			mlmodel.LogTarget{Inner: logged{gbm, &fallback}},
		}}
		ctx := newCtx(t, l, 3)
		ctx.Trace = obs.NewTrace("scorer")
		ctx.Workers = 2
		ctx.Budget.ForceDegraded = force
		res, err := ctx.Optimize(context.Background(), run)
		if err != nil {
			t.Fatalf("force=%v: Optimize: %v", force, err)
		}
		if res.Degraded != force {
			t.Fatalf("force=%v: the run is degraded=%v", force, res.Degraded)
		}
		wide := ctx.Schema.Len()
		if asked != 1 || cols == 0 || cols >= wide {
			t.Errorf("force=%v: Specialize asked %d times, last for %d of %d columns", force, asked, cols, wide)
		}
		if len(native.widths) != 0 {
			t.Errorf("force=%v: the specialising member got unspecialised calls: %v", force, native.widths)
		}
		if len(nativeCompact.widths) != 1 || nativeCompact.widths[cols] == 0 {
			t.Errorf("force=%v: the specialising member got rows of widths %v, want %d", force, nativeCompact.widths, cols)
		}
		if len(fallback.widths) != 1 || fallback.widths[wide] == 0 {
			t.Errorf("force=%v: the other member got rows of widths %v, want %d", force, fallback.widths, wide)
		}
		if fallback.maxRows > kernelBlock {
			t.Errorf("force=%v: the other member got %d rows in one call, at most %d", force, fallback.maxRows, kernelBlock)
		}
		// Each member scores every row of the run once: the ones the prunes,
		// the beam and the final selection ask for, and one per operator.
		want := res.Stats.ModelRows + len(res.Trace.OpContribs)
		if len(res.Trace.OpContribs) == 0 {
			t.Errorf("force=%v: no per-operator contributions", force)
		}
		for name, log := range map[string]*rowLog{"specialising": &nativeCompact, "other": &fallback} {
			if log.rows != want {
				t.Errorf("force=%v: the %s member scored %d rows, want %d", force, name, log.rows, want)
			}
		}
	}
}
