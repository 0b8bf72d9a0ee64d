package core_test

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/vecops"
	"repro/internal/workload"
)

// This file is the risk-aware selection property suite for the
// distributional prediction contract:
//
//   - λ=0 is provably the status quo: a context with an explicit zero Risk
//     produces byte-identical plans, Counters() and PruneRecord JSON to the
//     default context across the random-DAG corpus, every model family, and
//     Workers ∈ {1,2,8} — and the marshalled audit contains none of the new
//     interval fields (they are omitempty and must stay zero at λ=0).
//   - λ>0 stays deterministic: the risk-aware path is bit-identical across
//     Workers ∈ {1,2,4,8}.
//   - λ>0 changes selection: on a committed workload with a model whose
//     uncertainty varies, a risk-averse run picks a different plan than the
//     point-estimate run, with overlapping-interval survivors recorded in
//     the pruning audit (Stats.IntervalKept > 0).

// riskRun runs one traced optimization under the given Risk and worker count
// and fingerprints it.
func riskRun(t *testing.T, l *plan.Logical, m core.CostModel, risk core.Risk, workers int) detRun {
	t.Helper()
	ctx := newCtx(t, l, 3)
	ctx.Workers = workers
	ctx.Risk = risk
	ctx.Trace = obs.NewTrace("risk")
	res, err := ctx.Optimize(context.Background(), m)
	if err != nil {
		t.Fatalf("Optimize (λ=%g, workers=%d): %v", risk.Lambda, workers, err)
	}
	assign := make([]byte, len(res.Execution.Assign))
	for i, p := range res.Execution.Assign {
		assign[i] = byte(p)
	}
	raw, err := json.Marshal(res.Trace.Prunes)
	if err != nil {
		t.Fatalf("marshal audit: %v", err)
	}
	return detRun{
		assign:    assign,
		predicted: res.Predicted,
		counters:  res.Stats.Counters(),
		prunes:    string(raw),
	}
}

// TestRiskLambdaZeroParity pins that λ=0 reproduces today's optimizer
// byte-for-byte: for the random-DAG corpus, all six model families and
// Workers ∈ {1,2,8}, an explicit zero Risk is indistinguishable from the
// default context — plan bytes, Counters(), and the JSON-marshalled
// PruneRecords all match, and the audit JSON carries no interval fields.
func TestRiskLambdaZeroParity(t *testing.T) {
	cases := []struct {
		name string
		nOps int
		seed int64
	}{
		{"dag20", 20, 101},
		{"dag33", 33, 211},
		{"dag47", 47, 307},
		{"dag60", 60, 401},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, cs := range cases {
		cs := cs
		t.Run(cs.name, func(t *testing.T) {
			l := workload.RandomDAG(cs.nOps, 1e8, cs.seed)
			probe := newCtx(t, l, 3)
			families := fitFamilies(t, probe.Schema.Len(), cs.seed+7)
			for _, fam := range []string{"tree", "forest", "gbm", "linear", "mlp", "ensemble"} {
				fam := fam
				m := families[fam]
				t.Run(fam, func(t *testing.T) {
					t.Parallel()
					for _, workers := range []int{1, 2, 8} {
						base := runDeterministic(t, l, m, workers)
						zero := riskRun(t, l, m, core.Risk{}, workers)
						if string(zero.assign) != string(base.assign) {
							t.Errorf("workers=%d: λ=0 plan bytes diverge from default context", workers)
						}
						if zero.predicted != base.predicted {
							t.Errorf("workers=%d: λ=0 predicted cost %g != %g", workers, zero.predicted, base.predicted)
						}
						if zero.counters != base.counters {
							t.Errorf("workers=%d: λ=0 counters diverge\nbase: %+v\nλ=0:  %+v", workers, base.counters, zero.counters)
						}
						if zero.prunes != base.prunes {
							t.Errorf("workers=%d: λ=0 pruning audit diverges from default context", workers)
						}
						for _, field := range []string{`"intervalKept"`, `"survivorLo"`, `"lo"`, `"hi"`} {
							if strings.Contains(zero.prunes, field) {
								t.Errorf("workers=%d: λ=0 audit JSON leaks interval field %q", workers, field)
							}
						}
					}
				})
			}
		})
	}
}

// TestRiskLambdaZeroInterval checks the post-hoc interval on point-estimate
// runs: even at λ=0 the Result reports a PredictedDist whose mean is exactly
// the point prediction and whose interval brackets it, without perturbing
// the enumeration counters (pinned by TestRiskLambdaZeroParity above).
func TestRiskLambdaZeroInterval(t *testing.T) {
	l := workload.RandomDAG(24, 1e8, 131)
	probe := newCtx(t, l, 3)
	families := fitFamilies(t, probe.Schema.Len(), 137)
	for _, fam := range []string{"forest", "gbm", "linear"} {
		ctx := newCtx(t, l, 3)
		res, err := ctx.Optimize(context.Background(), families[fam])
		if err != nil {
			t.Fatalf("%s: Optimize: %v", fam, err)
		}
		d := res.PredictedDist
		if d.Mean != res.Predicted {
			t.Errorf("%s: PredictedDist.Mean %g != Predicted %g", fam, d.Mean, res.Predicted)
		}
		if d.Spread < 0 || math.IsNaN(d.Spread) {
			t.Errorf("%s: invalid spread %g", fam, d.Spread)
		}
		if d.Lo > d.Hi {
			t.Errorf("%s: interval inverted [%g, %g]", fam, d.Lo, d.Hi)
		}
		if res.Risk.Lambda != 0 {
			t.Errorf("%s: λ=0 run reports Risk.Lambda %g", fam, res.Risk.Lambda)
		}
	}
}

// riskyModel is a deterministic structural cost model with wildly varying
// uncertainty: the mean is nearly flat across plans (so predictive intervals
// overlap heavily and overlap pruning keeps near-ties), while the spread is a
// strong pseudo-random function of the feature vector. Point-estimate
// selection chases the tiny mean differences; risk-averse selection chases
// low spread — so λ>0 must flip the chosen plan.
type riskyModel struct{}

func (riskyModel) hash(f []float64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range f {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

func (m riskyModel) dist(f []float64) (mean, spread float64) {
	h := m.hash(f)
	mean = 100 + float64(h%1024)/1e4
	spread = 5 + 20*float64((h>>10)%1024)/1024
	return mean, spread
}

func (m riskyModel) Predict(f []float64) float64 {
	mean, _ := m.dist(f)
	return mean
}

func (m riskyModel) PredictBatchDist(X *vecops.Matrix, mean, spread, lo, hi []float64) {
	for i := 0; i < X.Rows; i++ {
		mu, s := m.dist(X.Row(i))
		mean[i] = mu
		if spread != nil {
			spread[i], lo[i], hi[i] = s, mu-1.645*s, mu+1.645*s
		}
	}
}

// TestRiskLambdaChangesSelection is the headline acceptance test: with a
// model whose uncertainty varies across plans, λ>0 selects a different plan
// than λ=0 on a committed workload, and the risk-aware run's audit records
// overlapping-interval survivors (Stats.IntervalKept > 0, PruneRecords with
// IntervalKept counts).
func TestRiskLambdaChangesSelection(t *testing.T) {
	l := workload.RandomDAG(16, 1e8, 59)
	m := riskyModel{}

	point := riskRun(t, l, m, core.Risk{}, 1)
	risky := riskRun(t, l, m, core.Risk{Lambda: 1, KeepOverlap: true}, 1)

	if string(point.assign) == string(risky.assign) {
		t.Fatalf("λ=1 selected the same plan as λ=0: %v", point.assign)
	}
	if risky.counters.IntervalKept == 0 {
		t.Fatalf("risk-aware run kept no overlapping-interval near-ties; counters: %+v", risky.counters)
	}
	if !strings.Contains(risky.prunes, `"intervalKept"`) {
		t.Errorf("risk-aware audit JSON records no intervalKept survivors")
	}

	// The risk-aware score is mean + λ·spread; the reported point estimate
	// is the mean, so the interval must surface on the result.
	ctx := newCtx(t, l, 3)
	ctx.Risk = core.Risk{Lambda: 1, KeepOverlap: true}
	res, err := ctx.Optimize(context.Background(), m)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	d := res.PredictedDist
	if d.Spread <= 0 {
		t.Errorf("risk-aware result has no spread: %+v", d)
	}
	if d.Lo >= d.Hi || d.Mean < d.Lo || d.Mean > d.Hi {
		t.Errorf("risk-aware interval malformed: %+v", d)
	}
	ex, err := res.Explain()
	if err == nil {
		if ex.RiskLambda != 1 {
			t.Errorf("Explain RiskLambda = %g, want 1", ex.RiskLambda)
		}
		if ex.PredictedSpread <= 0 {
			t.Errorf("Explain reports no spread: %+v", ex)
		}
	}
}

// TestRiskDeterminism extends the determinism property to the risk-aware
// path: λ=0.5 with overlap pruning must be bit-identical across
// Workers ∈ {1,2,4,8} — plan bytes, Counters() (including IntervalKept) and
// the pruning audit trail.
func TestRiskDeterminism(t *testing.T) {
	cases := []struct {
		name string
		nOps int
		seed int64
	}{
		{"dag20", 20, 101},
		{"dag33", 33, 211},
	}
	risk := core.Risk{Lambda: 0.5, KeepOverlap: true}
	for _, cs := range cases {
		cs := cs
		t.Run(cs.name, func(t *testing.T) {
			l := workload.RandomDAG(cs.nOps, 1e8, cs.seed)
			probe := newCtx(t, l, 3)
			families := fitFamilies(t, probe.Schema.Len(), cs.seed+7)
			for _, fam := range []string{"forest", "gbm", "ensemble"} {
				fam := fam
				m := families[fam]
				t.Run(fam, func(t *testing.T) {
					t.Parallel()
					serial := riskRun(t, l, m, risk, 1)
					for _, workers := range []int{2, 4, 8} {
						par := riskRun(t, l, m, risk, workers)
						if string(par.assign) != string(serial.assign) {
							t.Errorf("workers=%d: λ=0.5 plan bytes diverge", workers)
						}
						if par.predicted != serial.predicted {
							t.Errorf("workers=%d: λ=0.5 predicted %g != %g", workers, par.predicted, serial.predicted)
						}
						if par.counters != serial.counters {
							t.Errorf("workers=%d: λ=0.5 counters diverge\nserial: %+v\npar:    %+v", workers, serial.counters, par.counters)
						}
						if par.prunes != serial.prunes {
							t.Errorf("workers=%d: λ=0.5 audit trail diverges", workers)
						}
					}
				})
			}
		})
	}
}

// TestRiskScoreMonotone sanity-checks the selection score: raising λ never
// lowers the chosen plan's risk-adjusted score, and the λ>0 winner minimizes
// mean + λ·spread among the λ-run's own candidates (its score is within the
// run's reported prediction interval arithmetic).
func TestRiskScoreMonotone(t *testing.T) {
	l := workload.RandomDAG(16, 1e8, 59)
	m := riskyModel{}
	var prev float64
	for i, lambda := range []float64{0, 0.5, 1, 2} {
		ctx := newCtx(t, l, 3)
		if lambda != 0 {
			ctx.Risk = core.Risk{Lambda: lambda, KeepOverlap: true}
		}
		res, err := ctx.Optimize(context.Background(), m)
		if err != nil {
			t.Fatalf("λ=%g: %v", lambda, err)
		}
		score := res.PredictedDist.Mean + lambda*res.PredictedDist.Spread
		if i > 0 && score < prev-1e-9 {
			t.Errorf("λ=%g: risk-adjusted score %g dropped below λ-smaller score %g", lambda, score, prev)
		}
		prev = score
	}
}
