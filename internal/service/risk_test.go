package service_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/mlmodel"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/simulator"
)

// spreadModel is a deterministic dist-capable oracle: nearly flat means (so
// predictive intervals overlap and near-ties survive pruning) with strongly
// varying spread.
type spreadModel struct{}

func (spreadModel) hash(f []float64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range f {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

func (m spreadModel) dist(f []float64) (mean, spread float64) {
	h := m.hash(f)
	return 100 + float64(h%1024)/1e4, 5 + 20*float64((h>>10)%1024)/1024
}

func (m spreadModel) Predict(f []float64) float64 {
	mean, _ := m.dist(f)
	return mean
}

func (m spreadModel) PredictBatchDist(X *mlmodel.Matrix, mean, spread, lo, hi []float64) {
	for i := 0; i < X.Rows; i++ {
		mu, s := m.dist(X.Row(i))
		mean[i] = mu
		if spread != nil {
			spread[i], lo[i], hi[i] = s, mu-1.645*s, mu+1.645*s
		}
	}
}

func newRiskServer(cache *plancache.Cache) *httptest.Server {
	s := &service.Server{
		Model:     spreadModel{},
		Platforms: platform.Subset(3),
		Avail:     platform.UniformAvailability(3),
		Cluster:   simulator.Default(),
		PlanCache: cache,
	}
	return httptest.NewServer(s.Handler())
}

func optimizeOnce(t *testing.T, url string) (service.OptimizeResponse, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(planJSON(t)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out service.OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out, resp.Header.Get("X-Cache")
}

// TestOptimizeRiskLambda checks the risk-aware request path end to end: the
// response surfaces the predictive interval and the effective λ, the interval
// brackets the point estimate, and overlap pruning reports kept near-ties.
func TestOptimizeRiskLambda(t *testing.T) {
	ts := newRiskServer(nil)
	defer ts.Close()

	out, _ := optimizeOnce(t, ts.URL+"/optimize?risk_lambda=0.5")
	if out.RiskLambda != 0.5 {
		t.Errorf("riskLambda = %g, want 0.5", out.RiskLambda)
	}
	if out.PredictedSpreadSec <= 0 {
		t.Errorf("risk-aware response has no spread: %+v", out)
	}
	if out.PredictedLoSec > out.PredictedRuntimeSec || out.PredictedHiSec < out.PredictedRuntimeSec {
		t.Errorf("interval [%g, %g] does not bracket prediction %g",
			out.PredictedLoSec, out.PredictedHiSec, out.PredictedRuntimeSec)
	}
	if out.Stats.IntervalKept == 0 {
		t.Errorf("overlapping-interval model kept no near-ties: %+v", out.Stats)
	}

	// Point-estimate requests keep the legacy response shape: no λ echo.
	out, _ = optimizeOnce(t, ts.URL+"/optimize")
	if out.RiskLambda != 0 {
		t.Errorf("λ=0 response echoes riskLambda %g", out.RiskLambda)
	}
	if out.Stats.IntervalKept != 0 {
		t.Errorf("λ=0 run reports IntervalKept %d", out.Stats.IntervalKept)
	}
}

// TestOptimizeRiskLambdaValidation rejects malformed λ values with 400.
func TestOptimizeRiskLambdaValidation(t *testing.T) {
	ts := newRiskServer(nil)
	defer ts.Close()
	for _, bad := range []string{"abc", "-1", "NaN", "Inf"} {
		resp, err := http.Post(ts.URL+"/optimize?risk_lambda="+bad, "application/json", bytes.NewReader(planJSON(t)))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("risk_lambda=%q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestOptimizeRiskLambdaCache checks the λ-banded cache behaviour: requests
// in different λ bands never share entries, a repeat in the same band hits,
// and the hit response echoes the λ the cached plan was optimized under.
func TestOptimizeRiskLambdaCache(t *testing.T) {
	ts := newRiskServer(plancache.New(plancache.Config{}))
	defer ts.Close()

	_, how := optimizeOnce(t, ts.URL+"/optimize?risk_lambda=0.5")
	if how != "miss" {
		t.Fatalf("first λ=0.5 request: X-Cache %q, want miss", how)
	}
	// A λ=0 request must not be served the risk-averse plan.
	_, how = optimizeOnce(t, ts.URL+"/optimize")
	if how != "miss" {
		t.Fatalf("λ=0 request hit the λ=0.5 band: X-Cache %q", how)
	}
	// Same band (0.55 quantizes to the 0.5 band): hit, echoing the cached λ.
	out, how := optimizeOnce(t, ts.URL+"/optimize?risk_lambda=0.55")
	if how != "hit" {
		t.Fatalf("λ=0.55 request: X-Cache %q, want hit in the 0.5 band", how)
	}
	if out.RiskLambda != 0.5 {
		t.Errorf("cache hit echoes λ=%g, want the cached plan's 0.5", out.RiskLambda)
	}
	if out.PredictedSpreadSec <= 0 {
		t.Errorf("cache hit lost the predictive interval: %+v", out)
	}
}
