package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/mlmodel"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/simulator"
	"repro/internal/workload"
)

// sumModel is a cheap deterministic oracle for handler tests.
type sumModel struct{}

func (sumModel) Predict(f []float64) float64 {
	s := 0.0
	for i, v := range f {
		s += v * float64(i%5)
	}
	if s < 0 {
		return 0
	}
	return s
}

func (m sumModel) PredictBatchDist(X *mlmodel.Matrix, mean, spread, lo, hi []float64) {
	pointKernel(m.Predict, X, mean, spread, lo, hi)
}

// pointKernel is the kernel of a point-only fake: predict per row, and zero
// spread with lo = hi = mean when asked.
func pointKernel(predict func([]float64) float64, X *mlmodel.Matrix, mean, spread, lo, hi []float64) {
	for i := 0; i < X.Rows; i++ {
		mean[i] = predict(X.Row(i))
		if spread != nil {
			spread[i], lo[i], hi[i] = 0, mean[i], mean[i]
		}
	}
}

func newTestServer() *httptest.Server {
	s := &service.Server{
		Model:     sumModel{},
		Platforms: platform.Subset(3),
		Avail:     platform.UniformAvailability(3),
		Cluster:   simulator.Default(),
	}
	return httptest.NewServer(s.Handler())
}

func planJSON(t *testing.T) []byte {
	t.Helper()
	data, err := plan.MarshalJSONPlan(workload.RunningExample())
	if err != nil {
		t.Fatalf("MarshalJSONPlan: %v", err)
	}
	return data
}

func TestOptimizeEndpoint(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/optimize?simulate=1", "application/json", bytes.NewReader(planJSON(t)))
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
	if len(out.Assignments) != 9 {
		t.Fatalf("assignments = %d, want 9", len(out.Assignments))
	}
	for _, a := range out.Assignments {
		if _, err := platform.ByName(a); err != nil {
			t.Errorf("bad platform name %q", a)
		}
	}
	if out.Stats.VectorsCreated == 0 {
		t.Error("stats not populated")
	}
	if out.SimulatedLabel == "" {
		t.Error("simulate=1 did not fill the simulated runtime")
	}
}

func TestOptimizeRejectsBadInput(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage accepted: status %d", resp.StatusCode)
	}

	get, err := http.Get(ts.URL + "/optimize")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET accepted: status %d", get.StatusCode)
	}
}

func TestHealthAndStats(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()

	h, err := http.Get(ts.URL + "/healthz")
	if err != nil || h.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, h)
	}
	h.Body.Close()

	// One good and one bad request, then check the counters.
	good, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(planJSON(t)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	good.Body.Close()
	bad, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader("x"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	bad.Body.Close()

	st, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatalf("statz: %v", err)
	}
	defer st.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatalf("decode statz: %v", err)
	}
	if stats["requests"].(float64) != 2 {
		t.Errorf("requests = %v, want 2", stats["requests"])
	}
	if stats["failures"].(float64) != 1 {
		t.Errorf("failures = %v, want 1", stats["failures"])
	}
}
