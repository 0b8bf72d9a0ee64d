package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/mlmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/registry"
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

// modelProvider serves m as the one, unversioned model of a test server.
func modelProvider(m mlmodel.Model) *registry.Provider {
	p, err := registry.NewProvider(&registry.Artifact{Model: m})
	if err != nil {
		panic(err)
	}
	return p
}

// newServer wires a test server the way roboptd does: every required layer —
// plan cache, admission, tracer, SLO, a discarding request log, the simulator
// and a feedback buffer — with roboptd's settings, serving p over three
// uniformly available platforms. Tests set or replace fields before Handler.
func newServer(p *registry.Provider) *service.Server {
	s := &service.Server{
		Provider:  p,
		Feedback:  registry.NewFeedback(registry.DefaultFeedbackCap),
		Platforms: platform.Subset(3),
		Avail:     platform.UniformAvailability(3),
		Cluster:   simulator.Default(),
		Tracer:    obs.NewTracer(obs.DefaultTraceCap, 0.1, time.Second),
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
		SLO:       obs.NewSLO(500, 0.99),
		Admission: &service.Admission{ShedFraction: service.DefaultShedFraction},
	}
	s.PlanCache = plancache.New(plancache.Config{Metrics: s.Metrics()})
	return s
}

func newTestServer() *httptest.Server {
	return httptest.NewServer(newServer(modelProvider(sumModel{})).Handler())
}

// TestHandlerRequiresEveryLayer: Handler refuses a server missing a required
// layer, naming the field, before it serves anything.
func TestHandlerRequiresEveryLayer(t *testing.T) {
	for _, name := range []string{"Provider", "PlanCache", "Admission", "Tracer", "SLO", "Logger", "Cluster", "Feedback"} {
		s := newServer(modelProvider(sumModel{}))
		reflect.ValueOf(s).Elem().FieldByName(name).SetZero()
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "Server."+name+" ") {
					t.Errorf("without %s: Handler panicked with %q, want the field named", name, msg)
				}
			}()
			s.Handler()
		}()
	}
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

// TestOptimizeRejectsEmptyPlan: a plan with no operators is refused by the
// decoder, a 400 before admission, not a 422 from the enumerator.
func TestOptimizeRejectsEmptyPlan(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(`{"operators":[]}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty plan: status %d, want 400", resp.StatusCode)
	}
	var snap obs.Snapshot
	getJSON(t, ts.URL+"/metricz", &snap)
	if n := snap.Counters["admission_offered_total"]; n != 0 {
		t.Fatalf("admission_offered_total = %d, want 0: the empty plan reached admission", n)
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

	c := checkLedger(t, ts.URL)
	if got := servingSum(c); got != 2 {
		t.Errorf("Σ serving_requests_total = %d, want 2", got)
	}
	if got := servingFailed(c); got != 1 {
		t.Errorf("failed requests = %d, want 1", got)
	}
}
