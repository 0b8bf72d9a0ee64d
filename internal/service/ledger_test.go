package service_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// checkLedger reads /metricz and /statz and checks the identities the single
// accounting routine makes true by construction: every counted request is in
// exactly one serving_requests_total series, shed and failed requests are the
// series their outcome label says, and /statz is the same counters under
// other names. It returns the counters for the caller's own expectations.
func checkLedger(t *testing.T, base string) map[string]int64 {
	t.Helper()
	var snap obs.Snapshot
	getJSON(t, base+"/metricz", &snap)
	c := snap.Counters
	var served, shed, failed int64
	for name, v := range c {
		if !strings.HasPrefix(name, "serving_requests_total{") {
			continue
		}
		served += v
		switch {
		case strings.Contains(name, `outcome="shed"`):
			shed += v
		case !strings.Contains(name, `outcome="ok"`):
			failed += v
		}
	}
	if c["requests_total"] != served {
		t.Errorf("requests_total = %d, Σ serving_requests_total = %d", c["requests_total"], served)
	}
	if c["shed_total"] != shed {
		t.Errorf(`shed_total = %d, Σ{outcome="shed"} = %d`, c["shed_total"], shed)
	}
	if want := failed + c["encode_failures_total"]; c["failures_total"] != want {
		t.Errorf("failures_total = %d, Σ{outcome ∉ ok, shed} + encode_failures_total = %d", c["failures_total"], want)
	}

	var statz map[string]any
	getJSON(t, base+"/statz", &statz)
	for key, name := range map[string]string{
		"requests":         "requests_total",
		"failures":         "failures_total",
		"deadlineExceeded": "deadline_exceeded_total",
		"degraded":         "degraded_total",
		"shed":             "shed_total",
		"rejected":         "admission_rejected_total",
	} {
		if got := int64(statz[key].(float64)); got != c[name] {
			t.Errorf("/statz %s = %d, %s = %d", key, got, name, c[name])
		}
	}
	if got, want := statz["avgMs"].(float64), snap.Histograms["optimize_ms"].Avg; got != want {
		t.Errorf("/statz avgMs = %g, optimize_ms avg = %g", got, want)
	}
	return c
}

// TestAdminErrorsAreNotOptimizeRequests: an admin endpoint's error reply is
// not an optimize request. One good and one malformed /optimize plus three
// failed admin calls count two requests and one failure, and /statz's
// lastError names the malformed plan, not the admin call that came after it.
func TestAdminErrorsAreNotOptimizeRequests(t *testing.T) {
	_, ts := newObsServer(t)

	postPlan(t, ts.URL+"/optimize", planJSON(t))
	resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed plan: status %d, want 400", resp.StatusCode)
	}
	for path, want := range map[string]int{
		"/tracez?id=nope":  http.StatusNotFound,
		"/peercache?fp=zz": http.StatusBadRequest,
		"/cachez/purge":    http.StatusMethodNotAllowed,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	c := checkLedger(t, ts.URL)
	if c["requests_total"] != 2 || c["failures_total"] != 1 {
		t.Errorf("requests_total = %d, failures_total = %d, want 2 and 1", c["requests_total"], c["failures_total"])
	}
	if got := c[`serving_requests_total{endpoint="optimize",outcome="400",cache="none"}`]; got != 1 {
		t.Errorf("the malformed plan is in %d serving_requests_total series, want 1", got)
	}
	var statz map[string]any
	getJSON(t, ts.URL+"/statz", &statz)
	if last, _ := statz["lastError"].(string); !strings.Contains(last, "decoding JSON plan") {
		t.Errorf("/statz lastError = %q, want the malformed plan's error", last)
	}
}

// TestUnparseableBatchMemberIsCounted: a batch member that does not parse is
// a response like any other — one request, one failure, one
// serving_requests_total series — next to the batch's own member-error count.
func TestUnparseableBatchMemberIsCounted(t *testing.T) {
	_, ts := newObsServer(t)

	good := json.RawMessage(planJSON(t))
	body, err := json.Marshal(map[string]any{"plans": []json.RawMessage{good, json.RawMessage(`{"operators": 7}`), good}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/optimize/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}

	c := checkLedger(t, ts.URL)
	if got := c[`serving_requests_total{endpoint="batch",outcome="400",cache="none"}`]; got != 1 {
		t.Errorf(`serving_requests_total{endpoint="batch",outcome="400"} = %d, want 1`, got)
	}
	if c["batch_member_errors_total"] != 1 || c["requests_total"] != 3 || c["failures_total"] != 1 {
		t.Errorf("batch_member_errors_total = %d, requests_total = %d, failures_total = %d, want 1, 3, 1",
			c["batch_member_errors_total"], c["requests_total"], c["failures_total"])
	}
}

// brokenWriter is a client that hung up: headers are accepted, the body is
// not.
type brokenWriter struct{ hdr http.Header }

func (w brokenWriter) Header() http.Header     { return w.hdr }
func (brokenWriter) WriteHeader(int)           {}
func (brokenWriter) Write([]byte) (int, error) { return 0, errors.New("client went away") }

// TestLostResponseIsAFailure: a plan that was computed and counted, then
// could not be written, adds one failure and no second request.
func TestLostResponseIsAFailure(t *testing.T) {
	s, ts := newObsServer(t)
	req := httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(planJSON(t)))
	s.Handler().ServeHTTP(brokenWriter{hdr: http.Header{}}, req)

	c := checkLedger(t, ts.URL)
	if c["requests_total"] != 1 || c["failures_total"] != 1 || c["encode_failures_total"] != 1 {
		t.Errorf("requests_total = %d, failures_total = %d, encode_failures_total = %d, want 1 each",
			c["requests_total"], c["failures_total"], c["encode_failures_total"])
	}
	if got := c[`serving_requests_total{endpoint="optimize",outcome="ok",cache="miss"}`]; got != 1 {
		t.Errorf("the computed plan is in %d ok series, want 1", got)
	}
}
