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

// checkLedger reads /metricz and checks the identities the single accounting
// routine makes true by construction: shed requests are the series their
// outcome label says, and the plain request and failure counts are not kept
// beside serving_requests_total, which holds every counted request exactly
// once. It returns the counters for the caller's own expectations.
func checkLedger(t *testing.T, base string) map[string]int64 {
	t.Helper()
	var snap obs.Snapshot
	getJSON(t, base+"/metricz", &snap)
	c := snap.Counters
	if shed := servingSum(c, `outcome="shed"`); c["shed_total"] != shed {
		t.Errorf(`shed_total = %d, Σ{outcome="shed"} = %d`, c["shed_total"], shed)
	}
	for _, retired := range []string{"requests_total", "failures_total"} {
		if _, ok := c[retired]; ok {
			t.Errorf("%s is a copy of Σ serving_requests_total and must not come back", retired)
		}
	}
	return c
}

// servingFailed counts the requests serving_requests_total holds under an
// error outcome: neither ok nor shed.
func servingFailed(c map[string]int64) int64 {
	return servingSum(c) - servingSum(c, `outcome="ok"`) - servingSum(c, `outcome="shed"`)
}

// servingSum adds up the serving_requests_total series whose labels contain
// every one of parts (each `key="value"`).
func servingSum(c map[string]int64, parts ...string) int64 {
	var n int64
next:
	for name, v := range c {
		if !strings.HasPrefix(name, "serving_requests_total{") {
			continue
		}
		for _, part := range parts {
			if !strings.Contains(name, part) {
				continue next
			}
		}
		n += v
	}
	return n
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
	if servingSum(c) != 2 || servingFailed(c) != 1 {
		t.Errorf("requests = %d, failed = %d, want 2 and 1", servingSum(c), servingFailed(c))
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
// serving_requests_total series.
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
	if servingSum(c) != 3 || servingFailed(c) != 1 {
		t.Errorf("requests = %d, failed = %d, want 3, 1", servingSum(c), servingFailed(c))
	}
}

// brokenWriter is a client that hung up: headers are accepted, the body is
// not.
type brokenWriter struct{ hdr http.Header }

func (w brokenWriter) Header() http.Header     { return w.hdr }
func (brokenWriter) WriteHeader(int)           {}
func (brokenWriter) Write([]byte) (int, error) { return 0, errors.New("client went away") }

// TestLostResponseIsAFailure: a plan that was computed and counted, then
// could not be written, adds one encode failure and no second request.
func TestLostResponseIsAFailure(t *testing.T) {
	s, ts := newObsServer(t)
	req := httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(planJSON(t)))
	s.Handler().ServeHTTP(brokenWriter{hdr: http.Header{}}, req)

	c := checkLedger(t, ts.URL)
	if servingSum(c) != 1 || c["encode_failures_total"] != 1 {
		t.Errorf("requests = %d, encode_failures_total = %d, want 1 each", servingSum(c), c["encode_failures_total"])
	}
	if got := c[`serving_requests_total{endpoint="optimize",outcome="ok",cache="miss"}`]; got != 1 {
		t.Errorf("the computed plan is in %d ok series, want 1", got)
	}
}

// TestLostBatchReplyIsAFailure: a batch reply that could not be written is
// counted like a lost /optimize reply — one encode failure, and no second
// request beside the members already served.
func TestLostBatchReplyIsAFailure(t *testing.T) {
	s, ts := newObsServer(t)
	body := []byte(`{"plans":[` + string(planJSON(t)) + `]}`)
	req := httptest.NewRequest(http.MethodPost, "/optimize/batch", bytes.NewReader(body))
	s.Handler().ServeHTTP(brokenWriter{hdr: http.Header{}}, req)

	c := checkLedger(t, ts.URL)
	if servingSum(c) != 1 || c["encode_failures_total"] != 1 {
		t.Errorf("requests = %d, encode_failures_total = %d, want 1 each", servingSum(c), c["encode_failures_total"])
	}
	if got := c[`serving_requests_total{endpoint="batch",outcome="ok",cache="miss"}`]; got != 1 {
		t.Errorf("the computed member is in %d ok series, want 1", got)
	}
}
