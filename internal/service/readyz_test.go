package service_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
)

func getReadyz(t *testing.T, url string) (int, service.ReadyzResponse) {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	var out service.ReadyzResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode readyz: %v", err)
	}
	return resp.StatusCode, out
}

// TestReadyz covers the readiness gate on a plain static-model server: ready
// by default (static models validate leniently), 503 while draining, and
// healthz stays 200 throughout — liveness is not readiness.
func TestReadyz(t *testing.T) {
	s := newServer(modelProvider(sumModel{}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, out := getReadyz(t, ts.URL)
	if code != http.StatusOK || !out.Ready || out.Reason != "" {
		t.Fatalf("fresh server readyz = %d %+v", code, out)
	}
	if out.ModelVersion != "unversioned" {
		t.Fatalf("static model readyz version = %q, want unversioned", out.ModelVersion)
	}

	s.SetReady(false)
	code, out = getReadyz(t, ts.URL)
	if code != http.StatusServiceUnavailable || out.Ready || out.Reason != "draining" {
		t.Fatalf("draining readyz = %d %+v", code, out)
	}
	// Liveness is unaffected: the process still answers while it drains.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", resp.StatusCode)
	}

	s.SetReady(true)
	if code, out = getReadyz(t, ts.URL); code != http.StatusOK || !out.Ready {
		t.Fatalf("un-drained readyz = %d %+v", code, out)
	}
}
