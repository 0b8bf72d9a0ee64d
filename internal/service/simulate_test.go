package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/mlmodel"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/service"
)

// javaOnly is a model under which running everything on Java is free and
// every operator elsewhere costs 1 s: it always chooses the all-Java plan,
// the one platform of the simulated cluster with a memory limit (20 GB).
func javaOnly(t *testing.T) mlmodel.Model {
	t.Helper()
	sc, err := core.NewSchema(platform.Subset(3))
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	ws := make([]float64, sc.Len())
	for _, p := range sc.Platforms {
		if p != platform.Java {
			ws[sc.PlatOpsCell(sc.PlatIndex(p))] = 1
		}
	}
	return &mlmodel.Linear{Weights: ws}
}

// scanJSON is a source of card 100-byte tuples mapped into a sink. On Java,
// 1e9 tuples (100 GB through the map) run out of memory; 1e3 do not.
func scanJSON(t *testing.T, card float64) []byte {
	t.Helper()
	b := plan.NewBuilder(100)
	src := b.Source(platform.TextFileSource, "src", card)
	m := b.Add(platform.Map, "map", platform.Linear, 1, src)
	b.Add(platform.CollectionSink, "sink", platform.Linear, 1, m)
	data, err := plan.MarshalJSONPlan(b.MustBuild())
	if err != nil {
		t.Fatalf("MarshalJSONPlan: %v", err)
	}
	return data
}

// TestSimulateOOMReply: a ?simulate=1 request whose chosen plan runs out of
// memory is answered with its plan and the failure's label, alone and as a
// batch member beside members whose runs succeed. The failed run's runtime
// is +Inf, which JSON cannot encode; sent as simulatedRuntimeSec it used to
// turn the reply into an empty 200 and count an encode failure, and in a
// batch it blanked every member.
func TestSimulateOOMReply(t *testing.T) {
	s := newServer(modelProvider(javaOnly(t)))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	big, small := scanJSON(t, 1e9), scanJSON(t, 1e3)
	java := platform.Java.String()

	post := func(path string, body []byte, out any) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d (%.200s)", path, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: the 200 body does not decode: %v (%q)", path, err, raw)
		}
	}
	checkOOM := func(what string, r *service.OptimizeResponse) {
		t.Helper()
		if r == nil {
			t.Fatalf("%s: no plan", what)
		}
		if r.SimulatedLabel != "out-of-memory" || r.SimulatedRuntimeSec != 0 {
			t.Errorf("%s: simulated %q / %v s, want out-of-memory and no runtime", what, r.SimulatedLabel, r.SimulatedRuntimeSec)
		}
		for i, p := range r.Assignments {
			if p != java {
				t.Fatalf("%s: operator %d on %s; the stub model should have chosen all-%s", what, i, p, java)
			}
		}
	}

	var one service.OptimizeResponse
	post("/optimize?simulate=1", big, &one)
	checkOOM("single request", &one)

	body, err := json.Marshal(service.BatchRequest{Plans: []json.RawMessage{small, big, scanJSON(t, 2e3)}})
	if err != nil {
		t.Fatal(err)
	}
	var batch service.BatchResponse
	post("/optimize/batch?simulate=1&nocache=1", body, &batch)
	if len(batch.Results) != 3 || batch.Errors != 0 {
		t.Fatalf("batch: %d results, %d errors; want 3 and 0", len(batch.Results), batch.Errors)
	}
	checkOOM("batch member 1", batch.Results[1].Plan)
	for _, i := range []int{0, 2} {
		r := batch.Results[i].Plan
		if r == nil || len(r.Assignments) != 3 || r.SimulatedRuntimeSec <= 0 || r.SimulatedLabel == "" || r.SimulatedLabel == "out-of-memory" {
			t.Errorf("batch member %d beside the OOM one = %+v, want its plan and a completed run", i, r)
		}
	}

	c := s.Metrics().Snapshot().Counters
	if c["encode_failures_total"] != 0 || c["failures_total"] != 0 {
		t.Errorf("encode_failures_total %d, failures_total %d; want 0 and 0", c["encode_failures_total"], c["failures_total"])
	}
	// Only the completed runs are feedback: a failed run has no runtime label.
	if c["feedback_samples_total"] != 2 {
		t.Errorf("feedback_samples_total = %d, want the 2 completed runs", c["feedback_samples_total"])
	}
}
