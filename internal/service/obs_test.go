package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/service"
)

// Well-formed W3C trace-context values for propagation tests.
const (
	tpTraceA  = "0af7651916cd43dd8448eb211c80319c"
	tpTraceB  = "4bf92f3577b34da6a3ce929d0e0e4736"
	tpSpan    = "00f067aa0ba902b7"
	tpHeaderA = "00-" + tpTraceA + "-" + tpSpan + "-01"
	tpHeaderB = "00-" + tpTraceB + "-" + tpSpan + "-01"
)

// newObsServer is the full observability fixture: tracer retaining every
// request, plan cache, and an SLO tracker — the shape roboptd runs with.
func newObsServer(t *testing.T) (*service.Server, *httptest.Server) {
	t.Helper()
	s := newServer(modelProvider(sumModel{}))
	s.Tracer = obs.NewTracer(16, 1, 0)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postTraced sends one request with a traceparent header and decodes the
// response body into out.
func postTraced(t *testing.T, url, traceparent string, body []byte, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp
}

// getTrace fetches one retained trace by ID, failing the test on any
// non-200.
func getTrace(t *testing.T, base, id string) obs.TraceSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/tracez?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /tracez?id=%s: status %d", id, resp.StatusCode)
	}
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestTraceparentOptimize: a propagated W3C traceparent names the serving
// trace — the response echoes the header and carries the trace ID, and the
// trace is retrievable from /tracez by both the remote trace ID and the
// local request ID.
func TestTraceparentOptimize(t *testing.T) {
	_, ts := newObsServer(t)

	var out service.OptimizeResponse
	resp := postTraced(t, ts.URL+"/optimize", tpHeaderA, planJSON(t), &out)
	if got := resp.Header.Get("traceparent"); got != tpHeaderA {
		t.Errorf("traceparent echo = %q, want %q", got, tpHeaderA)
	}
	if out.TraceID != tpTraceA {
		t.Errorf("response traceId = %q, want %q", out.TraceID, tpTraceA)
	}
	if out.RequestID == "" || out.RequestID == tpTraceA {
		t.Errorf("request ID %q should stay a distinct local join key", out.RequestID)
	}

	snap := getTrace(t, ts.URL, tpTraceA)
	if snap.ID != tpTraceA || snap.RequestID != out.RequestID {
		t.Errorf("trace id=%q requestId=%q, want %q/%q", snap.ID, snap.RequestID, tpTraceA, out.RequestID)
	}
	names := map[string]bool{}
	for _, sp := range snap.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"optimize", "enumerate", "prune"} {
		if !names[want] {
			t.Errorf("span %q missing from propagated trace", want)
		}
	}

	// The local request ID resolves to the same trace (the join key against
	// logs and X-Request-Id).
	byReq := getTrace(t, ts.URL, out.RequestID)
	if byReq.ID != tpTraceA {
		t.Errorf("lookup by requestId resolved trace %q, want %q", byReq.ID, tpTraceA)
	}
}

// TestTraceparentMalformed: a bad header is ignored — no echo, local trace
// ID, request still served.
func TestTraceparentMalformed(t *testing.T) {
	_, ts := newObsServer(t)
	for _, bad := range []string{
		"00-zzzz-" + tpSpan + "-01",
		"00-" + tpTraceA + "-" + tpSpan,
		"01-" + tpTraceA + "-" + tpSpan + "-01",
		"00-00000000000000000000000000000000-" + tpSpan + "-01",
	} {
		var out service.OptimizeResponse
		resp := postTraced(t, ts.URL+"/optimize", bad, planJSON(t), &out)
		if got := resp.Header.Get("traceparent"); got != "" {
			t.Errorf("header %q: echoed %q, want no echo", bad, got)
		}
		if out.TraceID != out.RequestID {
			t.Errorf("header %q: traceId %q, want local request ID %q", bad, out.TraceID, out.RequestID)
		}
	}
}

// TestTraceparentForcesRetention: the sampled flag works like ?trace=1 — a
// tracer that samples nothing still retains the trace ("forced"), while an
// unsampled traceparent is subject to normal retention.
func TestTraceparentForcesRetention(t *testing.T) {
	s := newServer(modelProvider(sumModel{}))
	s.Tracer = obs.NewTracer(8, 0, 0) // sample rate 0: keep nothing voluntarily
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out service.OptimizeResponse
	postTraced(t, ts.URL+"/optimize", tpHeaderA, planJSON(t), &out)
	snap := getTrace(t, ts.URL, tpTraceA)
	if snap.Retained != "forced" {
		t.Errorf("sampled traceparent retained as %q, want forced", snap.Retained)
	}

	// flags 00: propagated but not sampled — the zero-sample tracer drops it.
	unsampled := "00-" + tpTraceB + "-" + tpSpan + "-00"
	postTraced(t, ts.URL+"/optimize", unsampled, planJSON(t), &out)
	if out.TraceID != tpTraceB {
		t.Fatalf("unsampled traceparent still names the trace: got %q", out.TraceID)
	}
	resp, err := http.Get(ts.URL + "/tracez?id=" + tpTraceB)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unsampled trace lookup: status %d, want 404", resp.StatusCode)
	}
}

// TestTraceparentBatch is the end-to-end propagation test: one traceparent
// covers a whole batch, whose fan-out (leader enumeration plus dedup
// members) lands in a single retained trace as member child spans of one
// batch root.
func TestTraceparentBatch(t *testing.T) {
	_, ts := newObsServer(t)

	p := planJSON(t)
	body, err := json.Marshal(service.BatchRequest{Plans: []json.RawMessage{p, p, p}})
	if err != nil {
		t.Fatal(err)
	}
	var bresp service.BatchResponse
	resp := postTraced(t, ts.URL+"/optimize/batch", tpHeaderB, body, &bresp)
	if got := resp.Header.Get("traceparent"); got != tpHeaderB {
		t.Errorf("batch traceparent echo = %q, want %q", got, tpHeaderB)
	}
	if bresp.TraceID != tpTraceB {
		t.Errorf("batch traceId = %q, want %q", bresp.TraceID, tpTraceB)
	}
	if bresp.Distinct != 1 || bresp.Deduped != 2 {
		t.Fatalf("distinct=%d deduped=%d, want 1/2", bresp.Distinct, bresp.Deduped)
	}
	for i, r := range bresp.Results {
		if r.Plan == nil {
			t.Fatalf("member %d failed: %s", i, r.Error)
		}
		if r.Plan.TraceID != tpTraceB {
			t.Errorf("member %d traceId = %q, want the shared %q", i, r.Plan.TraceID, tpTraceB)
		}
	}

	snap := getTrace(t, ts.URL, tpTraceB)
	if snap.RequestID != bresp.RequestID {
		t.Errorf("trace requestId = %q, want %q", snap.RequestID, bresp.RequestID)
	}
	var rootID = -1
	for _, sp := range snap.Spans {
		if sp.Name == "batch" {
			if sp.Parent != -1 {
				t.Errorf("batch root has parent %d", sp.Parent)
			}
			rootID = sp.ID
		}
	}
	if rootID < 0 {
		t.Fatal("no batch root span in the shared trace")
	}
	members := 0
	memberIDs := map[int]bool{}
	for _, sp := range snap.Spans {
		if sp.Name == "member" {
			members++
			memberIDs[sp.ID] = true
			if sp.Parent != rootID {
				t.Errorf("member span %d parented under %d, not the batch root %d", sp.ID, sp.Parent, rootID)
			}
			if sp.Attrs["requestId"] == nil {
				t.Errorf("member span %d carries no requestId attr", sp.ID)
			}
		}
	}
	if members != 3 {
		t.Fatalf("member spans = %d, want one per plan (3)", members)
	}
	// The leader's enumeration spans and the dedup members' cache spans all
	// nest under member spans — the fan-out reads as one tree.
	optimize, cache := 0, 0
	for _, sp := range snap.Spans {
		switch sp.Name {
		case "optimize":
			optimize++
			if !memberIDs[sp.Parent] {
				t.Errorf("optimize span parented under %d, not a member span", sp.Parent)
			}
		case "cache":
			cache++
			if !memberIDs[sp.Parent] {
				t.Errorf("cache span parented under %d, not a member span", sp.Parent)
			}
		}
	}
	if optimize != 1 || cache != 2 {
		t.Errorf("optimize spans=%d cache spans=%d, want 1 enumeration + 2 dedup lookups", optimize, cache)
	}
}

// TestCacheHitLinksOriginTrace: a cache hit's trace carries a link to the
// trace of the run that produced the cached plan, so the enumeration spans
// are one /tracez lookup away.
func TestCacheHitLinksOriginTrace(t *testing.T) {
	_, ts := newObsServer(t)
	body := planJSON(t)

	var miss service.OptimizeResponse
	postTraced(t, ts.URL+"/optimize", tpHeaderA, body, &miss)

	var hit service.OptimizeResponse
	resp := postTraced(t, ts.URL+"/optimize", tpHeaderB, body, &hit)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}

	snap := getTrace(t, ts.URL, tpTraceB)
	found := false
	for _, l := range snap.Links {
		if l.TraceID == tpTraceA && l.Reason == "cache-origin" {
			found = true
		}
	}
	if !found {
		t.Fatalf("cache-hit trace links = %+v, want cache-origin -> %s", snap.Links, tpTraceA)
	}
	// The link resolves: the origin trace holds the enumeration spans.
	origin := getTrace(t, ts.URL, tpTraceA)
	names := map[string]bool{}
	for _, sp := range origin.Spans {
		names[sp.Name] = true
	}
	if !names["enumerate"] {
		t.Error("linked origin trace has no enumeration spans")
	}
}

// TestSloz covers the SLO surface, the slo_* gauges of /metricz: the
// objective, the target, the burn verdict and one burn rate per rolling
// window, each window having seen the run's traffic. GET /sloz is gone.
func TestSloz(t *testing.T) {
	s, ts := newObsServer(t)
	for i := 0; i < 3; i++ {
		var out service.OptimizeResponse
		postTraced(t, ts.URL+"/optimize", "", planJSON(t), &out)
	}

	var snap obs.Snapshot
	getJSON(t, ts.URL+"/metricz", &snap)
	if snap.Gauges["slo_objective_ms"] != 500 || snap.Gauges["slo_target"] != 0.99 {
		t.Errorf("slo gauges = %v/%v, want 500/0.99",
			snap.Gauges["slo_objective_ms"], snap.Gauges["slo_target"])
	}
	if snap.Gauges["slo_breached"] != 0 {
		t.Errorf("slo_breached = %v on an all-good run, want 0", snap.Gauges["slo_breached"])
	}
	for _, w := range obs.DefaultSLOWindows {
		burn, ok := snap.Gauges[`slo_burn_rate{window="`+w.String()+`"}`]
		if !ok {
			t.Errorf("gauge slo_burn_rate{window=%q} missing", w)
		} else if burn != 0 {
			t.Errorf("window %s burn rate %v on an all-good run", w, burn)
		}
	}
	windows := s.SLO.Snapshot().Windows
	if len(windows) != len(obs.DefaultSLOWindows) {
		t.Fatalf("windows = %d, want %d", len(windows), len(obs.DefaultSLOWindows))
	}
	for _, w := range windows {
		if w.Total != 3 || w.Good != 3 {
			t.Errorf("window %s total=%d good=%d, want 3/3", w.Window, w.Total, w.Good)
		}
	}

	resp, err := http.Get(ts.URL + "/sloz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /sloz: status %d, want 404", resp.StatusCode)
	}
}

// TestSLOIgnoresPreAdmissionRejections: a call turned away before admission
// (405, 400, 413) and a batch member that does not parse are counted and timed
// like any response, but they say nothing about the service: a burst of
// malformed bodies leaves every SLO window where it was.
func TestSLOIgnoresPreAdmissionRejections(t *testing.T) {
	s, ts := newObsServer(t)
	var out service.OptimizeResponse
	postTraced(t, ts.URL+"/optimize", "", planJSON(t), &out)
	before := s.SLO.Snapshot()

	good := string(planJSON(t))
	for i := 0; i < 20; i++ {
		for _, req := range []struct{ path, body string }{
			{"/optimize", "{nope"},
			{"/optimize?risk_lambda=bogus", good},
			{"/optimize/batch", `{"plans": []}`},
		} {
			resp, err := http.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST %s: status %d, want 400", req.path, resp.StatusCode)
			}
		}
		if resp, err := http.Get(ts.URL + "/optimize"); err != nil {
			t.Fatal(err)
		} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /optimize: status %d, want 405", resp.StatusCode)
		}
	}
	// One unparseable member beside a good one: the good one is the batch's
	// only SLO event.
	resp, err := http.Post(ts.URL+"/optimize/batch", "application/json", strings.NewReader(`{"plans": [`+good+`, {"operators": 7}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for i, w := range s.SLO.Snapshot().Windows {
		if want := before.Windows[i].Total + 1; w.Total != want || w.Good != want {
			t.Errorf("window %s total=%d good=%d after the burst, want %d/%d", w.Window, w.Total, w.Good, want, want)
		}
	}
	c := checkLedger(t, ts.URL)
	if got := c[`serving_requests_total{endpoint="optimize",outcome="400",cache="none"}`]; got != 40 {
		t.Errorf(`serving_requests_total{endpoint="optimize",outcome="400"} = %d, want 40: rejections are still counted`, got)
	}
	if got := c[`serving_requests_total{endpoint="optimize",outcome="405",cache="none"}`]; got != 20 {
		t.Errorf(`serving_requests_total{endpoint="optimize",outcome="405"} = %d, want 20`, got)
	}
}

// TestServingMetricsLabeled: the labeled serving metrics partition by
// endpoint/outcome/cache, and retained traces surface as exemplars in the
// Prometheus exposition.
func TestServingMetricsLabeled(t *testing.T) {
	_, ts := newObsServer(t)
	body := planJSON(t)
	var out service.OptimizeResponse
	postTraced(t, ts.URL+"/optimize", tpHeaderA, body, &out) // miss
	postTraced(t, ts.URL+"/optimize", tpHeaderA, body, &out) // hit

	var snap obs.Snapshot
	getJSON(t, ts.URL+"/metricz", &snap)
	for key, want := range map[string]int64{
		`serving_requests_total{endpoint="optimize",outcome="ok",cache="miss"}`: 1,
		`serving_requests_total{endpoint="optimize",outcome="ok",cache="hit"}`:  1,
		`serving_model_requests_total{version="unversioned"}`:                   2,
	} {
		if got := snap.Counters[key]; got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}

	resp, err := http.Get(ts.URL + "/metricz?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`serving_requests_total{endpoint="optimize",outcome="ok",cache="miss"} 1`,
		`serving_latency_ms_bucket{endpoint="optimize",`,
		`# {trace_id="` + tpTraceA + `"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every exposed exemplar must resolve via /tracez.
	for _, line := range strings.Split(text, "\n") {
		i := strings.Index(line, `# {trace_id="`)
		if i < 0 {
			continue
		}
		id := line[i+len(`# {trace_id="`):]
		id = id[:strings.Index(id, `"`)]
		getTrace(t, ts.URL, id)
	}
}

// TestMetriczDropsEvictedExemplars: a latency bucket keeps its exemplar until
// another traced request lands in it, which can be long after the trace ring
// evicted that trace. /metricz must stop exposing the exemplar then, in both
// formats, so every exemplar it does expose resolves on /tracez.
func TestMetriczDropsEvictedExemplars(t *testing.T) {
	s, ts := newObsServer(t)
	body := planJSON(t)
	var out service.OptimizeResponse
	postTraced(t, ts.URL+"/optimize", tpHeaderA, body, &out)
	// One slow request of trace A: the only observation its bucket will see.
	s.Metrics().HistogramVec("serving_latency_ms", "endpoint").With("optimize").ObserveExemplar(60_000, tpTraceA)

	exposed := func() (ids []string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metricz?format=prometheus")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if _, id, ok := strings.Cut(line, `# {trace_id="`); ok {
				ids = append(ids, id[:strings.Index(id, `"`)])
			}
		}
		var snap obs.Snapshot
		getJSON(t, ts.URL+"/metricz", &snap)
		n := 0
		for _, h := range snap.Histograms {
			for _, b := range h.Le {
				if b.Exemplar != nil {
					n++
				}
			}
		}
		if n != len(ids) {
			t.Errorf("JSON snapshot exposes %d exemplars, the Prometheus exposition %d", n, len(ids))
		}
		return ids
	}
	if ids := exposed(); !slices.Contains(ids, tpTraceA) {
		t.Fatalf("trace A is retained but not an exemplar: %v", ids)
	}
	// Wrap the ring: every request is retained (sample rate 1), under its
	// own request ID.
	for i := 0; i <= s.Tracer.Cap(); i++ {
		postTraced(t, ts.URL+"/optimize", "", body, &out)
	}
	if s.Tracer.Get(tpTraceA) != nil {
		t.Fatalf("trace A survived %d newer traces in a %d-slot ring", s.Tracer.Cap()+1, s.Tracer.Cap())
	}
	ids := exposed()
	if len(ids) == 0 {
		t.Fatal("no exemplar left: the newer traces are retained and should be exposed")
	}
	for _, id := range ids {
		getTrace(t, ts.URL, id)
	}
}

// TestStatzObservability: /statz surfaces the tracer ring state, the
// admission configuration and the replica identity, and none of the request
// counts, which /metricz alone holds.
func TestStatzObservability(t *testing.T) {
	s := newServer(modelProvider(sumModel{}))
	s.Tracer = obs.NewTracer(8, 1, 0)
	s.ReplicaID = "r1"
	s.Admission = &service.Admission{MaxConcurrent: 2, MaxQueue: 4}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var out service.OptimizeResponse
	postTraced(t, ts.URL+"/optimize", "", planJSON(t), &out)

	var statz struct {
		ReplicaID string `json:"replicaId"`
		Admission struct {
			MaxConcurrent int `json:"maxConcurrent"`
			MaxQueue      int `json:"maxQueue"`
			ShedThreshold int `json:"shedThreshold"`
		} `json:"admission"`
		Tracer struct {
			Cap        int     `json:"cap"`
			Occupancy  int     `json:"occupancy"`
			Retained   int64   `json:"retained"`
			SampleRate float64 `json:"sampleRate"`
		} `json:"tracer"`
	}
	getJSON(t, ts.URL+"/statz", &statz)
	if statz.ReplicaID != "r1" {
		t.Errorf("replicaId = %q, want r1", statz.ReplicaID)
	}
	if statz.Admission.MaxConcurrent != 2 || statz.Admission.MaxQueue != 4 {
		t.Errorf("admission = %+v", statz.Admission)
	}
	if statz.Admission.ShedThreshold <= 0 {
		t.Errorf("shedThreshold = %d, want > 0", statz.Admission.ShedThreshold)
	}
	if statz.Tracer.Cap != 8 || statz.Tracer.SampleRate != 1 {
		t.Errorf("tracer = %+v", statz.Tracer)
	}
	if statz.Tracer.Retained != 1 || statz.Tracer.Occupancy != 1 {
		t.Errorf("tracer retained=%d occupancy=%d, want 1/1", statz.Tracer.Retained, statz.Tracer.Occupancy)
	}
	var keys map[string]any
	getJSON(t, ts.URL+"/statz", &keys)
	for _, k := range []string{"requests", "failures", "deadlineExceeded", "degraded", "shed", "rejected", "avgMs"} {
		if _, ok := keys[k]; ok {
			t.Errorf("/statz carries %q, a count /metricz already exports", k)
		}
	}
	if adm, _ := keys["admission"].(map[string]any); adm == nil {
		t.Error("/statz has no admission object")
	} else if _, ok := adm["queueDepth"]; ok {
		t.Error("/statz admission carries queueDepth, a copy of the admission_queue_depth gauge")
	}
}
