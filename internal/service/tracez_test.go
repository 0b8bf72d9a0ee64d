package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/workload"
)

// newTracedServer is newTestServer with a tracer retaining every request.
func newTracedServer() (*service.Server, *httptest.Server) {
	s := newServer(modelProvider(sumModel{}))
	s.Tracer = obs.NewTracer(8, 1, 0)
	return s, httptest.NewServer(s.Handler())
}

// optimizeAudit returns the pruning audit the optimize span of snap carries
// (nil when the trace has no optimize span).
func optimizeAudit(t *testing.T, snap obs.TraceSnapshot) *core.RunTrace {
	t.Helper()
	for _, s := range snap.Spans {
		if s.Name != "optimize" {
			continue
		}
		raw, err := json.Marshal(s.Detail)
		if err != nil {
			t.Fatal(err)
		}
		var rt core.RunTrace
		if err := json.Unmarshal(raw, &rt); err != nil {
			t.Fatalf("optimize span detail %s: %v", raw, err)
		}
		return &rt
	}
	return nil
}

func TestOptimizeTraceInline(t *testing.T) {
	_, ts := newTracedServer()
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/optimize?trace=1", "application/json", bytes.NewReader(planJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out service.OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("?trace=1 returned no inline trace")
	}
	snap := *out.Trace
	if snap.ID != out.RequestID || snap.Retained != "forced" {
		t.Errorf("trace ID %q retained %q, want %q forced", snap.ID, snap.Retained, out.RequestID)
	}
	audit := optimizeAudit(t, snap)
	if audit == nil || len(audit.Prunes) == 0 {
		t.Fatal("inline trace's optimize span carries no pruning audit records")
	}
	pruned := 0
	for _, rec := range audit.Prunes {
		if rec.VectorsOut > rec.VectorsIn {
			t.Errorf("step %d: vectors %d -> %d", rec.Step, rec.VectorsIn, rec.VectorsOut)
		}
		pruned += rec.VectorsIn - rec.VectorsOut
	}
	if pruned != out.Stats.Pruned {
		t.Errorf("inline audit accounts for %d pruned, stats say %d", pruned, out.Stats.Pruned)
	}
	names := map[string]bool{}
	for _, s := range snap.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"optimize", "vectorize", "enumerate", "split", "merge", "prune", "unvectorize"} {
		if !names[want] {
			t.Errorf("span %q missing from inline trace", want)
		}
	}
}

// TestTraceInlineIsTracez: the trace ?trace=1 inlines is byte for byte the
// document GET /tracez?id= serves for the same request, for an enumeration
// and for a cache hit.
func TestTraceInlineIsTracez(t *testing.T) {
	s, ts := newTracedServer()
	defer ts.Close()
	s.PlanCache = plancache.New(plancache.Config{Metrics: s.Metrics()})
	body := planJSON(t)
	for _, want := range []string{"miss", "hit"} {
		resp, err := http.Post(ts.URL+"/optimize?trace=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			RequestID string          `json:"requestId"`
			Trace     json.RawMessage `json:"trace"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Fatalf("X-Cache = %q, want %q", got, want)
		}
		tz, err := http.Get(ts.URL + "/tracez?id=" + out.RequestID)
		if err != nil {
			t.Fatal(err)
		}
		retained, _ := io.ReadAll(tz.Body)
		tz.Body.Close()
		if !bytes.Equal(out.Trace, bytes.TrimSpace(retained)) {
			t.Errorf("%s: ?trace=1 inlined\n%s\n/tracez serves\n%s", want, out.Trace, retained)
		}
	}
}

func TestOptimizeWithoutTraceParamOmitsInline(t *testing.T) {
	_, ts := newTracedServer()
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(planJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), `"trace"`) {
		t.Error("trace inlined without ?trace=1")
	}
}

func TestTracezListAndGet(t *testing.T) {
	_, ts := newTracedServer()
	defer ts.Close()

	// Two optimizations, sample rate 1: both retained.
	var lastID string
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(planJSON(t)))
		if err != nil {
			t.Fatal(err)
		}
		var out service.OptimizeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		lastID = out.RequestID
	}

	resp, err := http.Get(ts.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list service.TracezResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.SampleRate != 1 {
		t.Errorf("sampleRate=%v", list.SampleRate)
	}
	if list.Retained != 2 || len(list.Traces) != 2 {
		t.Fatalf("retained=%d traces=%d, want 2/2", list.Retained, len(list.Traces))
	}
	if list.Traces[0].ID != lastID {
		t.Errorf("newest-first ordering broken: got %s, want %s", list.Traces[0].ID, lastID)
	}

	one, err := http.Get(ts.URL + "/tracez?id=" + lastID)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Body.Close()
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(one.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != lastID || len(snap.Spans) == 0 {
		t.Errorf("single-trace lookup: id=%s spans=%d", snap.ID, len(snap.Spans))
	}

	missing, err := http.Get(ts.URL + "/tracez?id=nope")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace id: status %d, want 404", missing.StatusCode)
	}
}

// TestTraceInlineCarriesAudit: ?trace=1 inlines the finished trace, with the
// pruning audit as the optimize span's detail.
func TestTraceInlineCarriesAudit(t *testing.T) {
	ts := newTestServer()
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/optimize?trace=1", "application/json", bytes.NewReader(planJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out service.OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || out.Trace.DurationMs <= 0 {
		t.Fatal("?trace=1 returned no finished trace")
	}
	if audit := optimizeAudit(t, *out.Trace); audit == nil || len(audit.Prunes) == 0 {
		t.Fatal("?trace=1 returned no pruning audit")
	}
}

func TestMetriczPrometheus(t *testing.T) {
	_, ts := newTracedServer()
	defer ts.Close()
	if resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(planJSON(t))); err == nil {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metricz?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE plan_cache_misses_total counter\nplan_cache_misses_total 1\n",
		"# TYPE serving_latency_ms histogram\n",
		`serving_latency_ms_bucket{endpoint="optimize",le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// The default /metricz stays JSON.
	jresp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if ct := jresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default content type = %q", ct)
	}
}

func TestPprofGating(t *testing.T) {
	// Disabled by default: the profiling surface must 404.
	off := newTestServer()
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable while disabled: status %d", resp.StatusCode)
	}

	s := newServer(modelProvider(sumModel{}))
	s.Platforms = platform.Subset(2)
	s.Avail = platform.UniformAvailability(2)
	s.EnablePprof = true
	on := httptest.NewServer(s.Handler())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof not reachable when enabled: status %d", resp.StatusCode)
	}
}

// TestUnsampledShedTrace: on a tracer that samples nothing, a shed request's
// trace is still retained, as "degraded", but it was not detailed: its
// optimize span carries the run summary, the shed reason and the stage
// timings, and no audit.
func TestUnsampledShedTrace(t *testing.T) {
	gm := newGateModel()
	s := newServer(modelProvider(gm))
	s.Tracer = obs.NewTracer(8, 0, 0)
	// One slot, and shedAt = ceil(0.01·3) = 1: the request that queues
	// behind the slot holder is shed.
	s.Admission = &service.Admission{MaxConcurrent: 1, MaxQueue: 3, ShedFraction: 0.01}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := planJSON(t)

	holder := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/optimize?nocache=1", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		holder <- err
	}()
	<-gm.entered
	var out service.OptimizeResponse
	shed := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/optimize?nocache=1", "application/json", bytes.NewReader(body))
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
		}
		shed <- err
	}()
	for s.Metrics().Gauge("admission_queue_depth").Load() < 1 {
		time.Sleep(time.Millisecond)
	}
	close(gm.gate)
	for _, c := range []chan error{holder, shed} {
		if err := <-c; err != nil {
			t.Fatal(err)
		}
	}
	if out.DegradeReason != core.ShedReason {
		t.Fatalf("queued request: degradeReason %q, want %q", out.DegradeReason, core.ShedReason)
	}
	snap := getTrace(t, ts.URL, out.TraceID)
	if snap.Retained != "degraded" {
		t.Errorf("shed trace retained as %q, want degraded", snap.Retained)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "optimize" || snap.Spans[0].Detail != nil {
		t.Fatalf("shed trace spans = %+v, want one optimize span without an audit", snap.Spans)
	}
	attrs := snap.Spans[0].Attrs
	for _, k := range []string{"ops", "modelRows", "degraded", "degradeReason", "pruneMs", "inferMs"} {
		if _, ok := attrs[k]; !ok {
			t.Errorf("shed trace's optimize span lacks %q: %v", k, attrs)
		}
	}
	if attrs["degradeReason"] != core.ShedReason {
		t.Errorf("degradeReason attribute %v", attrs["degradeReason"])
	}
}

// TestForcedTraceDetailed: on a tracer that samples nothing, every way of
// forcing a trace still records it in full — ?trace=1 inline, a sampled
// traceparent, and a ?trace=1 batch on /tracez — with every enumeration's
// audit, per-operator contributions included.
func TestForcedTraceDetailed(t *testing.T) {
	s := newServer(modelProvider(sumModel{}))
	s.Tracer = obs.NewTracer(8, 0, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	detailed := func(how string, snap obs.TraceSnapshot, enumerations int) {
		t.Helper()
		if snap.Retained != "forced" {
			t.Errorf("%s: retained as %q, want forced", how, snap.Retained)
		}
		var n int
		for _, sp := range snap.Spans {
			if sp.Name != "optimize" {
				continue
			}
			n++
			raw, err := json.Marshal(sp.Detail)
			if err != nil {
				t.Fatal(err)
			}
			var rt core.RunTrace
			if err := json.Unmarshal(raw, &rt); err != nil || len(rt.Prunes) == 0 || len(rt.OpContribs) == 0 {
				t.Errorf("%s: optimize span %d carries no full audit: %.200s", how, sp.ID, raw)
			}
		}
		if n != enumerations {
			t.Errorf("%s: %d optimize spans, want %d", how, n, enumerations)
		}
	}

	var inline service.OptimizeResponse
	postTraced(t, ts.URL+"/optimize?trace=1&nocache=1", "", planJSON(t), &inline)
	if inline.Trace == nil {
		t.Fatal("?trace=1 inlined no trace")
	}
	detailed("?trace=1", *inline.Trace, 1)

	var tp service.OptimizeResponse
	postTraced(t, ts.URL+"/optimize?nocache=1", tpHeaderA, planJSON(t), &tp)
	detailed("traceparent -01", getTrace(t, ts.URL, tpTraceA), 1)

	other, err := plan.MarshalJSONPlan(workload.Pipeline(8, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	breq, err := json.Marshal(service.BatchRequest{Plans: []json.RawMessage{planJSON(t), other}})
	if err != nil {
		t.Fatal(err)
	}
	var bresp service.BatchResponse
	postTraced(t, ts.URL+"/optimize/batch?trace=1&nocache=1", "", breq, &bresp)
	detailed("?trace=1 batch", getTrace(t, ts.URL, bresp.TraceID), 2)
}
