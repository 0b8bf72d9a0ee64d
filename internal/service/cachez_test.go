package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/service"
)

// newCachedServer is newServer with its plan cache configured by cfg.
func newCachedServer(cfg plancache.Config) (*service.Server, *httptest.Server) {
	s := newServer(modelProvider(sumModel{}))
	cfg.Metrics = s.Metrics()
	s.PlanCache = plancache.New(cfg)
	return s, httptest.NewServer(s.Handler())
}

// postPlan sends one optimize request and returns the response, its parsed
// body and the raw bytes.
func postPlan(t *testing.T, url string, body []byte) (*http.Response, service.OptimizeResponse, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d (%.200s)", url, resp.StatusCode, raw)
	}
	var out service.OptimizeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode: %v (%.200s)", err, raw)
	}
	return resp, out, raw
}

// planPayload strips the per-request fields from a raw optimize response,
// leaving exactly the plan content: assignments, conversions, model version
// and prediction. Two responses serving the same cached plan must agree on
// these bytes.
func planPayload(t *testing.T, raw []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for _, k := range []string{
		"requestId", "optimizationMs", "stats", "stageMs", "cachedAt",
		"servedModelVersion", "simulatedRuntimeSec", "simulatedLabel", "trace", "traceId",
	} {
		delete(m, k)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return out
}

func TestCacheMissThenHit(t *testing.T) {
	_, ts := newCachedServer(plancache.Config{})
	defer ts.Close()
	body := planJSON(t)

	resp1, out1, raw1 := postPlan(t, ts.URL+"/optimize", body)
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	if out1.CachedAt != "" || out1.ServedModelVersion != "" {
		t.Fatalf("miss carries cache fields: %+v", out1)
	}
	if out1.Stats.VectorsCreated == 0 {
		t.Fatal("miss ran no enumeration?")
	}

	resp2, out2, raw2 := postPlan(t, ts.URL+"/optimize", body)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	// The hit did zero enumeration work of its own.
	if out2.Stats.VectorsCreated != 0 || out2.Stats.ModelRows != 0 || out2.Stats.ModelBatches != 0 {
		t.Fatalf("hit reports enumeration work: %+v", out2.Stats)
	}
	if out2.CachedAt == "" {
		t.Fatal("hit missing cachedAt")
	}
	if _, err := time.Parse(time.RFC3339Nano, out2.CachedAt); err != nil {
		t.Fatalf("cachedAt %q is not RFC 3339: %v", out2.CachedAt, err)
	}
	if out2.ServedModelVersion != out2.ModelVersion {
		t.Fatalf("servedModelVersion %q != modelVersion %q", out2.ServedModelVersion, out2.ModelVersion)
	}
	// Byte-identical plan content between the uncached and cached paths.
	if p1, p2 := planPayload(t, raw1), planPayload(t, raw2); !bytes.Equal(p1, p2) {
		t.Fatalf("cached plan differs from the uncached one:\n%s\n%s", p1, p2)
	}

	// The same plan re-serialized with operators relabeled still hits: the
	// fingerprint is structural, not positional.
	var cz service.CachezResponse
	getJSON(t, ts.URL+"/cachez", &cz)
	stats, _ := json.Marshal(cz.Stats)
	var cs plancache.Stats
	if err := json.Unmarshal(stats, &cs); err != nil {
		t.Fatalf("cachez stats: %v", err)
	}
	if cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("cachez after miss+hit = %+v", cs)
	}
}

func TestCacheNocacheBypass(t *testing.T) {
	_, ts := newCachedServer(plancache.Config{})
	defer ts.Close()
	body := planJSON(t)
	for i := 0; i < 2; i++ {
		resp, out, _ := postPlan(t, ts.URL+"/optimize?nocache=1", body)
		if got := resp.Header.Get("X-Cache"); got != "" {
			t.Fatalf("nocache request %d got X-Cache %q", i, got)
		}
		if out.Stats.VectorsCreated == 0 {
			t.Fatalf("nocache request %d served from cache", i)
		}
	}
	// The bypass neither read nor populated the cache.
	resp, _, _ := postPlan(t, ts.URL+"/optimize", body)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first cached request after bypasses = %q, want miss", got)
	}
}

// TestCacheConcurrentIdentical fires concurrent identical requests against a
// slow model: they must all succeed with the same plan, and the cache must
// serve most of them without their own enumeration (collapsed onto the
// in-flight leader or hit after it published).
func TestCacheConcurrentIdentical(t *testing.T) {
	s := newServer(modelProvider(slowSumModel{d: 100 * time.Microsecond}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := planJSON(t)
	const n = 8
	var wg sync.WaitGroup
	how := make([]string, n)
	asg := make([]string, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d (%.200s)", resp.StatusCode, raw)
				return
			}
			var out service.OptimizeResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				errs <- err
				return
			}
			how[i] = resp.Header.Get("X-Cache")
			asg[i] = fmt.Sprint(out.Assignments)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := range how {
		counts[how[i]]++
		if asg[i] != asg[0] {
			t.Fatalf("request %d chose a different plan: %s vs %s", i, asg[i], asg[0])
		}
	}
	if counts["miss"]+counts["hit"]+counts["collapsed"] != n {
		t.Fatalf("unexpected X-Cache values: %v", counts)
	}
	if counts["hit"]+counts["collapsed"] == 0 {
		t.Fatalf("no request reused the in-flight enumeration: %v", counts)
	}
}

// TestCachePromoteInvalidates is the swap-correctness core: a model promote
// must flash-invalidate cached plans, so the next request re-optimizes under
// the new version instead of serving a stale hit.
func TestCachePromoteInvalidates(t *testing.T) {
	s, ts, _ := newLifecycleServer(t)
	defer ts.Close()
	cache := plancache.New(plancache.Config{Metrics: s.Metrics()})
	cache.Activate("v1")
	s.PlanCache = cache

	body := planJSON(t)
	_, out1, _ := postPlan(t, ts.URL+"/optimize", body)
	if out1.ModelVersion != "v1" {
		t.Fatalf("modelVersion = %q, want v1", out1.ModelVersion)
	}
	resp2, out2, _ := postPlan(t, ts.URL+"/optimize", body)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("pre-promote X-Cache = %q, want hit", got)
	}
	if out2.PredictedRuntimeSec != out1.PredictedRuntimeSec {
		t.Fatal("hit changed the prediction")
	}

	postJSON(t, ts.URL+"/modelz/promote?version=v2", http.StatusOK, nil)

	resp3, out3, _ := postPlan(t, ts.URL+"/optimize", body)
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("post-promote X-Cache = %q, want miss (stale hit!)", got)
	}
	if out3.ModelVersion != "v2" {
		t.Fatalf("post-promote modelVersion = %q, want v2", out3.ModelVersion)
	}
	// v2 predicts exactly 2x v1 on the same argmin plan.
	if out3.PredictedRuntimeSec != 2*out1.PredictedRuntimeSec {
		t.Fatalf("v2 prediction %v, want 2x v1's %v", out3.PredictedRuntimeSec, out1.PredictedRuntimeSec)
	}
	if out3.ServedModelVersion != "" {
		t.Fatal("fresh optimize carries servedModelVersion")
	}

	// Promoting back also invalidates: generation moves forward, the old
	// (fingerprint, v1) entry is stale even though the version string
	// matches again.
	resp4, _, _ := postPlan(t, ts.URL+"/optimize", body)
	if got := resp4.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("v2 warm request X-Cache = %q, want hit", got)
	}
	postJSON(t, ts.URL+"/modelz/promote?version=v1", http.StatusOK, nil)
	resp5, out5, _ := postPlan(t, ts.URL+"/optimize", body)
	if got := resp5.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("re-promote X-Cache = %q, want miss", got)
	}
	if out5.PredictedRuntimeSec != out1.PredictedRuntimeSec {
		t.Fatal("back on v1 the prediction must match the original")
	}
}

// TestCacheHitTrace: a cache hit's trace is a single "cache" span — no
// vectorize/enumerate/prune spans, because none of that ran.
func TestCacheHitTrace(t *testing.T) {
	s := newServer(modelProvider(sumModel{}))
	s.Tracer = obs.NewTracer(16, 1, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := planJSON(t)
	postPlan(t, ts.URL+"/optimize", body)
	resp, _, _ := postPlan(t, ts.URL+"/optimize?trace=1", body)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache = %q, want hit", got)
	}
	id := resp.Header.Get("X-Request-Id")

	var snap obs.TraceSnapshot
	getJSON(t, ts.URL+"/tracez?id="+id, &snap)
	if len(snap.Spans) != 1 {
		t.Fatalf("hit trace has %d spans, want 1: %+v", len(snap.Spans), snap.Spans)
	}
	sp := snap.Spans[0]
	if sp.Name != "cache" {
		t.Fatalf("span name = %q, want cache", sp.Name)
	}
	if sp.Attrs["result"] != "hit" {
		t.Fatalf("span attrs = %v", sp.Attrs)
	}
	// The miss trace, by contrast, recorded the full pipeline.
	var list service.TracezResponse
	getJSON(t, ts.URL+"/tracez", &list)
	found := false
	for _, tr := range list.Traces {
		for _, s := range tr.Spans {
			if s.Name == "enumerate" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no retained trace shows the miss's enumerate span")
	}
}

func TestCachezEndpoints(t *testing.T) {
	// Stats and purge.
	_, ts := newCachedServer(plancache.Config{})
	defer ts.Close()
	body := planJSON(t)
	postPlan(t, ts.URL+"/optimize", body)
	postPlan(t, ts.URL+"/optimize", body)

	var on service.CachezResponse
	getJSON(t, ts.URL+"/cachez", &on)
	if on.Stats == nil {
		t.Fatal("cachez reports no cache stats")
	}
	var purged service.PurgeResponse
	postJSON(t, ts.URL+"/cachez/purge", http.StatusOK, &purged)
	if purged.Purged != 1 {
		t.Fatalf("purged = %d, want 1", purged.Purged)
	}
	r3, _, _ := postPlan(t, ts.URL+"/optimize", body)
	if got := r3.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("post-purge X-Cache = %q, want miss", got)
	}

	// GET-only and POST-only method guards.
	if resp, err := http.Post(ts.URL+"/cachez", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /cachez: status %d", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/cachez/purge"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /cachez/purge: status %d", resp.StatusCode)
		}
	}

	// The plan_cache_* counters are in the metric registry (and therefore
	// in both /metricz formats).
	mz, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer mz.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(mz.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"plan_cache_hits_total", "plan_cache_misses_total", "plan_cache_evictions_total",
		"plan_cache_collapsed_total", "plan_cache_invalidations_total",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("metricz missing %s", name)
		}
	}
	if snap.Counters["plan_cache_hits_total"] != 1 || snap.Counters["plan_cache_misses_total"] != 2 {
		t.Errorf("plan_cache hit/miss counters = %d/%d, want 1/2",
			snap.Counters["plan_cache_hits_total"], snap.Counters["plan_cache_misses_total"])
	}
}

// variantPlan builds a small chain whose source cardinality decade varies, so
// each variant gets its own fingerprint.
func variantPlan(t *testing.T, decade int) []byte {
	t.Helper()
	b := plan.NewBuilder(100)
	card := 10.0
	for i := 0; i < decade; i++ {
		card *= 10
	}
	src := b.Source(platform.TextFileSource, "src", card)
	f := b.Add(platform.Filter, "f", platform.Logarithmic, 0.5, src)
	b.Add(platform.CollectionSink, "sink", platform.Logarithmic, 1, f)
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	data, err := plan.MarshalJSONPlan(l)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCacheSwapStress interleaves concurrent identical and distinct optimize
// requests with model promotes and asserts the cache-vs-swap invariant: no
// response ever pairs a cached plan with a model version that did not produce
// it. The scaled test models make that observable — under version vN the
// prediction is exactly N x the v1 prediction for the same plan, so a stale
// pairing shows up as a prediction/version mismatch. Run with -race this is
// also the concurrency certificate for the cache+provider integration.
func TestCacheSwapStress(t *testing.T) {
	s, ts, _ := newLifecycleServer(t)
	defer ts.Close()
	cache := plancache.New(plancache.Config{Metrics: s.Metrics()})
	cache.Activate("v1")
	s.PlanCache = cache

	// Base predictions per plan, measured uncached while v1 is active.
	plans := [][]byte{planJSON(t), variantPlan(t, 3), variantPlan(t, 5)}
	base := make([]float64, len(plans))
	for i, p := range plans {
		_, out, _ := postPlan(t, ts.URL+"/optimize?nocache=1", p)
		if out.ModelVersion != "v1" {
			t.Fatalf("setup: model version %q", out.ModelVersion)
		}
		base[i] = out.PredictedRuntimeSec
	}
	scale := map[string]float64{"v1": 1, "v2": 2}

	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters+1)

	// The promoter flips the active version while the workers hammer.
	stop := make(chan struct{})
	promoterDone := make(chan struct{})
	go func() {
		defer close(promoterDone)
		versions := []string{"v2", "v1"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(ts.URL+"/modelz/promote?version="+versions[i%2], "application/json", nil)
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("promote: status %d", resp.StatusCode)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				pi := (w + i) % len(plans)
				if w == 0 && i%10 == 5 {
					// An occasional purge keeps the admin path in the mix.
					resp, err := http.Post(ts.URL+"/cachez/purge", "application/json", nil)
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(plans[pi]))
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("optimize: status %d (%.120s)", resp.StatusCode, raw)
					continue
				}
				var out service.OptimizeResponse
				if err := json.Unmarshal(raw, &out); err != nil {
					errs <- err
					continue
				}
				sc, ok := scale[out.ModelVersion]
				if !ok {
					errs <- fmt.Errorf("unknown model version %q", out.ModelVersion)
					continue
				}
				// The invariant: the prediction must be exactly the one this
				// response's model version produces for this plan.
				if want := sc * base[pi]; out.PredictedRuntimeSec != want {
					errs <- fmt.Errorf("plan %d: version %s predicted %v, want %v — cached plan paired with the wrong model",
						pi, out.ModelVersion, out.PredictedRuntimeSec, want)
					continue
				}
				if out.ServedModelVersion != "" && out.ServedModelVersion != out.ModelVersion {
					errs <- fmt.Errorf("servedModelVersion %q != modelVersion %q",
						out.ServedModelVersion, out.ModelVersion)
				}
			}
		}(w)
	}

	wg.Wait()
	close(stop)
	<-promoterDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var cz service.CachezResponse
	getJSON(t, ts.URL+"/cachez", &cz)
	stats, _ := json.Marshal(cz.Stats)
	var cs plancache.Stats
	if err := json.Unmarshal(stats, &cs); err != nil {
		t.Fatal(err)
	}
	if cs.Hits+cs.Misses == 0 {
		t.Fatal("stress exercised no cache lookups")
	}
}
