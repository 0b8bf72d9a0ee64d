package fleet_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/registry"
)

// fakeReplica serves canned /readyz and /metricz bodies — the scraper's
// contract, without a full optimizer behind it.
func fakeReplica(t *testing.T, readyz, metricz string) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(readyz))
	})
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(metricz))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

const healthyMetrics = `{
	"counters": {
		"serving_requests_total{endpoint=\"optimize\",outcome=\"ok\",cache=\"hit\"}": 30,
		"serving_requests_total{endpoint=\"optimize\",outcome=\"ok\",cache=\"miss\"}": 59,
		"serving_requests_total{endpoint=\"batch\",outcome=\"ok\",cache=\"dedup\"}": 5,
		"serving_requests_total{endpoint=\"optimize\",outcome=\"shed\",cache=\"miss\"}": 5,
		"serving_requests_total{endpoint=\"optimize\",outcome=\"400\",cache=\"none\"}": 1,
		"encode_failures_total": 1,
		"plan_cache_hits_total": 30, "plan_cache_misses_total": 70,
		"shed_total": 5
	},
	"gauges": {
		"admission_queue_depth": 3,
		"slo_breached": 0,
		"slo_burn_rate{window=\"1m0s\"}": 0.5, "slo_burn_rate{window=\"5m0s\"}": 0.25
	}
}`

func TestScrapeReplica(t *testing.T) {
	addr := fakeReplica(t,
		`{"ready": true, "modelVersion": "v7"}`, healthyMetrics)
	st := fleet.ScrapeReplica(context.Background(), http.DefaultClient,
		registry.ReplicaInfo{ID: "r1", Addr: addr})
	if st.Err != "" {
		t.Fatalf("scrape error: %s", st.Err)
	}
	if !st.Ready || st.ModelVersion != "v7" {
		t.Errorf("ready=%v version=%q, want ready v7", st.Ready, st.ModelVersion)
	}
	if st.Requests != 100 || st.Failures != 2 || st.Shed != 5 {
		t.Errorf("traffic = %+v", st)
	}
	if st.CacheHitRate != 0.3 {
		t.Errorf("cacheHitRate = %v, want 0.3", st.CacheHitRate)
	}
	if st.ShedRate != 0.05 {
		t.Errorf("shedRate = %v, want 0.05", st.ShedRate)
	}
	if st.QueueDepth != 3 {
		t.Errorf("queueDepth = %v, want 3", st.QueueDepth)
	}
	if st.Breached {
		t.Error("breached on a 0 slo_breached gauge")
	}
	if st.BurnRates["1m0s"] != 0.5 || st.BurnRates["5m0s"] != 0.25 {
		t.Errorf("burnRates = %v", st.BurnRates)
	}
}

func TestScrapeUnreachableReplica(t *testing.T) {
	st := fleet.ScrapeReplica(context.Background(), http.DefaultClient,
		registry.ReplicaInfo{ID: "down", Addr: "127.0.0.1:1"})
	if st.Err == "" {
		t.Fatal("unreachable replica scraped without error")
	}
	if st.Ready || st.Requests != 0 {
		t.Errorf("unreachable row carries data: %+v", st)
	}
}

// TestScrapeDrainingReplica: /readyz answers 503 with a JSON body while
// draining; the scraper must read the body, not fail on the status.
func TestScrapeDrainingReplica(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"ready": false, "reason": "draining", "modelVersion": "v7"}`))
	})
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"counters": {}, "gauges": {}}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	st := fleet.ScrapeReplica(context.Background(), http.DefaultClient,
		registry.ReplicaInfo{ID: "d", Addr: strings.TrimPrefix(ts.URL, "http://")})
	if st.Err != "" {
		t.Fatalf("draining replica scraped as error: %s", st.Err)
	}
	if st.Ready || st.ReadyReason != "draining" {
		t.Errorf("ready=%v reason=%q, want draining", st.Ready, st.ReadyReason)
	}
}

func TestAggregate(t *testing.T) {
	statuses := []fleet.ReplicaStatus{
		{
			ID: "a", Ready: true, ModelVersion: "v1",
			Requests: 100, Failures: 2, CacheHits: 30, CacheMisses: 70, Shed: 10,
			BurnRates: map[string]float64{"1m0s": 0.5},
		},
		{
			ID: "b", Ready: true, ModelVersion: "v2",
			Requests: 300, CacheHits: 270, CacheMisses: 30,
			BurnRates: map[string]float64{"1m0s": 2.5, "30m0s": 1.1},
			Breached:  true,
		},
		{ID: "c", Err: "readyz: connection refused"},
	}
	r := fleet.Aggregate(statuses)
	if r.Replicas != 3 || r.Ready != 2 || r.Unreachable != 1 {
		t.Fatalf("rollup = %+v", r)
	}
	if r.ModelVersions["v1"] != 1 || r.ModelVersions["v2"] != 1 {
		t.Errorf("modelVersions = %v, want a split fleet", r.ModelVersions)
	}
	if r.Requests != 400 || r.Failures != 2 {
		t.Errorf("traffic = %d/%d, want 400/2", r.Requests, r.Failures)
	}
	// Traffic-weighted, not per-replica averaged: (30+270)/(100+300).
	if r.CacheHitRate != 0.75 {
		t.Errorf("cacheHitRate = %v, want 0.75", r.CacheHitRate)
	}
	if r.ShedRate != 0.025 {
		t.Errorf("shedRate = %v, want 10/400", r.ShedRate)
	}
	if r.MaxBurnRate != 2.5 || r.MaxBurnWindow != "1m0s" {
		t.Errorf("maxBurn = %v@%s, want 2.5@1m0s", r.MaxBurnRate, r.MaxBurnWindow)
	}
	if r.Breached != 1 {
		t.Errorf("breached = %d, want 1", r.Breached)
	}
}

// TestAggregateBurnTie: two windows tied at the maximum resolve to the
// shorter one on every call, not to whichever map iteration reaches first.
func TestAggregateBurnTie(t *testing.T) {
	statuses := []fleet.ReplicaStatus{{ID: "a", BurnRates: map[string]float64{"1m0s": 2, "5m0s": 2}}}
	for i := 0; i < 100; i++ {
		if r := fleet.Aggregate(statuses); r.MaxBurnRate != 2 || r.MaxBurnWindow != "1m0s" {
			t.Fatalf("call %d: maxBurn = %v@%s, want 2@1m0s", i, r.MaxBurnRate, r.MaxBurnWindow)
		}
	}
	if w, b := fleet.WorstBurn(map[string]float64{"30m0s": 0, "5m0s": 0, "1m0s": 0}); w != "1m0s" || b != 0 {
		t.Errorf("quiet replica: worst burn %v@%s, want 0@1m0s", b, w)
	}
}

func TestAggregateEmpty(t *testing.T) {
	r := fleet.Aggregate(nil)
	if r.Replicas != 0 || r.CacheHitRate != 0 || r.ModelVersions != nil {
		t.Fatalf("empty rollup = %+v", r)
	}
}

// TestCollect: discovery through the store, concurrent scrape, sorted rows.
func TestCollect(t *testing.T) {
	st, err := registry.OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	addrB := fakeReplica(t, `{"ready": true, "modelVersion": "v1"}`, healthyMetrics)
	addrA := fakeReplica(t, `{"ready": true, "modelVersion": "v1"}`, healthyMetrics)
	for id, addr := range map[string]string{"b": addrB, "a": addrA, "down": "127.0.0.1:1"} {
		if err := st.RegisterReplica(registry.ReplicaInfo{ID: id, Addr: addr}); err != nil {
			t.Fatalf("RegisterReplica(%s): %v", id, err)
		}
	}
	view, err := fleet.Collect(context.Background(), st, 0, nil)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if view.ScrapedAt.IsZero() {
		t.Error("view carries no scrape timestamp")
	}
	if view.Fleet.Replicas != 3 || view.Fleet.Ready != 2 || view.Fleet.Unreachable != 1 {
		t.Fatalf("rollup = %+v", view.Fleet)
	}
	ids := make([]string, len(view.Replicas))
	for i, r := range view.Replicas {
		ids[i] = r.ID
	}
	if ids[0] != "a" || ids[1] != "b" || ids[2] != "down" {
		t.Errorf("rows = %v, want sorted [a b down]", ids)
	}

	// The view is what obsctl -json prints; it must round-trip as JSON.
	raw, err := json.Marshal(view)
	if err != nil {
		t.Fatalf("marshal view: %v", err)
	}
	var back fleet.View
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal view: %v", err)
	}
	if back.Fleet.Replicas != 3 {
		t.Errorf("round-tripped rollup = %+v", back.Fleet)
	}
}
