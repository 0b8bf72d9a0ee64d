package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/simulator"
	"repro/internal/workload"
)

func marshalPlan(t *testing.T, l *plan.Logical) json.RawMessage {
	t.Helper()
	data, err := plan.MarshalJSONPlan(l)
	if err != nil {
		t.Fatalf("marshal plan: %v", err)
	}
	return data
}

func postBatch(t *testing.T, url string, plans []json.RawMessage) (*http.Response, service.BatchResponse, []byte) {
	t.Helper()
	body, err := json.Marshal(service.BatchRequest{Plans: plans})
	if err != nil {
		t.Fatalf("marshal batch: %v", err)
	}
	resp, err := http.Post(url+"/optimize/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /optimize/batch: %v", err)
	}
	defer resp.Body.Close()
	raw := new(bytes.Buffer)
	raw.ReadFrom(resp.Body)
	var out service.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw.Bytes(), &out); err != nil {
			t.Fatalf("decode batch response: %v (%.200s)", err, raw.Bytes())
		}
	}
	return resp, out, raw.Bytes()
}

// TestBatchEndpoint covers the dedup-before-enumeration contract: duplicate
// members ride their leader's plan, a second identical batch is served from
// the cache sweep, and member failures are isolated to their slot.
func TestBatchEndpoint(t *testing.T) {
	s := &service.Server{
		Model:           sumModel{},
		Platforms:       platform.Subset(3),
		Avail:           platform.UniformAvailability(3),
		Cluster:         simulator.Default(),
		MaxBatchMembers: 4,
	}
	s.PlanCache = plancache.New(plancache.Config{Metrics: s.Metrics()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	example := marshalPlan(t, workload.RunningExample())
	pipeline := marshalPlan(t, workload.Pipeline(6, 1e9))
	malformed := json.RawMessage(`{"ops": "not-a-plan"}`)
	plans := []json.RawMessage{example, example, pipeline, malformed}

	resp, out, raw := postBatch(t, ts.URL, plans)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d (%.300s)", resp.StatusCode, raw)
	}
	if out.Members != 4 || len(out.Results) != 4 {
		t.Fatalf("members=%d results=%d, want 4/4", out.Members, len(out.Results))
	}
	// example appears twice (one fingerprint) and the malformed member never
	// parses, so only example and pipeline are distinct.
	if out.Distinct != 2 {
		t.Fatalf("distinct = %d, want 2", out.Distinct)
	}
	if out.Errors != 1 || out.Results[3].Error == "" || out.Results[3].Plan != nil {
		t.Fatalf("malformed member not isolated: errors=%d results[3]=%+v", out.Errors, out.Results[3])
	}
	if out.Deduped != 1 || out.Results[1].Cache != "dedup" {
		t.Fatalf("duplicate member not deduped: deduped=%d cache=%q", out.Deduped, out.Results[1].Cache)
	}
	for i := 0; i < 3; i++ {
		if out.Results[i].Plan == nil {
			t.Fatalf("member %d: no plan (%+v)", i, out.Results[i])
		}
	}
	if !reflect.DeepEqual(out.Results[0].Plan.Assignments, out.Results[1].Plan.Assignments) {
		t.Fatalf("deduped member disagrees with its leader:\n%v\n%v",
			out.Results[0].Plan.Assignments, out.Results[1].Plan.Assignments)
	}
	if nOps := len(workload.RunningExample().Ops); len(out.Results[0].Plan.Assignments) != nOps {
		t.Fatalf("leader has %d assignments, want %d", len(out.Results[0].Plan.Assignments), nOps)
	}

	// The same batch again: the cache sweep answers every fingerprinted
	// member (the duplicate included) before any enumeration.
	resp2, out2, raw2 := postBatch(t, ts.URL, plans)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second batch status %d (%.300s)", resp2.StatusCode, raw2)
	}
	if out2.CacheHits != 3 || out2.Deduped != 0 {
		t.Fatalf("second batch cacheHits=%d deduped=%d, want 3/0", out2.CacheHits, out2.Deduped)
	}
	for i := 0; i < 3; i++ {
		if out2.Results[i].Cache != "hit" {
			t.Fatalf("second batch member %d cache=%q, want hit", i, out2.Results[i].Cache)
		}
	}

	var snap obs.Snapshot
	getJSON(t, ts.URL+"/metricz", &snap)
	if bs := snap.Histograms["batch_size"]; bs.Count != 2 || bs.Sum != 8 {
		t.Fatalf("batch_size: count=%d sum=%g, want 2 batches of 8 members", bs.Count, bs.Sum)
	}
	c := snap.Counters
	if c["batch_dedup_total"] != 1 || c["batch_member_errors_total"] != 2 {
		t.Fatalf("batch counters: dedup=%d memberErrors=%d, want 1/2", c["batch_dedup_total"], c["batch_member_errors_total"])
	}
}

func TestBatchEndpointRejections(t *testing.T) {
	s := &service.Server{
		Model:           sumModel{},
		Platforms:       platform.Subset(3),
		Avail:           platform.UniformAvailability(3),
		MaxBatchMembers: 2,
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	example := marshalPlan(t, workload.RunningExample())

	resp, err := http.Get(ts.URL + "/optimize/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}

	if resp, _, _ := postBatch(t, ts.URL, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d, want 400", resp.StatusCode)
	}

	over := []json.RawMessage{example, example, example}
	if resp, _, _ := postBatch(t, ts.URL, over); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status %d, want 413", resp.StatusCode)
	}

	// Without a plan cache the batch still serves every member — it just
	// cannot dedup, so both copies enumerate.
	if resp, out, raw := postBatch(t, ts.URL, []json.RawMessage{example, example}); resp.StatusCode != http.StatusOK {
		t.Fatalf("cacheless batch status %d (%.300s)", resp.StatusCode, raw)
	} else if out.Deduped != 0 || out.Errors != 0 || out.Results[0].Plan == nil || out.Results[1].Plan == nil {
		t.Fatalf("cacheless batch = %+v", out)
	}
}

// TestBatchLooksEachMemberUpOnce: every fingerprinted member costs the plan
// cache exactly one lookup, so a batch moves the hit/miss counters exactly
// as the same plans sent one by one would.
func TestBatchLooksEachMemberUpOnce(t *testing.T) {
	_, ts := newCachedServer(plancache.Config{})
	defer ts.Close()
	example := marshalPlan(t, workload.RunningExample())
	plans := []json.RawMessage{example, example, marshalPlan(t, workload.Pipeline(6, 1e9))}

	for _, want := range []struct{ hits, misses int64 }{{0, 3}, {3, 3}} {
		if resp, _, raw := postBatch(t, ts.URL, plans); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d (%.300s)", resp.StatusCode, raw)
		}
		var cz struct {
			Stats plancache.Stats `json:"stats"`
		}
		getJSON(t, ts.URL+"/cachez", &cz)
		if cz.Stats.Hits != want.hits || cz.Stats.Misses != want.misses {
			t.Fatalf("after the batch: hits=%d misses=%d, want %d/%d", cz.Stats.Hits, cz.Stats.Misses, want.hits, want.misses)
		}
	}
}
