package service_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/service"
)

// newReplica builds one fleet member over a shared store directory: its own
// provider pinned to the store's active artifact, its own plan cache, its
// own HTTP listener. Replicas share nothing in-process — only the store.
func newReplica(t *testing.T, dir string) (*service.Server, *httptest.Server) {
	t.Helper()
	st, err := registry.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	art, err := st.LoadActive()
	if err != nil || art == nil {
		t.Fatalf("LoadActive: %v (art=%v)", err, art)
	}
	p, err := registry.NewProvider(art)
	if err != nil {
		t.Fatalf("NewProvider: %v", err)
	}
	s := newServer(p)
	s.ModelStore = st
	s.PlanCache.Activate(art.Version)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestFleetConvergence is the acceptance test for replica convergence: two
// servers share one model store; a promote on replica A hot-swaps replica B
// within its watch interval, with B's plan cache invalidated in the swap.
func TestFleetConvergence(t *testing.T) {
	width := testWidth(t)
	dir := t.TempDir()
	seed, err := registry.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	for _, scale := range []float64{1, 2} {
		if _, err := seed.Save(newArtifact(t, width, scale)); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	if err := seed.Activate("v1"); err != nil {
		t.Fatalf("Activate: %v", err)
	}

	_, tsA := newReplica(t, dir)
	srvB, tsB := newReplica(t, dir)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done, err := srvB.StartStoreWatcher(ctx, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("StartStoreWatcher: %v", err)
	}

	body := planJSON(t)
	// Warm replica B on v1: a miss, then a hit, and remember the baseline
	// prediction so the doubled v2 model is observable.
	_, first, _ := postPlan(t, tsB.URL+"/optimize", body)
	if first.ModelVersion != "v1" {
		t.Fatalf("replica B serves %q before promote, want v1", first.ModelVersion)
	}
	if resp, warm, _ := postPlan(t, tsB.URL+"/optimize", body); resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warm request X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	} else if warm.PredictedRuntimeSec != first.PredictedRuntimeSec {
		t.Fatalf("warm hit changed the prediction: %g vs %g", warm.PredictedRuntimeSec, first.PredictedRuntimeSec)
	}

	// Both replicas are ready and agree with the store before the promote.
	var ready service.ReadyzResponse
	getJSON(t, tsB.URL+"/readyz", &ready)
	if !ready.Ready || ready.ModelVersion != "v1" || ready.StoreActive != "v1" {
		t.Fatalf("replica B readyz before promote = %+v", ready)
	}

	// Promote v2 on replica A only.
	var swap service.SwapResponse
	postJSON(t, tsA.URL+"/modelz/promote?version=v2", 200, &swap)
	if !swap.Swapped || swap.Version != "v2" {
		t.Fatalf("promote on A = %+v", swap)
	}

	// Replica B must converge within its watch interval — no restart, no
	// admin call against B.
	deadline := time.Now().Add(5 * time.Second)
	var got service.OptimizeResponse
	for {
		_, got, _ = postPlan(t, tsB.URL+"/optimize", body)
		if got.ModelVersion == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica B never converged on v2 (still %q)", got.ModelVersion)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// scaledLinear doubles every weight between v1 and v2, so the swapped
	// model is visible in the prediction, not just the version string.
	if got.PredictedRuntimeSec != 2*first.PredictedRuntimeSec {
		t.Fatalf("converged prediction %g, want exactly 2x the v1 baseline %g",
			got.PredictedRuntimeSec, first.PredictedRuntimeSec)
	}

	// The swap flash-invalidated B's cache: the convergence poll above
	// re-enumerated under v2 (a miss) and repopulated it, so the next
	// identical request is a hit that carries v2 — never the stale v1 plan.
	if resp, after, _ := postPlan(t, tsB.URL+"/optimize", body); resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("post-swap X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	} else if after.ModelVersion != "v2" || after.PredictedRuntimeSec != 2*first.PredictedRuntimeSec {
		t.Fatalf("post-swap cached plan carries %q/%g, want v2 at 2x the baseline %g",
			after.ModelVersion, after.PredictedRuntimeSec, first.PredictedRuntimeSec)
	}

	getJSON(t, tsB.URL+"/readyz", &ready)
	if !ready.Ready || ready.ModelVersion != "v2" || ready.StoreActive != "v2" {
		t.Fatalf("replica B readyz after converge = %+v", ready)
	}

	var snap obs.Snapshot
	getJSON(t, tsB.URL+"/metricz", &snap)
	if snap.Counters["store_watch_swaps_total"] < 1 {
		t.Fatalf("store_watch_swaps_total = %d, want >= 1", snap.Counters["store_watch_swaps_total"])
	}

	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("store watcher did not stop on context cancel")
	}
}
