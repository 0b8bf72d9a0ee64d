package fleet_test

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mlmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/simulator"
	"repro/internal/workload"
)

// liveReplica is one real service.Server over the shared store in dir,
// serving the store's active artifact on a loopback listener and registered
// in the store through its own registration loop until the returned cancel
// is called (which waits for the deregistration).
func liveReplica(t *testing.T, dir, id string) (url string, cancel func()) {
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
	s := &service.Server{
		Provider:   p,
		ModelStore: st,
		ReplicaID:  id,
		Feedback:   registry.NewFeedback(registry.DefaultFeedbackCap),
		Platforms:  platform.Subset(3),
		Avail:      platform.UniformAvailability(3),
		Cluster:    simulator.Default(),
		Tracer:     obs.NewTracer(obs.DefaultTraceCap, 0.1, time.Second),
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		SLO:        obs.NewSLO(500, 0.99),
		Admission:  &service.Admission{ShedFraction: service.DefaultShedFraction},
	}
	s.PlanCache = plancache.New(plancache.Config{Metrics: s.Metrics()})
	s.PlanCache.Activate(art.Version)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	ctx, stop := context.WithCancel(context.Background())
	done, err := s.RegisterReplicaLoop(ctx, strings.TrimPrefix(ts.URL, "http://"), time.Hour)
	if err != nil {
		stop()
		t.Fatalf("RegisterReplicaLoop(%s): %v", id, err)
	}
	cancel = func() { stop(); <-done }
	t.Cleanup(cancel)
	return ts.URL, cancel
}

// TestCollectLiveReplicas runs the scraper against what a replica really
// serves: two service.Server replicas share one store and register
// themselves in it, traffic goes to one of them, and Collect reports both
// replicas' readiness, model version and cache hit rate plus the fleet-wide
// rollup; a replica's deregistration shrinks the view.
func TestCollectLiveReplicas(t *testing.T) {
	dir := t.TempDir()
	st, err := registry.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	plats := platform.Subset(3)
	width := core.MustSchema(plats).Len()
	ws := make([]float64, width)
	for i := range ws {
		ws[i] = float64(i % 5)
	}
	names := make([]string, len(plats))
	for i, p := range plats {
		names[i] = p.String()
	}
	art, err := registry.New(&mlmodel.Linear{Weights: ws}, width, names, 0, mlmodel.Metrics{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := st.Save(art); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := st.Activate("v1"); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	urlA, deregisterA := liveReplica(t, dir, "replica-a")
	liveReplica(t, dir, "replica-b")

	// Traffic on A only: one miss, one hit — visible in A's row, diluted in
	// the rollup.
	body, err := plan.MarshalJSONPlan(workload.RunningExample())
	if err != nil {
		t.Fatalf("MarshalJSONPlan: %v", err)
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Post(urlA+"/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /optimize: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /optimize: status %d", resp.StatusCode)
		}
	}

	view, err := fleet.Collect(context.Background(), st, 0, nil)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if view.Fleet.Replicas != 2 || view.Fleet.Ready != 2 || view.Fleet.Unreachable != 0 {
		t.Fatalf("rollup = %+v, want 2 ready replicas", view.Fleet)
	}
	if n := view.Fleet.ModelVersions["v1"]; n != 2 {
		t.Errorf("modelVersions[v1] = %d, want 2 (converged fleet)", n)
	}
	if len(view.Replicas) != 2 || view.Replicas[0].ID != "replica-a" || view.Replicas[1].ID != "replica-b" {
		t.Fatalf("rows = %+v, want replica-a and replica-b, in ID order", view.Replicas)
	}
	a, b := view.Replicas[0], view.Replicas[1]
	for _, st := range view.Replicas {
		if !st.Ready || st.ModelVersion != "v1" || st.Err != "" {
			t.Errorf("%s: ready=%v version=%q err=%q, want ready v1", st.ID, st.Ready, st.ModelVersion, st.Err)
		}
	}
	if a.Requests != 2 || a.CacheHits != 1 || a.CacheMisses != 1 || a.CacheHitRate != 0.5 {
		t.Errorf("replica-a requests=%d cache hits=%d misses=%d rate=%v, want 2 and 1/1/0.5",
			a.Requests, a.CacheHits, a.CacheMisses, a.CacheHitRate)
	}
	if b.Requests != 0 {
		t.Errorf("replica-b requests = %d, want 0 (no traffic sent)", b.Requests)
	}
	if view.Fleet.CacheHitRate != 0.5 || view.Fleet.Requests != 2 {
		t.Errorf("fleet cacheHitRate = %v over %d requests, want the traffic-weighted 0.5 over 2",
			view.Fleet.CacheHitRate, view.Fleet.Requests)
	}
	// The SLO gauges reach the rows: /metricz recomputes them per scrape.
	if len(a.BurnRates) == 0 || a.Breached {
		t.Errorf("replica-a burn rates %v, breached %v; want the windows, not breached", a.BurnRates, a.Breached)
	}

	// Deregistration (A's loop stopping) shrinks the fleet immediately.
	deregisterA()
	if view, err = fleet.Collect(context.Background(), st, 0, nil); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if view.Fleet.Replicas != 1 || view.Replicas[0].ID != "replica-b" {
		t.Fatalf("post-deregister view = %+v, want only replica-b", view.Fleet)
	}
}
