package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/registry"
)

// The lifecycle layer makes one process fleet-capable: /healthz and /readyz
// are the probes a load balancer gates traffic on, and the store watcher
// converges every replica sharing a -model-dir onto the same promoted model
// version without a restart or an explicit admin call per replica.

// handleHealthz is the liveness probe: the process is up and serving HTTP.
// It says nothing about whether the replica can optimize — that is /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// ReadyzResponse is the JSON reply of GET /readyz.
type ReadyzResponse struct {
	Ready bool `json:"ready"`
	// Reason explains a 503 ("draining", "no model configured", or the
	// artifact validation error).
	Reason string `json:"reason,omitempty"`
	// ModelVersion is the version this replica currently serves.
	ModelVersion string `json:"modelVersion,omitempty"`
	// StoreActive is the shared store's ACTIVE version when a store is
	// configured — comparing it to ModelVersion across replicas shows
	// convergence progress after a promote.
	StoreActive string `json:"storeActive,omitempty"`
}

// SetReady flips the readiness gate. roboptd marks the replica unready as
// soon as a shutdown signal arrives, so the load balancer stops routing to
// it while in-flight requests drain. A Server is ready by default.
func (s *Server) SetReady(ready bool) { s.unready.Store(!ready) }

// handleReadyz is the readiness probe: 200 only while this replica holds a
// servable model artifact and is not draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := ReadyzResponse{}
	if s.unready.Load() {
		resp.Reason = "draining"
	} else if p := s.provider(); p == nil {
		resp.Reason = "no model configured"
	} else {
		snap := p.Get()
		resp.ModelVersion = snap.Version()
		if width, err := s.schemaWidth(); err != nil {
			resp.Reason = err.Error()
		} else if err := snap.Artifact.Validate(width, len(s.Platforms)); err != nil {
			resp.Reason = err.Error()
		} else {
			resp.Ready = true
		}
	}
	if s.ModelStore != nil {
		if v, err := s.ModelStore.ActiveVersion(); err == nil {
			resp.StoreActive = v
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(resp)
}

// SyncStore re-reads the store's active artifact and publishes it unpinned
// (the marker is what it follows) — POST /modelz/reload and every store
// watcher tick. The read happens under the admin lock too, so what it read
// cannot be published over a promotion made in between.
func (s *Server) SyncStore() (SwapResponse, error) {
	if s.ModelStore == nil {
		return SwapResponse{}, errors.New("service: no model store configured (-model-dir)")
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	art, err := s.ModelStore.LoadActive()
	if err != nil {
		return SwapResponse{}, err
	}
	if art == nil {
		return SwapResponse{}, errors.New("service: model store holds no artifacts")
	}
	return s.publish(art, false)
}

// StartStoreWatcher polls the model store for promotions made by other
// processes sharing it and hot-swaps them in — the convergence half of
// running N replicas behind one -model-dir. interval ≤ 0 means
// registry.DefaultWatchInterval. The watcher is primed to the store's
// current state, so only promotions after this call trigger swaps. The
// returned channel closes when the watcher goroutine exits (after ctx is
// done).
func (s *Server) StartStoreWatcher(ctx context.Context, interval time.Duration) (<-chan struct{}, error) {
	if s.ModelStore == nil {
		return nil, errors.New("service: no model store configured (-model-dir)")
	}
	m := s.Metrics()
	w := &registry.Watcher{
		Store:    s.ModelStore,
		Interval: interval,
		Logger:   s.Logger,
		OnChange: func(version string) {
			resp, err := s.SyncStore()
			switch {
			case err != nil:
				m.Counter("store_watch_errors_total").Inc()
				if s.Logger != nil {
					s.Logger.Warn("store watcher: sync failed", "version", version, "err", err.Error())
				}
			case resp.Swapped: // publish logged it
				m.Counter("store_watch_swaps_total").Inc()
			}
		},
	}
	w.Prime()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	return done, nil
}

// handleStatz serves the short summary: a view of the registry behind
// /metricz under /statz's own key names, plus configuration and occupancy.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	snap := s.Metrics().Snapshot()
	lastError := ""
	if msg := s.lastError.Load(); msg != nil {
		lastError = *msg
	}
	out := map[string]any{
		"requests":         snap.Counters["requests_total"],
		"failures":         snap.Counters["failures_total"],
		"deadlineExceeded": snap.Counters["deadline_exceeded_total"],
		"degraded":         snap.Counters["degraded_total"],
		"shed":             snap.Counters["shed_total"],
		"rejected":         snap.Counters["admission_rejected_total"],
		"avgMs":            snap.Histograms["optimize_ms"].Avg,
		"lastError":        lastError,
		"workers":          s.workers(),
		"ready":            !s.unready.Load(),
		"buildVersion":     buildinfo.Version(),
		"goVersion":        buildinfo.GoVersion(),
	}
	if a := s.Admission; a != nil {
		out["admission"] = map[string]any{
			"maxConcurrent": a.maxConcurrent(),
			"maxQueue":      a.maxQueue(),
			"inFlight":      a.InFlight(),
			"queueDepth":    a.QueueDepth(),
			"shedThreshold": a.shedAt(),
		}
	}
	if t := s.Tracer; t != nil {
		out["tracer"] = map[string]any{
			"cap":        t.Cap(),
			"occupancy":  t.Occupancy(),
			"retained":   t.Retained(),
			"dropped":    t.Dropped(),
			"sampleRate": t.SampleRate(),
		}
	}
	if s.ReplicaID != "" {
		out["replicaId"] = s.ReplicaID
	}
	_ = json.NewEncoder(w).Encode(out)
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	// SLO burn rates are point-in-time reads of the rolling windows, so
	// they are recomputed per scrape rather than on the request path.
	s.refreshSLOGauges()
	// ?format=prometheus serves the same registry in the Prometheus text
	// exposition format (version 0.0.4) so a standard scraper can ingest it.
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.Metrics().WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.Metrics().Snapshot())
}
