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
// are the probes a load balancer gates traffic on, and the store follower
// converges every replica sharing a -model-dir onto the version the store
// names ACTIVE without a restart or an explicit admin call per replica.

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
// (the marker is what it follows) — POST /modelz/reload, and a store follower
// tick that found ACTIVE naming another version. The read happens under the
// admin lock too, so what it read cannot be published over a promotion made
// in between.
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

// every calls step once per interval until ctx is done, then stop (when
// given), and closes the returned channel: the one shape of the server's
// background loops. A slow step delays the next tick; ticks never pile up.
func every(ctx context.Context, interval time.Duration, step, stop func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				if stop != nil {
					stop()
				}
				return
			case <-t.C:
				step()
			}
		}
	}()
	return done
}

// followStore returns one tick of the store follower: read the ACTIVE marker
// and, unless it is unset or names the version already served, SyncStore. The
// rule compares instead of remembering what it saw last, so a sync that failed
// (the marker visible before its artifact, an artifact this replica cannot
// serve) is tried again on the next tick, and the replica's own promotions
// cost one small read. Nothing is carried between ticks but the text of the
// last failure, which keeps a failure that repeats every tick to one warn line.
func (s *Server) followStore() func() {
	m := s.Metrics()
	var warned string
	return func() {
		var resp SwapResponse
		active, err := s.ModelStore.ActiveVersion()
		if err == nil {
			if active == "" || active == s.provider().Get().Version() {
				return
			}
			resp, err = s.SyncStore()
		}
		switch {
		case err != nil:
			m.Counter("store_watch_errors_total").Inc()
			if s.Logger != nil && err.Error() != warned {
				warned = err.Error()
				s.Logger.Warn("store follower: sync failed", "active", active, "err", warned)
			}
		case resp.Swapped: // publish logged it
			m.Counter("store_watch_swaps_total").Inc()
		}
	}
}

// StartStoreWatcher follows the model store every interval (≤ 0 means
// registry.DefaultWatchInterval): whatever another process sharing the store
// makes ACTIVE, this replica ends up serving — the convergence half of running
// N replicas behind one -model-dir. The returned channel closes when the
// loop's goroutine has exited (after ctx is done).
func (s *Server) StartStoreWatcher(ctx context.Context, interval time.Duration) (<-chan struct{}, error) {
	if s.ModelStore == nil {
		return nil, errors.New("service: no model store configured (-model-dir)")
	}
	if s.provider() == nil {
		return nil, errors.New("service: no model configured")
	}
	if interval <= 0 {
		interval = registry.DefaultWatchInterval
	}
	return every(ctx, interval, s.followStore(), nil), nil
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
			"inFlight":      a.inFlight(),
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
