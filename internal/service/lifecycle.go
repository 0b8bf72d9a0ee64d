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
// are the probes a load balancer gates traffic on, the store follower
// converges every replica sharing a -model-dir onto the version the store
// names ACTIVE without a restart or an admin call per replica, and the
// registration loop keeps the replica discoverable in that store for peer
// fill and obsctl.

// handleHealthz is the liveness probe: the process is up and serving HTTP.
// It says nothing about whether the replica can optimize — that is /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// ReadyzResponse is the JSON reply of GET /readyz.
type ReadyzResponse struct {
	Ready bool `json:"ready"`
	// Reason explains a 503 ("draining" or the artifact validation error).
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
	} else {
		snap := s.Provider.Get()
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

// syncStore re-reads the store's active artifact and publishes it unpinned
// (the marker is what it follows): the store follower's step when a tick
// found ACTIVE naming another version. The read happens under the admin lock
// too, so what it read cannot be published over a promotion made in between.
func (s *Server) syncStore() (SwapResponse, error) {
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
// and, unless it is unset or names the version already served, syncStore. The
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
			if active == "" || active == s.Provider.Get().Version() {
				return
			}
			resp, err = s.syncStore()
		}
		switch {
		case err != nil:
			m.Counter("store_watch_errors_total").Inc()
			if err.Error() != warned {
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
	if interval <= 0 {
		interval = registry.DefaultWatchInterval
	}
	return every(ctx, interval, s.followStore(), nil), nil
}

// RegisterReplicaLoop registers this replica in the shared store and
// heartbeats until ctx is done, then deregisters. interval <= 0 means a
// fifth of registry.DefaultReplicaTTL. The returned channel closes after
// deregistration, so a draining server can wait for its record to vanish
// before the listener closes.
func (s *Server) RegisterReplicaLoop(ctx context.Context, addr string, interval time.Duration) (<-chan struct{}, error) {
	if s.ModelStore == nil {
		return nil, errors.New("service: no model store configured (-model-dir)")
	}
	if s.ReplicaID == "" {
		return nil, errors.New("service: replica registration needs Server.ReplicaID")
	}
	if interval <= 0 {
		interval = registry.DefaultReplicaTTL / 5
	}
	info := registry.ReplicaInfo{ID: s.ReplicaID, Addr: addr, StartedAt: time.Now()}
	if err := s.ModelStore.RegisterReplica(info); err != nil {
		return nil, err
	}
	warn := func(msg string, err error) {
		if err != nil {
			s.Logger.Warn(msg, "replicaId", s.ReplicaID, "err", err.Error())
		}
	}
	return every(ctx, interval,
		func() { warn("replica heartbeat failed", s.ModelStore.RegisterReplica(info)) },
		func() { warn("replica deregistration failed", s.ModelStore.DeregisterReplica(s.ReplicaID)) },
	), nil
}

// handleStatz serves what /metricz cannot hold: the replica's identity,
// build, readiness and last error, and the admission and tracer
// configuration and occupancy. The request counts are on /metricz only.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	a, t := s.Admission, s.Tracer
	lastError := ""
	if msg := s.lastError.Load(); msg != nil {
		lastError = *msg
	}
	out := map[string]any{
		"lastError":    lastError,
		"workers":      s.workers(),
		"ready":        !s.unready.Load(),
		"buildVersion": buildinfo.Version(),
		"goVersion":    buildinfo.GoVersion(),
		"admission": map[string]any{
			"maxConcurrent": a.maxConcurrent(),
			"maxQueue":      a.maxQueue(),
			"inFlight":      a.inFlight(),
			"shedThreshold": a.shedAt(),
		},
		"tracer": map[string]any{
			"cap":        t.Cap(),
			"occupancy":  t.Occupancy(),
			"retained":   t.Retained(),
			"dropped":    t.Dropped(),
			"sampleRate": t.SampleRate(),
		},
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

// refreshSLOGauges publishes the SLO state as the slo_* gauges of /metricz,
// the one place it is read: the objective, the target, the breach verdict
// (burn rate > 1 in every window with traffic) and one slo_burn_rate series
// per rolling window.
func (s *Server) refreshSLOGauges() {
	snap := s.SLO.Snapshot()
	m := s.Metrics()
	m.Gauge("slo_objective_ms").Set(snap.ObjectiveMs)
	m.Gauge("slo_target").Set(snap.Target)
	breached := 0.0
	if snap.Breached {
		breached = 1
	}
	m.Gauge("slo_breached").Set(breached)
	burn := m.GaugeVec("slo_burn_rate", "window")
	for _, w := range snap.Windows {
		burn.With(w.Window).Set(w.BurnRate)
	}
}
